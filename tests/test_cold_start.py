"""Cold start: a launch imports only what its run uses.

Short processes (CLI runs, ``repro serve`` starts, benchmark set-up
launches) pay for every module imported at start-up. Four rules keep
that cost down, and the fresh-interpreter tests here pin them:

* scipy is imported inside the one function that uses it
  (``lambertw`` in ``repro.cluster.allocation._per_worker_optimum``),
  never at module level;
* ``repro.experiments`` resolves its re-exports on first access, so
  ``from repro.experiments import ec2_like_cluster`` loads no driver;
* ``repro.experiments.cli`` imports each paper experiment module inside
  the sub-command that runs it, so importing the CLI or the server loads
  none;
* the run path never calls ``np.unique``, which imports ``numpy.ma`` on
  its first call under NumPy 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.experiments as experiments
from repro.cluster.allocation import optimal_rate_per_load, solve_p2_allocation
from repro.cluster.spec import ClusterSpec

LAUNCH_AND_SWEEP = """
import json, sys
import numpy
bare_numpy_loads_ma = "numpy.ma" in sys.modules
import repro.api, repro.service.server, repro.experiments.cli
from repro.api import JobSpec, Sweep, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.stragglers.models import ExponentialDelay
base = JobSpec(
    scheme={"name": "bcc", "load": 2},
    cluster=ClusterSpec.homogeneous(8, ExponentialDelay(straggling=1.0)),
    num_units=8,
    num_iterations=2,
    seed=0,
)
schemes = ["bcc", "randomized", "cyclic-repetition"]
rows = run_sweep(Sweep(base, parameters={"scheme.name": schemes}, trials=2)).aggregate()
print(json.dumps({
    "rows": len(rows),
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "numpy.ma": "numpy.ma" in sys.modules,
    "bare_numpy_loads_ma": bare_numpy_loads_ma,
}))
"""

IMPORT_EC2 = """
import json, sys
from repro.experiments import ec2_like_cluster
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.experiments"))))
"""

IMPORT_CLI_AND_SERVER = """
import json, sys
import repro.experiments.cli, repro.service.server
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.experiments"))))
"""

#: The paper experiment modules the CLI imports inside its sub-commands.
PAPER_MODULES = ("churn", "fig2", "fig4", "fig5", "theorems")


def fresh_interpreter(source):
    """Run ``source`` in a new interpreter; its last stdout line as JSON.

    The child imports the same ``repro`` as this process.
    """
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_launch_and_sweep_load_neither_scipy_nor_numpy_ma():
    seen = fresh_interpreter(LAUNCH_AND_SWEEP)
    assert seen["rows"] == 3
    assert seen["scipy"] == []
    assert seen["numpy.ma"] == seen["bare_numpy_loads_ma"]


def test_ec2_cluster_import_loads_no_driver():
    assert fresh_interpreter(IMPORT_EC2) == ["repro.experiments", "repro.experiments.ec2"]


def test_cli_and_server_imports_load_no_driver():
    loaded = fresh_interpreter(IMPORT_CLI_AND_SERVER)
    assert "repro.experiments.cli" in loaded
    assert [name for name in loaded if name.rpartition(".")[2] in PAPER_MODULES] == []


class TestLazyExperimentsPackage:
    def test_every_exported_name_resolves_and_is_listed(self):
        listed = dir(experiments)
        for name in experiments.__all__:
            assert getattr(experiments, name) is not None
            assert name in listed

    def test_star_import_binds_every_exported_name(self):
        namespace = {}
        exec("from repro.experiments import *", namespace)
        assert set(experiments.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_driver"):
            experiments.no_such_driver  # noqa: B018
        assert not hasattr(experiments, "no_such_driver")


def test_p2_allocation_is_unchanged_by_the_deferred_lambertw_import():
    # Values of the module-level import, before the import moved.
    cluster = ClusterSpec.shifted_exponential([0.5, 1.0, 4.0, 10.0], [0.25, 1.0, 2.0, 0.0])
    rates, successes = optimal_rate_per_load(cluster)
    assert rates.tolist() == [0.8523956774172702, 0.4659412723849929, 0.383257778782323, 10.0]
    assert successes.tolist() == [
        0.36971428432459363,
        0.6821555671006273,
        0.9125632581689519,
        0.6321205588285577,
    ]
    allocation = solve_p2_allocation(cluster, target=60)
    np.testing.assert_array_equal(allocation.loads, [8, 4, 4, 83])
    assert allocation.deadline == 8.214744543660192
