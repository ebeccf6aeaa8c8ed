"""Fixture tests: every reprolint rule fires on a violating snippet.

Each rule gets at least one minimal source fragment that must produce a
finding and at least one conforming fragment that must stay clean, so a
regression in a rule's detection logic (or an accidental scope change) is
caught without linting the whole tree.
"""

from __future__ import annotations

import pytest

from repro.devtools import Severity, lint_source


def findings_for(source, rule, path="snippet.py"):
    """Findings of one rule over one in-memory snippet."""
    return [f for f in lint_source(source, path, select=[rule]) if f.rule == rule]


# --------------------------------------------------------------------- #
# RNG001 — global-state / hidden-stream randomness
# --------------------------------------------------------------------- #
class TestGlobalRandomness:
    def test_literal_seed_default_rng_is_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        findings = findings_for(source, "RNG001")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert findings[0].severity is Severity.ERROR

    def test_implicit_seed_default_rng_is_flagged(self):
        source = "from numpy.random import default_rng\nrng = default_rng()\n"
        assert len(findings_for(source, "RNG001")) == 1

    def test_legacy_global_numpy_draw_is_flagged(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert len(findings_for(source, "RNG001")) == 1

    def test_stdlib_random_is_flagged(self):
        source = "import random\nx = random.random()\n"
        assert len(findings_for(source, "RNG001")) == 1
        source = "from random import shuffle\nshuffle([1, 2])\n"
        assert len(findings_for(source, "RNG001")) == 1

    def test_seed_passthrough_is_allowed(self):
        source = "import numpy as np\ndef f(seed):\n    return np.random.default_rng(seed)\n"
        assert findings_for(source, "RNG001") == []

    def test_seed_sequence_construction_is_allowed(self):
        source = "import numpy as np\nss = np.random.SeedSequence(7)\n"
        assert findings_for(source, "RNG001") == []

    def test_rng_module_itself_is_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert findings_for(source, "RNG001", path="src/repro/utils/rng.py") == []

    def test_pragma_suppresses(self):
        source = (
            "import numpy as np\n"
            "# reprolint: allow[RNG001] reason=fixed-seed probe\n"
            "rng = np.random.default_rng(0)\n"
        )
        assert findings_for(source, "RNG001") == []


# --------------------------------------------------------------------- #
# RNG002 — batch-path parity for sample() overrides
# --------------------------------------------------------------------- #
DELAY_OVERRIDE = """
from repro.stragglers.base import DelayModel

class MyDelay(DelayModel):
    def sample(self, load, rng=None, size=None):
        return 1.0
"""

DELAY_COMPLETE = """
from repro.stragglers.base import DelayModel

class MyDelay(DelayModel):
    def sample(self, load, rng=None, size=None):
        return 1.0

    @classmethod
    def sample_grid(cls, models, loads, rng=None, num_draws=1):
        return []
"""


class TestBatchPathParity:
    def test_sample_override_without_batch_paths_is_flagged(self):
        findings = findings_for(DELAY_OVERRIDE, "RNG002")
        assert len(findings) == 1
        message = findings[0].message
        assert "sample_grid" in message
        # sample_grid is the whole batch contract of a delay model.
        assert "sample_batch" not in message
        assert "sample_trials" not in message

    def test_complete_override_is_clean(self):
        assert findings_for(DELAY_COMPLETE, "RNG002") == []

    def test_communication_models_only_need_sample_batch(self):
        source = (
            "from repro.stragglers.communication import CommunicationModel\n\n"
            "class MyComm(CommunicationModel):\n"
            "    def sample(self, size_units, rng=None, size=None):\n"
            "        return 0.0\n\n"
            "    def sample_batch(self, size_units, rng=None, size=1):\n"
            "        return [0.0] * size\n"
        )
        assert findings_for(source, "RNG002") == []

    def test_communication_sample_alone_is_flagged(self):
        source = (
            "from repro.stragglers.communication import CommunicationModel\n\n"
            "class MyComm(CommunicationModel):\n"
            "    def sample(self, size_units, rng=None, size=None):\n"
            "        return 0.0\n"
        )
        assert len(findings_for(source, "RNG002")) == 1

    def test_subclass_without_sample_override_is_clean(self):
        source = (
            "from repro.stragglers.base import DelayModel\n\n"
            "class MyDelay(DelayModel):\n"
            "    def mean(self, load):\n"
            "        return 1.0\n"
        )
        assert findings_for(source, "RNG002") == []

    def test_pragma_inherit_suppresses(self):
        source = DELAY_OVERRIDE.replace(
            "class MyDelay",
            "# reprolint: allow[RNG002] reason=wrapper; delegates every draw\n"
            "class MyDelay",
        )
        assert findings_for(source, "RNG002") == []


# --------------------------------------------------------------------- #
# EXC001 — bare builtin raises
# --------------------------------------------------------------------- #
class TestBareBuiltinRaise:
    @pytest.mark.parametrize(
        "builtin", ["ValueError", "RuntimeError", "TypeError", "Exception"]
    )
    def test_bare_builtin_is_flagged(self, builtin):
        source = f"def f():\n    raise {builtin}('boom')\n"
        findings = findings_for(source, "EXC001")
        assert len(findings) == 1
        assert builtin in findings[0].message

    def test_hierarchy_raise_is_clean(self):
        source = (
            "from repro.exceptions import ConfigurationError\n"
            "def f():\n"
            "    raise ConfigurationError('bad n')\n"
        )
        assert findings_for(source, "EXC001") == []

    def test_bare_reraise_is_clean(self):
        source = "def f():\n    try:\n        pass\n    except KeyError:\n        raise\n"
        assert findings_for(source, "EXC001") == []

    def test_other_builtins_pass(self):
        source = "def f():\n    raise KeyError('k')\n"
        assert findings_for(source, "EXC001") == []


# --------------------------------------------------------------------- #
# SCHEME001 — the analytic_runtime obligation
# --------------------------------------------------------------------- #
SCHEME_WITHOUT = """
from repro.schemes.base import Scheme
from repro.schemes.registry import register_scheme

@register_scheme
class MyScheme(Scheme):
    name = "my-scheme"
"""

SCHEME_WITH = SCHEME_WITHOUT + """
    def analytic_runtime(self, cluster, num_units, **kwargs):
        raise NotImplementedError
"""


class TestSchemeAnalyticObligation:
    def test_registered_scheme_without_analytic_runtime_is_flagged(self):
        findings = findings_for(SCHEME_WITHOUT, "SCHEME001")
        assert len(findings) == 1
        assert "MyScheme" in findings[0].message

    def test_registered_scheme_with_analytic_runtime_is_clean(self):
        assert findings_for(SCHEME_WITH, "SCHEME001") == []

    def test_inherited_from_concrete_ancestor_counts(self):
        source = SCHEME_WITH + """

@register_scheme
class Derived(MyScheme):
    name = "derived"
"""
        assert findings_for(source, "SCHEME001") == []

    def test_unregistered_class_is_ignored(self):
        source = (
            "from repro.schemes.base import Scheme\n\n"
            "class Helper(Scheme):\n"
            "    name = 'helper'\n"
        )
        assert findings_for(source, "SCHEME001") == []


# --------------------------------------------------------------------- #
# TIME001 — wall-clock reads
# --------------------------------------------------------------------- #
class TestWallClock:
    @pytest.mark.parametrize(
        "call", ["time.time()", "time.perf_counter()", "time.monotonic()", "time.sleep(1)"]
    )
    def test_time_module_calls_are_flagged(self, call):
        source = f"import time\ndef f():\n    return {call}\n"
        assert len(findings_for(source, "TIME001")) == 1

    def test_from_import_is_flagged(self):
        source = "from time import perf_counter\nx = perf_counter()\n"
        assert len(findings_for(source, "TIME001")) == 1

    def test_datetime_now_is_flagged(self):
        source = "import datetime\nx = datetime.datetime.now()\n"
        assert len(findings_for(source, "TIME001")) == 1
        source = "from datetime import datetime\nx = datetime.now()\n"
        assert len(findings_for(source, "TIME001")) == 1

    def test_runtime_package_is_exempt(self):
        source = "import time\nx = time.perf_counter()\n"
        assert findings_for(source, "TIME001", path="src/repro/runtime/worker.py") == []

    def test_timing_module_is_exempt(self):
        source = "import time\nx = time.perf_counter()\n"
        assert findings_for(source, "TIME001", path="src/repro/utils/timing.py") == []


# --------------------------------------------------------------------- #
# CACHE001 — len()-keyed caches
# --------------------------------------------------------------------- #
class TestLenKeyedCache:
    def test_len_keyed_cache_key_is_flagged(self):
        source = (
            "def f(self):\n"
            "    cache_key = (self.version, len(self.records))\n"
            "    return cache_key\n"
        )
        findings = findings_for(source, "CACHE001")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_len_comparison_against_cache_state_is_flagged(self):
        source = (
            "def f(self):\n"
            "    if self._cache_size == len(self.items):\n"
            "        return self._cached\n"
        )
        assert len(findings_for(source, "CACHE001")) == 1

    def test_measuring_the_cache_itself_is_clean(self):
        source = (
            "def f(self):\n"
            "    if len(self._cache) > 64:\n"
            "        self._cache.clear()\n"
        )
        assert findings_for(source, "CACHE001") == []

    def test_version_keyed_cache_is_clean(self):
        source = (
            "def f(self):\n"
            "    cache_key = (self.records.version, self.metrics)\n"
            "    return cache_key\n"
        )
        assert findings_for(source, "CACHE001") == []


# --------------------------------------------------------------------- #
# CACHE002 — identity-derived cache keys
# --------------------------------------------------------------------- #
class TestIdentityKeyedCache:
    def test_id_keyed_cache_is_flagged(self):
        source = (
            "def f(self, spec):\n"
            "    cache_key = (id(spec), self.engine)\n"
            "    return self._cache[cache_key]\n"
        )
        findings = findings_for(source, "CACHE002")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert findings[0].severity is Severity.ERROR
        assert "id()" in findings[0].message

    def test_hash_keyed_cache_is_flagged(self):
        source = (
            "def f(self, spec):\n"
            "    key = hash(spec)\n"
            "    return self._cache.get(key)\n"
        )
        assert len(findings_for(source, "CACHE002")) == 1

    def test_repr_keyed_store_is_flagged(self):
        source = (
            "def f(self, spec, value):\n"
            "    self._cache[repr(spec)] = value\n"
        )
        assert len(findings_for(source, "CACHE002")) == 1

    def test_fingerprint_from_repr_is_flagged(self):
        source = (
            "def fingerprint(self, spec):\n"
            "    return repr(spec)\n"
        )
        assert len(findings_for(source, "CACHE002")) == 1

    def test_content_fingerprint_key_is_clean(self):
        source = (
            "def f(self, spec, backend):\n"
            "    cache_key = fingerprint_spec(spec, backend=backend)\n"
            "    return self._cache.get(cache_key)\n"
        )
        assert findings_for(source, "CACHE002") == []

    def test_unrelated_repr_is_clean(self):
        source = (
            "def describe(value):\n"
            "    return 'value: ' + repr(value)\n"
        )
        assert findings_for(source, "CACHE002") == []

    def test_display_repr_next_to_key_loop_variable_is_clean(self):
        # A table-rendering loop whose variable happens to be named ``key``
        # is formatting, not keying.
        source = (
            "def render(self, table):\n"
            "    for key, value in self.extras.items():\n"
            "        table.add_row([key, repr(value)])\n"
        )
        assert findings_for(source, "CACHE002") == []

    def test_pragma_suppresses_with_reason(self):
        source = (
            "def f(self, model):\n"
            "    # reprolint: allow[CACHE002] reason=intra-process memo on live object identity\n"
            "    key = id(model)\n"
            "    return self._cache.get(key)\n"
        )
        assert findings_for(source, "CACHE002") == []


# --------------------------------------------------------------------- #
# EXC002 — catch-alls in the scheduler core / service
# --------------------------------------------------------------------- #
class TestSchedulerCatchAll:
    def test_except_exception_in_scheduling_is_flagged(self):
        source = (
            "def probe(spec):\n"
            "    try:\n"
            "        return spec.plan()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        findings = findings_for(
            source, "EXC002", path="src/repro/scheduling/core.py"
        )
        assert len(findings) == 1
        assert findings[0].line == 4
        assert findings[0].severity is Severity.ERROR

    def test_bare_except_in_service_is_flagged(self):
        source = (
            "def load(path):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except:\n"
            "        return None\n"
        )
        findings = findings_for(
            source, "EXC002", path="src/repro/service/cache.py"
        )
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_catch_all_inside_tuple_is_flagged(self):
        source = (
            "def load(path):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except (OSError, Exception):\n"
            "        return None\n"
        )
        assert len(
            findings_for(source, "EXC002", path="src/repro/service/cache.py")
        ) == 1

    def test_repro_hierarchy_catch_is_clean(self):
        source = (
            "from repro.exceptions import ReproError\n"
            "def probe(spec):\n"
            "    try:\n"
            "        return spec.plan()\n"
            "    except ReproError:\n"
            "        return None\n"
        )
        assert findings_for(
            source, "EXC002", path="src/repro/scheduling/core.py"
        ) == []

    def test_outside_scope_is_exempt(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert findings_for(source, "EXC002", path="src/repro/utils/misc.py") == []


# --------------------------------------------------------------------- #
# DOC001 — public docstrings in repro.api
# --------------------------------------------------------------------- #
class TestPublicDocstring:
    def test_undocumented_public_function_in_api_is_flagged(self):
        source = "def run_everything(spec):\n    return spec\n"
        findings = findings_for(source, "DOC001", path="src/repro/api/extra.py")
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_undocumented_public_method_is_flagged(self):
        source = (
            'class Thing:\n'
            '    """A documented class."""\n\n'
            '    def run(self):\n'
            '        return 1\n'
        )
        findings = findings_for(source, "DOC001", path="src/repro/api/extra.py")
        assert len(findings) == 1
        assert "Thing.run" in findings[0].message

    def test_documented_and_private_names_are_clean(self):
        source = (
            'def public():\n'
            '    """Documented."""\n\n'
            'def _private():\n'
            '    return 1\n'
        )
        assert findings_for(source, "DOC001", path="src/repro/api/extra.py") == []

    def test_outside_api_package_is_out_of_scope(self):
        source = "def f():\n    return 1\n"
        assert findings_for(source, "DOC001", path="src/repro/analysis/extra.py") == []


# --------------------------------------------------------------------- #
# TYPE001 — strict-core annotations
# --------------------------------------------------------------------- #
class TestStrictCoreAnnotations:
    def test_unannotated_public_def_is_flagged(self):
        source = "def f(x):\n    return x\n"
        findings = findings_for(source, "TYPE001", path="src/repro/api/extra.py")
        assert len(findings) == 1
        assert "x" in findings[0].message
        assert "return" in findings[0].message

    def test_self_is_not_required(self):
        source = (
            "class C:\n"
            "    def run(self) -> int:\n"
            "        return 1\n"
        )
        assert findings_for(source, "TYPE001", path="src/repro/schemes/extra.py") == []

    def test_fully_annotated_def_is_clean(self):
        source = "def f(x: int, *args: int, **kw: float) -> int:\n    return x\n"
        assert findings_for(source, "TYPE001", path="src/repro/simulation/extra.py") == []

    def test_unannotated_varargs_are_flagged(self):
        source = "def f(x: int, *args) -> int:\n    return x\n"
        findings = findings_for(source, "TYPE001", path="src/repro/api/extra.py")
        assert len(findings) == 1
        assert "*args" in findings[0].message

    def test_outside_strict_core_is_out_of_scope(self):
        source = "def f(x):\n    return x\n"
        assert findings_for(source, "TYPE001", path="src/repro/analysis/extra.py") == []


# --------------------------------------------------------------------- #
# SUM001 — built-in sum()
# --------------------------------------------------------------------- #
class TestBuiltinSum:
    def test_builtin_sum_is_flagged(self):
        source = "def total(values):\n    return sum(values)\n"
        findings = findings_for(source, "SUM001")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert findings[0].severity is Severity.ERROR
        assert "_sequential_sum" in findings[0].message
        assert "_sum_in_order" in findings[0].message

    def test_generator_and_start_argument_forms_are_flagged(self):
        source = "a = sum(x for x in range(3))\nb = sum([0.1] * 10, 0.0)\n"
        assert [f.line for f in findings_for(source, "SUM001")] == [1, 2]

    def test_numpy_and_method_sums_are_clean(self):
        source = (
            "import numpy as np\n"
            "a = np.sum([0.1, 0.2])\n"
            "b = np.ones(3).sum()\n"
            "c = np.add.accumulate([0.1, 0.2])\n"
        )
        assert findings_for(source, "SUM001") == []

    def test_pragma_suppresses(self):
        source = (
            "# reprolint: allow[SUM001] reason=integer counts\n"
            "n = sum(1 for _ in range(3))\n"
        )
        assert findings_for(source, "SUM001") == []
