"""Experiment drivers that regenerate every table and figure of the paper.

Each driver returns a plain result object with the same rows/series the paper
reports and a ``render()`` method producing a monospace table, so the
benchmark harness can both assert on the numbers and print them.

=====================  =====================================================
Paper artefact         Driver
=====================  =====================================================
Fig. 2                 :func:`repro.experiments.fig2.run_fig2`
Fig. 4 + Tables I/II   :func:`repro.experiments.fig4.run_scenario`
Fig. 5                 :func:`repro.experiments.fig5.run_fig5`
Theorem 1 validation   :func:`repro.experiments.theorems.run_theorem1_validation`
Theorem 2 validation   :func:`repro.experiments.theorems.run_theorem2_validation`
Ablations              :mod:`repro.experiments.ablations`
Churn ablation         :func:`repro.experiments.churn.run_churn_ablation`
=====================  =====================================================

Each public name is imported from its submodule on first access (a PEP 562
module ``__getattr__``), so ``from repro.experiments import
ec2_like_cluster`` imports :mod:`repro.experiments.ec2` and none of the
drivers.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

#: The public names of each submodule, in ``__all__`` order.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "ec2": ("ec2_like_cluster", "EC2LikeConfig"),
    "fig2": ("Fig2Result", "run_fig2"),
    "fig4": ("ScenarioConfig", "ScenarioResult", "run_scenario"),
    "fig5": ("Fig5Result", "run_fig5"),
    "theorems": (
        "Theorem1Validation",
        "run_theorem1_validation",
        "Theorem2Validation",
        "run_theorem2_validation",
    ),
    "churn": (
        "ChurnAblationConfig",
        "ChurnAblationResult",
        "available_dynamics",
        "dynamics_from_spec",
        "run_churn_ablation",
    ),
    "ablations": (
        "load_sweep",
        "straggler_intensity_sweep",
        "delay_model_comparison",
        "communication_ratio_sweep",
        "allocation_strategy_comparison",
        "exactness_under_time_budget",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str) -> Any:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
