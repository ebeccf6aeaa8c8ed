"""``repro.devtools`` — the ``reprolint`` static-analysis engine.

The repo's correctness guarantees — loop==vectorized bit-identity, the RNG
draw-order contract and the ``sample``/``sample_grid``/``exponential_form``
delay-model contract, the typed :mod:`repro.exceptions` hierarchy, and the
``analytic_runtime``-or-:class:`~repro.exceptions.AnalyticIntractableError`
obligation on every registered scheme — are invariants of the *source*, not
just of whichever tests exercise a path. This package enforces them the way
race detectors and sanitizers do for systems runtimes: deterministically, at
diff time, with an AST walk instead of a lucky seed.

Quickstart::

    from repro.devtools import lint_paths
    findings = lint_paths(["src/repro"])
    assert findings == []

or from a shell::

    python -m repro lint src/repro --format json

Suppressions are inline and audited — see :mod:`repro.devtools.pragmas` —
and the rule catalogue lives in :mod:`repro.devtools.checks`, documented in
``docs/contracts.rst``.
"""

from repro.devtools import checks as _checks  # noqa: F401  (registers the catalogue)
from repro.devtools.context import ModuleContext, ProjectModel, module_name_for_path
from repro.devtools.engine import (
    iter_python_files,
    lint_modules,
    lint_paths,
    lint_source,
)
from repro.devtools.findings import Finding, Severity, sort_findings
from repro.devtools.pragmas import Pragma, PragmaIndex, parse_pragmas
from repro.devtools.reporting import format_json, format_rule_listing, format_text
from repro.devtools.rules import Rule, get_rule, register_rule, rule_catalogue

__all__ = [
    "Finding",
    "Severity",
    "sort_findings",
    "Pragma",
    "PragmaIndex",
    "parse_pragmas",
    "ModuleContext",
    "ProjectModel",
    "module_name_for_path",
    "Rule",
    "register_rule",
    "rule_catalogue",
    "get_rule",
    "iter_python_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "format_text",
    "format_json",
    "format_rule_listing",
]
