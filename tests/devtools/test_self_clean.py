"""The meta-test: the shipped tree satisfies its own contract checker.

This is the acceptance gate for the whole rule catalogue — every finding in
``src/repro`` has either been fixed or carries an audited pragma, and no
pragma is stale. If this test fails, either a contract regressed or a new
violation shipped.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools import Severity, lint_paths, rule_catalogue

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_TREE = REPO_ROOT / "src" / "repro"


def test_source_tree_exists():
    assert SOURCE_TREE.is_dir()


def test_shipped_tree_is_lint_clean():
    findings = lint_paths([SOURCE_TREE])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_catalogue_has_the_documented_rules():
    ids = {rule_class.id for rule_class in rule_catalogue()}
    assert {
        "RNG001",
        "RNG002",
        "EXC001",
        "SCHEME001",
        "TIME001",
        "CACHE001",
        "DOC001",
        "TYPE001",
        "SUM001",
    } <= ids
    assert len(ids) >= 7


def test_every_rule_is_self_describing():
    for rule_class in rule_catalogue():
        rule = rule_class()
        assert rule.id
        assert rule.title
        assert rule.rationale
        assert isinstance(rule.severity, Severity)
