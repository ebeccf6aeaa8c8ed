"""Engine plumbing and the ``repro lint`` sub-command."""

from __future__ import annotations

import json

import pytest

from repro.devtools import (
    format_json,
    format_text,
    iter_python_files,
    lint_paths,
    lint_source,
    rule_catalogue,
)
from repro.exceptions import ConfigurationError
from repro.experiments.cli import main as experiments_main

VIOLATING = "def f():\n    raise ValueError('boom')\n"
CLEAN = "def f():\n    return 1\n"


def lint_main(argv):
    """``repro lint ARGV`` through the experiments CLI; returns the exit status."""
    return experiments_main(["lint", *argv])


class TestFileDiscovery:
    def test_directories_expand_recursively_and_sorted(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(CLEAN)
        (tmp_path / "a.py").write_text(CLEAN)
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_pycache_is_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text(CLEAN)
        (tmp_path / "real.py").write_text(CLEAN)
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]

    def test_missing_path_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            iter_python_files(["definitely/not/here"])

    def test_duplicate_paths_are_deduplicated(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text(CLEAN)
        assert len(iter_python_files([target, target])) == 1


class TestReporting:
    def test_json_format_is_machine_readable(self):
        findings = lint_source(VIOLATING)
        payload = json.loads(format_json(findings, checked_files=1))
        assert payload["version"] == 1
        assert payload["checked_files"] == 1
        assert payload["summary"] == {"EXC001": 1}
        (entry,) = payload["findings"]
        assert entry["rule"] == "EXC001"
        assert entry["line"] == 2
        assert entry["severity"] == "error"

    def test_text_format_lists_findings_and_summary(self):
        findings = lint_source(VIOLATING, "src/bad.py")
        text = format_text(findings, checked_files=1)
        assert "src/bad.py:2:" in text
        assert "EXC001" in text
        assert "1 finding" in text

    def test_text_format_clean(self):
        assert "clean" in format_text([], checked_files=3)


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_main([str(tmp_path)]) == 1
        assert "EXC001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2
        assert "repro lint" in capsys.readouterr().err

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_main([str(tmp_path), "--select", "RNG001"]) == 0
        capsys.readouterr()

    def test_json_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"EXC001": 1}

    def test_list_rules_prints_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_class in rule_catalogue():
            assert rule_class.id in out


class TestEngine:
    def test_lint_paths_matches_lint_source(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        from_paths = lint_paths([tmp_path])
        from_source = lint_source(VIOLATING)
        assert [f.rule for f in from_paths] == [f.rule for f in from_source]
        assert [f.line for f in from_paths] == [f.line for f in from_source]

    def test_findings_are_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text(VIOLATING)
        (tmp_path / "a.py").write_text(VIOLATING)
        findings = lint_paths([tmp_path])
        assert [f.path for f in findings] == sorted(f.path for f in findings)
