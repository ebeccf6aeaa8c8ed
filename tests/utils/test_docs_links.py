"""Keep the docs site and README cross-references structurally green.

CI builds the Sphinx site with warnings-as-errors and runs its link check;
this test covers the part that must hold *without* Sphinx installed — every
``:doc:`` target and toctree entry resolves to an existing page, every
``automodule`` names an importable module, and every relative link in the
README points at a file in the repository — so a broken reference fails the
ordinary test suite, not just the docs job.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"


def _rst_sources() -> list[Path]:
    return sorted(DOCS.rglob("*.rst"))


def test_docs_tree_exists():
    assert (DOCS / "conf.py").is_file()
    assert (DOCS / "index.rst").is_file()
    assert _rst_sources(), "the docs tree holds no .rst pages"


def test_doc_roles_and_toctrees_resolve():
    pages = {
        str(path.relative_to(DOCS).with_suffix("")).replace("\\", "/")
        for path in _rst_sources()
    }
    for path in _rst_sources():
        text = path.read_text()
        base = path.parent.relative_to(DOCS)
        for target in re.findall(r":doc:`(?:[^<`]*<)?([^>`]+)>?`", text):
            target = target.strip()
            if target.startswith("/"):
                resolved = target[1:]
            else:
                resolved = str((base / target)).replace("\\", "/").lstrip("./") or target
            assert resolved in pages, f"{path}: :doc:`{target}` has no page"
        in_toctree = False
        indent = 0
        for line in text.splitlines():
            if re.match(r"\s*\.\.\s+toctree::", line):
                in_toctree = True
                indent = len(line) - len(line.lstrip())
                continue
            if in_toctree:
                if not line.strip():
                    continue
                if len(line) - len(line.lstrip()) <= indent:
                    in_toctree = False
                    continue
                entry = line.strip()
                if entry.startswith(":"):
                    continue
                resolved = str((base / entry)).replace("\\", "/").lstrip("./") or entry
                assert resolved in pages, f"{path}: toctree entry {entry!r} has no page"


def test_automodule_targets_import():
    for path in _rst_sources():
        for module in re.findall(r"\.\.\s+automodule::\s+([\w.]+)", path.read_text()):
            importlib.import_module(module)


def test_readme_relative_links_point_at_real_files():
    readme = (REPO_ROOT / "README.md").read_text()
    for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", readme):
        target = target.strip()
        if re.match(r"[a-z]+://", target) or target.startswith("mailto:"):
            continue
        assert (REPO_ROOT / target).exists(), f"README links to missing {target!r}"


def test_ci_builds_the_docs_with_warnings_as_errors():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "sphinx-build -W" in workflow, "CI no longer builds docs with -W"
    assert "-b linkcheck" in workflow, "CI no longer link-checks the docs"
