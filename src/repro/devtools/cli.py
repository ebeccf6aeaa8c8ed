"""The ``repro lint`` sub-command: its arguments and its execution.

The experiments CLI mounts :func:`build_parser` as its ``lint``
sub-command and dispatches to :func:`run`::

    python -m repro lint src/repro
    python -m repro lint src/repro --format json --select EXC001,RNG001

Exit status: 0 when the tree is clean, 1 when any finding (of any severity)
was reported, 2 on a usage error. CI runs ``--format json`` and fails the
lint job on the exit status, so every contract in the catalogue is enforced
at diff time.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.engine import iter_python_files, lint_modules
from repro.devtools.context import ModuleContext
from repro.devtools.reporting import format_json, format_rule_listing, format_text
from repro.exceptions import ReproError

__all__ = ["build_parser", "run"]

DEFAULT_PATHS = ("src/repro",)


def build_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the ``lint`` arguments to the experiments CLI's sub-parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit status."""
    if args.list_rules:
        print(format_rule_listing())
        return 0
    select = (
        [rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()]
        if args.select
        else None
    )
    try:
        files = iter_python_files(args.paths)
        modules = [ModuleContext.from_path(path) for path in files]
        findings = lint_modules(modules, select=select)
    except ReproError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    formatter = format_json if args.output_format == "json" else format_text
    print(formatter(findings, checked_files=len(files)))
    return 1 if findings else 0

