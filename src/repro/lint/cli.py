"""Command-line front end: ``python -m repro.lint``.

Exit status 0 means every selected rule is clean on the analyzed tree, 1
means violations were reported, 2 is a usage error (argparse).  ``--format
json`` emits a machine-readable violation list for editor integration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import Project, all_rules, run_lint

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.lint",
        description="project-specific static analysis: policy/kernel/"
        "oracle/docs/CLI consistency (rules R1-R4 and R6, see docs/STATIC_ANALYSIS.md)",
    )
    p.add_argument(
        "--root", default=None,
        help="repository root to analyze (default: auto-detected)",
    )
    p.add_argument(
        "--rules", default=None, metavar="R1,R2,...",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    p.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="violation output format (default: text)",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:24s} {rule.summary}")
        return 0
    selected: Optional[List[str]] = None
    if args.rules:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {rule.id for rule in all_rules()}
        unknown = [r for r in selected if r not in known]
        if unknown:
            parser.error(
                f"unknown rule id(s) {', '.join(unknown)} "
                f"(registered: {', '.join(sorted(known))})"
            )
    project = Project(root=Path(args.root)) if args.root else Project()
    report = run_lint(project, rules=selected)
    if args.format == "json":
        print(json.dumps(
            [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "message": v.message}
                for v in report.violations
            ],
            indent=2,
        ))
    else:
        print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
