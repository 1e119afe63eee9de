"""repro.lint — project-specific static analysis for the replay codebase.

The library is a web of parallel implementations that must agree
bit-for-bit: every cache policy has a stepwise oracle, a vectorized replay
kernel, a differential test, a docs section, and a CLI surface; every
experiment has a dispatch, a benchmark, and a README row.  Runtime
differential tests catch *behavioral* drift; this package catches
*structural* drift — a policy named without a kernel, an untyped
hot-path array, an experiment nobody can invoke — statically, at review
time, from the ASTs alone (nothing is imported or executed).

Run it the way CI does::

    python -m repro.lint            # all rules, exit 0 when clean
    python -m repro.lint --list-rules
    python -m repro.lint --rules R1,R6

or programmatically (the :class:`Project` ``files=`` overlay is how the
unit tests feed each rule synthetic violations)::

    >>> from repro.lint import Project, run_lint
    >>> report = run_lint(Project(files={
    ...     "src/repro/runtime/replay.py":
    ...         "from repro.runtime.executor import Executor\\n",
    ...     "src/repro/runtime/compiled.py": "",
    ... }), rules=["R3"])
    >>> print(report.violations[0])
    src/repro/runtime/replay.py:1: R3: hot-path module imports stepwise \
engine 'Executor' from repro.runtime.executor: the vectorized path must \
not depend on its oracle

Rules (R1–R4, R6), rationale, and the suppression syntax
(``# repro-lint: disable=R4``) are documented in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from repro.lint.core import (
    LintReport,
    Project,
    Rule,
    Violation,
    all_rules,
    get_rule,
    register_rule,
    run_lint,
)
from repro.lint import rules as _rules  # noqa: F401 — rule registration

__all__ = [
    "LintReport",
    "Project",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_lint",
    "main",
]

from repro.lint.cli import main
