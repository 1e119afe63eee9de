"""Lint infrastructure: the project model, rule registry, and runner.

A lint *rule* is a function from a :class:`Project` (a read-only view of
the source tree — real files, or an in-memory overlay for tests) to
:class:`Violation` instances.  Rules register themselves with
:func:`register_rule` under a stable id (``R1``..``R6``); the runner
(:func:`run_lint`) executes any subset, filters violations through the
suppression comments, and returns a :class:`LintReport`.

Suppression syntax (checked on the violation's line *and* the line above,
so a comment can sit on its own line)::

    some_flagged_code()  # repro-lint: disable=R4
    # repro-lint: disable=R3,R6
    other_flagged_code()

and file-wide, anywhere in the file::

    # repro-lint: disable-file=R4

Every rule, with rationale and an example violation, is documented in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

__all__ = [
    "Violation",
    "Rule",
    "Project",
    "LintReport",
    "register_rule",
    "get_rule",
    "all_rules",
    "run_lint",
]


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored at a repo-relative ``path:line``."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable id, short name, one-line summary, check."""

    id: str
    name: str
    summary: str
    check: Callable[["Project"], Iterable[Violation]]


_RULES: Dict[str, Rule] = {}


def register_rule(
    rule_id: str, name: str, summary: str
) -> Callable[[Callable[["Project"], Iterable[Violation]]], Callable]:
    """Decorator registering ``check`` as rule ``rule_id``."""

    def deco(check: Callable[["Project"], Iterable[Violation]]) -> Callable:
        _RULES[rule_id] = Rule(id=rule_id, name=name, summary=summary, check=check)
        return check

    return deco


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; registered: {sorted(_RULES)}"
        ) from None


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in id order."""
    return tuple(_RULES[k] for k in sorted(_RULES))


def _default_root() -> Path:
    """The repository root: the ancestor of this file holding ``src/repro``
    (source checkout), falling back to the current working directory."""
    here = Path(__file__).resolve()
    candidates = list(here.parents[3:4]) + [Path.cwd()]
    for cand in candidates:
        if (cand / "src" / "repro").is_dir():
            return cand
    return Path.cwd()


class Project:
    """Read-only view of the tree the rules analyze, with parse caching.

    Real mode (``Project()`` or ``Project(root=...)``) reads from disk.
    Synthetic mode (``Project(files={"src/repro/cli.py": "..."})``) sees
    *only* the given relative-path → source mapping — how ``tests/
    test_lint.py`` exercises each rule on hand-built violations without
    touching the live tree.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        files: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.root = Path(root) if root is not None else _default_root()
        self._files: Optional[Dict[str, str]] = (
            {str(k).replace("\\", "/"): v for k, v in files.items()}
            if files is not None
            else None
        )
        self._trees: Dict[str, ast.Module] = {}
        self._suppress: Dict[str, Tuple[Set[str], Dict[int, Set[str]]]] = {}

    # -- file access -----------------------------------------------------
    def exists(self, rel: str) -> bool:
        if self._files is not None:
            return rel in self._files
        return (self.root / rel).is_file()

    def read(self, rel: str) -> str:
        """Source text of ``rel``; raises :class:`FileNotFoundError`."""
        if self._files is not None:
            try:
                return self._files[rel]
            except KeyError:
                raise FileNotFoundError(rel) from None
        return (self.root / rel).read_text(encoding="utf-8")

    def tree(self, rel: str) -> ast.Module:
        """Parsed AST of ``rel`` (cached); raises ``SyntaxError`` on bad
        source and :class:`FileNotFoundError` on a missing file."""
        cached = self._trees.get(rel)
        if cached is None:
            cached = self._trees[rel] = ast.parse(self.read(rel), filename=rel)
        return cached

    def glob(self, pattern: str) -> List[str]:
        """Sorted repo-relative paths matching a glob like
        ``src/repro/cache/*.py``."""
        if self._files is not None:
            return sorted(fnmatch.filter(self._files, pattern))
        return sorted(
            str(p.relative_to(self.root)).replace("\\", "/")
            for p in self.root.glob(pattern)
            if p.is_file()
        )

    # -- suppression comments -------------------------------------------
    _LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
    _FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")

    def _suppressions(self, rel: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
        cached = self._suppress.get(rel)
        if cached is not None:
            return cached
        file_wide: Set[str] = set()
        by_line: Dict[int, Set[str]] = {}
        try:
            text = self.read(rel)
        except (FileNotFoundError, OSError, UnicodeDecodeError):
            text = ""
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = self._FILE_RE.search(line)
            if m:
                file_wide |= {t.strip() for t in m.group(1).split(",") if t.strip()}
            m = self._LINE_RE.search(line)
            if m:
                ids = {t.strip() for t in m.group(1).split(",") if t.strip()}
                by_line.setdefault(lineno, set()).update(ids)
        self._suppress[rel] = (file_wide, by_line)
        return file_wide, by_line

    def is_suppressed(self, violation: Violation) -> bool:
        """True when a suppression comment covers this violation: on its
        file (``disable-file=``), its line, or the line directly above."""
        file_wide, by_line = self._suppressions(violation.path)
        if violation.rule in file_wide:
            return True
        for lineno in (violation.line, violation.line - 1):
            if violation.rule in by_line.get(lineno, set()):
                return True
        return False


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` pass."""

    violations: List[Violation] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [str(v) for v in self.violations]
        note = f" ({self.suppressed} suppressed)" if self.suppressed else ""
        if self.violations:
            lines.append(
                f"repro.lint: FAIL — {len(self.violations)} violation(s) "
                f"across rules {', '.join(self.rules_run)}{note}"
            )
        else:
            lines.append(
                f"repro.lint: ok — rules {', '.join(self.rules_run)} clean{note}"
            )
        return "\n".join(lines)


def run_lint(
    project: Optional[Project] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run ``rules`` (default: all registered) over ``project``.

    Violations are sorted by (path, line, rule) and filtered through the
    suppression comments; a rule that crashes is itself reported as a
    violation rather than aborting the pass.
    """
    # rule modules self-register on import; make sure they are loaded even
    # when callers import repro.lint.core directly
    from repro.lint import rules as _rules_module  # noqa: F401

    project = project if project is not None else Project()
    ids = tuple(rules) if rules is not None else tuple(r.id for r in all_rules())
    found: List[Violation] = []
    for rule_id in ids:
        rule = get_rule(rule_id)
        try:
            found.extend(rule.check(project))
        except Exception as exc:  # noqa: BLE001 — a broken rule is a finding
            found.append(
                Violation(
                    rule=rule.id,
                    path="<repro.lint>",
                    line=0,
                    message=f"rule {rule.id} ({rule.name}) crashed: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
    kept = [v for v in found if not project.is_suppressed(v)]
    kept.sort(key=lambda v: (v.path, v.line, v.rule, v.message))
    return LintReport(
        violations=kept, rules_run=ids, suppressed=len(found) - len(kept)
    )
