"""The documentation is executable: broken links and stale snippets fail.

``tools/check_docs.py`` is the single source of truth (CI runs it as its
own job); this wrapper keeps it in the tier-1 suite so a doc regression
shows up in any local ``pytest`` run too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_docs_links_and_snippets():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"docs check failed:\n{proc.stdout}\n{proc.stderr}"


def test_required_doc_pages_exist_and_are_linked():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for page in ("docs/ARCHITECTURE.md", "docs/REPLAY.md",
                 "docs/STATIC_ANALYSIS.md"):
        assert (ROOT / page).exists(), page
        assert page in readme, f"README does not link {page}"


def test_module_docstring_doctests():
    """The docstring examples of the lint package are runnable, not
    decorative."""
    import doctest

    import repro.lint

    result = doctest.testmod(repro.lint, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0, "repro.lint: no doctests found"
    assert result.failed == 0, f"repro.lint: {result.failed} failed"


def test_static_analysis_doc_has_runnable_lint_invocation():
    # check_docs executes docs/*.md fences; this pins that the static-
    # analysis page keeps a live run_lint() example among them
    doc = (ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    assert ">>> report = run_lint()" in doc
    assert "```python\n" in doc
