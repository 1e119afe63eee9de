#!/usr/bin/env python
"""Wrapper so the analyzer runs without PYTHONPATH gymnastics::

    python tools/run_lint.py [--rules R1,R6] [--list-rules] [--format json]

Equivalent to ``PYTHONPATH=src python -m repro.lint`` from the repo root;
all flags are forwarded (see :mod:`repro.lint.cli`).  Exit status: 0 clean,
1 violations, 2 usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.lint.cli import main  # noqa: E402 — needs src on sys.path first

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
