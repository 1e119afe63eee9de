"""Benchmark-suite configuration.

``bench_trace_engine.py`` and ``bench_placement.py`` print their measured
rows through the :func:`show` fixture; each records its summary in a
``BENCH_*.json`` file at the repo root, which ``check_bench_trends.py``
gates.  ``bench_components.py`` times the substrates with
pytest-benchmark.  The paper-shape checks of every experiment driver live
in the tier-1 suite (``tests/``).
"""

import pytest


@pytest.fixture
def show():
    """Print a table under the benchmark output (with -s)."""

    def _show(rows, title):
        from repro.analysis.report import rows_to_table

        print()
        print(rows_to_table(rows, title=title))

    return _show
