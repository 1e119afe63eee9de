"""Benchmark-suite configuration.

Each bench target wraps one experiment driver from
:mod:`repro.analysis.experiments`, times it with pytest-benchmark, prints the
rows of that experiment (the "Experiments" table in the top-level README.md
lists every driver), and asserts the paper-predicted shape so a regression
in either performance or behavior fails the suite.
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
