"""Benchmark harnesses: one module per paper table/figure.

Each module exposes a data API (``*_rows`` / ``measure_*``) used by the
``benchmarks/bench_*.py`` checks and tests, plus a ``report()`` that prints the
reproduced table side-by-side with the paper's numbers.
"""

from . import e1, fig3, fig45, paperdata, table2, table3, table4
from .report import format_table, pct, relative_error

__all__ = [
    "e1",
    "fig3",
    "fig45",
    "format_table",
    "paperdata",
    "pct",
    "relative_error",
    "table2",
    "table3",
    "table4",
]
