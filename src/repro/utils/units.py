"""Unit constants and human-readable formatting.

The paper mixes decimal and binary conventions (its "MB" figures in Table
III are base-2 mebibytes; its "GB" sizes in Table IV are decimal-ish).  We
keep both and are explicit at every call site.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024**2
GiB = 1024**3

KB = 1000
MB = 1000**2
GB = 1000**3


def gbit_per_s(gbits: float) -> float:
    """Convert a link speed quoted in Gbit/s (e.g. FDR IB '56 Gbps') to bytes/s."""
    return gbits * 1e9 / 8.0


def fmt_bytes(nbytes: int | float) -> str:
    """Format a byte count with a binary suffix, e.g. ``fmt_bytes(3<<20) == '3.00 MiB'``."""
    value = float(nbytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.2f} {suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")
