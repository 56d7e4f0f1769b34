"""Consumer layouts: what one viewer asks the serving hub to redistribute.

A layout names a rectangular region of interest inside the simulation
domain, a mip level (power-of-two subsampling for small screens), and a
consumer rank count ``parts`` — the hub satisfies each part with its own
DDR mapping over the producer slabs, so a layout with ``parts=4`` exercises
exactly the redistribution a real 4-rank consumer application would run.

Layouts canonicalize: out-of-range requests clamp to the domain, the mip
level clamps so at least one pixel survives, and ``parts`` clamps to what
the ROI can be split into.  Canonical layouts are frozen and hashable —
:meth:`ConsumerLayout.canonical_key` is the producer-side mapping-cache key,
so thousands of viewers asking for the same (clamped) view share one
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.box import Box
from ..volren.decompose import split_extent

__all__ = ["ConsumerLayout"]


@dataclass(frozen=True)
class ConsumerLayout:
    """One viewer's view: ROI crop + mip level + consumer rank count.

    ``roi`` is a 2-D :class:`~repro.core.box.Box` in paper axis order
    ``(x, y)``; build instances through :meth:`make` or :meth:`from_query`
    so they arrive canonicalized.
    """

    roi: Box
    mip: int = 0
    parts: int = 1

    def __post_init__(self) -> None:
        if len(self.roi.dims) != 2:
            raise ValueError(f"layouts are 2-D, got roi {self.roi}")
        if self.roi.is_empty():
            raise ValueError(f"empty roi {self.roi}")
        if self.mip < 0:
            raise ValueError(f"mip must be >= 0, got {self.mip}")
        if not (1 <= self.parts <= self.roi.dims[1]):
            raise ValueError(
                f"parts must be in [1, {self.roi.dims[1]}], got {self.parts}"
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def make(
        cls,
        nx: int,
        ny: int,
        x: int = 0,
        y: int = 0,
        w: Optional[int] = None,
        h: Optional[int] = None,
        mip: int = 0,
        parts: int = 1,
    ) -> "ConsumerLayout":
        """A canonical layout clamped to the ``nx`` x ``ny`` domain."""
        w = nx if w is None else w
        h = ny if h is None else h
        roi = Box((int(x), int(y)), (max(1, int(w)), max(1, int(h)))).intersect(
            Box((0, 0), (nx, ny))
        )
        if roi is None:
            raise ValueError(
                f"roi ({x},{y})+({w}x{h}) lies outside the {nx}x{ny} domain"
            )
        # Clamp mip so the subsampled frame keeps at least one pixel, and
        # parts so every consumer rank receives a non-empty row band.
        mip = min(max(int(mip), 0), max(min(roi.dims) - 1, 0).bit_length())
        while (1 << mip) > min(roi.dims):
            mip -= 1
        parts = min(max(int(parts), 1), roi.dims[1])
        return cls(roi=roi, mip=mip, parts=parts)

    @classmethod
    def from_query(
        cls, params: Mapping[str, str], nx: int, ny: int
    ) -> "ConsumerLayout":
        """Parse an edge query string (``x``/``y``/``w``/``h``/``mip``/
        ``parts``) into a canonical layout; absent keys default to the full
        domain at mip 0 for a single consumer rank."""

        def _int(name: str, default: int) -> int:
            raw = params.get(name)
            if raw in (None, ""):
                return default
            try:
                return int(raw)
            except ValueError as exc:
                raise ValueError(f"query parameter {name}={raw!r} is not an integer") from exc

        return cls.make(
            nx,
            ny,
            x=_int("x", 0),
            y=_int("y", 0),
            w=_int("w", nx),
            h=_int("h", ny),
            mip=_int("mip", 0),
            parts=_int("parts", 1),
        )

    # -- derived geometry ----------------------------------------------------

    def canonical_key(self) -> tuple:
        """Hashable identity: equal keys share one set of DDR mappings."""
        return (self.roi.offset, self.roi.dims, self.mip, self.parts)

    def part_boxes(self) -> list[Box]:
        """The per-consumer-rank need boxes: the ROI split into row bands
        (the same block distribution the analysis pipeline uses)."""
        x0, y0 = self.roi.offset
        w = self.roi.dims[0]
        return [
            Box((x0, y0 + offset), (w, size))
            for offset, size in split_extent(self.roi.dims[1], self.parts)
        ]

    @property
    def step(self) -> int:
        return 1 << self.mip

    def describe(self) -> str:
        x0, y0 = self.roi.offset
        w, h = self.roi.dims
        return f"roi=({x0},{y0})+{w}x{h} mip={self.mip} parts={self.parts}"
