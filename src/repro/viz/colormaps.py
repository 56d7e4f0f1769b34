"""Colormaps for the analysis applications.

The paper's LBM use case renders vorticity "using a blue-white-red
colormap" (§IV-B); the tooth DVR figure uses a dark-to-warm ramp (Figure 2
right).  Colormaps are piecewise-linear in RGB over control points on
[0, 1] and vectorise over arbitrary array shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Colormap:
    """Piecewise-linear RGB colormap over [0, 1]."""

    name: str
    points: tuple[tuple[float, tuple[float, float, float]], ...]

    def __post_init__(self) -> None:
        values = [v for v, _ in self.points]
        if len(values) < 2:
            raise ValueError("a colormap needs at least two control points")
        if values != sorted(values) or values[0] != 0.0 or values[-1] != 1.0:
            raise ValueError("control points must ascend from 0.0 to 1.0")
        # Row j >= 1: segment from point j - 1 (of duplicates, the last), np.interp's
        # slope (0 past the last point, so 1.0 answers its colour).  Row 0: NaN, black.
        x = np.array([0.0] + values)
        fp = np.hstack([np.zeros((3, 1)), np.transpose([c for _, c in self.points])])
        dx, dfp = np.diff(x, append=1.0), np.diff(fp, append=fp[:, -1:])
        slope = np.divide(dfp, dx, out=np.zeros_like(fp), where=dx > 0)
        for name, table in (("_x", x), ("_fp", fp), ("_slope", slope)):
            object.__setattr__(self, name, table)  # frozen: derived state

    def __call__(self, scalars: np.ndarray) -> np.ndarray:
        """Map scalars in [0, 1] to float RGB in [0, 1]; shape ``(*s, 3)``."""
        s = np.clip(np.asarray(scalars, dtype=np.float64), 0.0, 1.0)
        out = np.empty(s.shape + (3,))
        for ch in range(3):
            out[..., ch] = np.interp(s, self._x[1:], self._fp[ch, 1:])
        return out

    def to_uint8(self, scalars: np.ndarray) -> np.ndarray:
        """Map scalars in [0, 1] to uint8 RGB, NaN to black; elsewhere bit for bit
        ``np.round(self(scalars) * 255)``, np.interp's formula segment by segment."""
        s = np.clip(np.asarray(scalars, dtype=np.float64), 0.0, 1.0).reshape(-1)
        row = np.zeros(s.shape, dtype=np.min_scalar_type(self._x.size))
        for x in self._x[1:]:
            row += (s >= x).view(np.uint8)  # NaN is at or above nothing: row 0
        row = row.astype(np.intp)
        np.fmax(s, 0.0, out=s)  # NaN -> 0, so that row 0 gives exactly black
        s -= self._x[row]
        out = np.empty(s.shape + (3,), dtype=np.uint8)
        for ch in range(3):
            value = self._slope[ch][row]
            value *= s
            value += self._fp[ch][row]
            value *= 255.0
            out[:, ch] = np.rint(value, out=value)
        return out.reshape(np.shape(scalars) + (3,))


#: The paper's LBM vorticity map: blue (negative) - white (zero) - red (positive).
BLUE_WHITE_RED = Colormap(
    "blue_white_red",
    (
        (0.0, (0.0, 0.0, 1.0)),
        (0.5, (1.0, 1.0, 1.0)),
        (1.0, (1.0, 0.0, 0.0)),
    ),
)

GRAYSCALE = Colormap("grayscale", ((0.0, (0.0, 0.0, 0.0)), (1.0, (1.0, 1.0, 1.0))))

#: Dark -> blue -> amber -> white ramp in the spirit of Figure 2's tooth map.
TOOTH = Colormap(
    "tooth",
    (
        (0.0, (0.0, 0.0, 0.0)),
        (0.25, (0.10, 0.15, 0.45)),
        (0.55, (0.70, 0.45, 0.15)),
        (0.85, (0.95, 0.85, 0.55)),
        (1.0, (1.0, 1.0, 1.0)),
    ),
)

COLORMAPS = {cmap.name: cmap for cmap in (BLUE_WHITE_RED, GRAYSCALE, TOOTH)}


def normalize(
    field: np.ndarray,
    vmin: float | None = None,
    vmax: float | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """Scale a scalar field to [0, 1].

    ``symmetric=True`` centres zero at 0.5 (vorticity with BLUE_WHITE_RED:
    still fluid renders white, opposite rotations blue/red).

    A range left to the data spans its finite cells (``(0, 0)`` if none); ``±inf``
    go to 0 or 1, NaN stays NaN (`Colormap.to_uint8`: black); zero width: 0.5 if symmetric, else 0.
    """
    data = np.asarray(field)  # widened to float64 by the subtraction below
    if vmin is None or vmax is None:
        lo, hi = data.min(), data.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            finite = data[np.isfinite(data)]
            lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
        vmin, vmax = lo if vmin is None else vmin, hi if vmax is None else vmax
    lo, hi = float(vmin), float(vmax)
    if symmetric:
        hi = max(abs(lo), abs(hi))
        lo = -hi
    if hi <= lo:
        return np.where(np.isnan(data), np.nan, 0.5 if symmetric else 0.0)
    out = np.subtract(data, lo, dtype=np.float64)
    return np.clip(np.divide(out, hi - lo, out=out), 0.0, 1.0, out=out)
