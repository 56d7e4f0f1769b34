"""Derived fields of the LBM state (the analysis variables of §IV-B)."""

from __future__ import annotations

import numpy as np


def vorticity(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Discrete curl ``d(uy)/dx - d(ux)/dy`` via central differences.

    The paper renders this ("rotational velocity was chosen as the variable
    of interest").  Edges use one-sided differences so the output matches
    the input shape.
    """
    if ux.shape != uy.shape or ux.ndim != 2:
        raise ValueError("ux and uy must be equal-shape 2-D fields")
    duy_dx = np.gradient(uy, axis=1)
    dux_dy = np.gradient(ux, axis=0)
    return duy_dx - dux_dy

