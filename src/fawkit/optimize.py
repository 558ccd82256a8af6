"""Scalar maximization helper: a coarse grid scan, then zoomed rescans of the winner."""

from __future__ import annotations

import math

import numpy as np

ZOOM_CELLS = 32  # cells per rescan of the winner's bracket; each rescan narrows it 16x


def grid_golden_max(f, lo: float, hi: float, n_grid: int = 1000,
                    xtol: float = 1e-9, vectorized: bool = True):
    """Scan n_grid cells of [lo, hi], then rescan the winner's two neighbouring
    cells with ZOOM_CELLS cells until that bracket is at most xtol wide.

    Returns the best ``(x, f(x))`` scanned, so never worse than the coarse
    winner; an end is returned exactly. xtol is floored at 4 ulps of the
    ends, below which rounding stops the bracket from narrowing. With
    ``vectorized`` each scan is one call, so f must accept ndarrays;
    otherwise f is called per point.
    """
    if hi <= lo:
        return lo, float(f(lo))
    xtol = max(xtol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    best_x, best_y, cells = lo, -np.inf, n_grid
    while True:
        xs = np.linspace(lo, hi, cells + 1)
        ys = np.asarray(f(xs) if vectorized else [f(x) for x in xs], dtype=float)
        i = int(np.argmax(ys))
        if ys[i] > best_y:
            best_x, best_y = float(xs[i]), float(ys[i])
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, cells)]
        if hi - lo <= xtol:
            return best_x, best_y
        cells = ZOOM_CELLS
