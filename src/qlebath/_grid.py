"""Time-grid checks shared by the motion, diffusion, bath and config code."""

import numpy as np

from .errors import GridError


def check_time_grid(t_grid) -> np.ndarray:
    """t_grid as floats; GridError unless 1-D, >= 2 points, finite, increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GridError("time grid must be 1-D with at least two points")
    if not np.all(np.isfinite(t)):
        raise GridError("time grid must be finite")
    if not np.all(np.diff(t) > 0):
        raise GridError("time grid must be strictly increasing")
    return t


def is_uniform_grid(t) -> bool:
    """True when the steps of t agree to rtol 1e-9, as a binary dump needs."""
    dts = np.diff(np.asarray(t, dtype=float))
    return bool(np.allclose(dts, dts[:1], rtol=1.0e-9, atol=0.0))
