"""Warped phase transformation and recovery.

The warp w(t, x, p) = exp(-p) u(t, x) trades dissipation for transport in an
auxiliary periodic variable p.  Initial data is extended to p < 0 with a
steeper decay rate so the extension stays compactly supported, the wave in
each spatial Fourier mode then travels left with the mode's decay speed, and
u is read back either by integrating w over p > 0 or by point evaluation
exp(p*) w(., p*) at a node p* > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .grids import Grid, PGrid, to_modes

__all__ = [
    "WarpedState",
    "IntegrateP",
    "PointP",
    "RecoveryMethod",
    "extend_initial",
    "recover",
    "estimate_domain",
    "dominant_mode",
    "dominant_speed",
    "containment_ratio",
]


@dataclass(frozen=True)
class WarpedState:
    """State vector on the (u-register (x) p-lattice) space at time t.

    ``values`` is flat with the u index slowest and the p index fastest;
    ``grid`` is set for spatial models and None for abstract ODE registers.
    """

    values: np.ndarray
    pgrid: PGrid
    t: float = 0.0
    grid: Optional[Grid] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size % self.pgrid.points != 0:
            raise ValueError("values must be flat with length divisible by the p count")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @property
    def u_dim(self) -> int:
        return self.values.size // self.pgrid.points

    @property
    def matrix(self) -> np.ndarray:
        """View shaped (u_dim, p_points)."""
        return self.values.reshape(self.u_dim, self.pgrid.points)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class IntegrateP:
    """Recover u = integral of w over p > 0 (composite trapezoid)."""


@dataclass(frozen=True)
class PointP:
    """Recover u = exp(p*) w(., p*) at an on-grid node p* > 0.

    ``p_star = None`` picks the default: the third node above p = 0, close
    enough to zero that exp(p*) does not amplify rounding.
    """

    p_star: Optional[float] = None


RecoveryMethod = Union[IntegrateP, PointP]


def extend_initial(u0: np.ndarray, pgrid: PGrid, grid: Optional[Grid] = None) -> WarpedState:
    """Tensor-product initial state u0 (x) exp(-alpha(p)|p|)."""
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if grid is not None and u0.size != grid.size:
        raise ValueError(f"u0 has {u0.size} entries, grid has {grid.size} sites")
    values = np.outer(u0, pgrid.warp_profile()).reshape(-1)
    return WarpedState(values=values, pgrid=pgrid, t=0.0, grid=grid)


def default_point_index(pgrid: PGrid) -> int:
    """Third node strictly above p = 0."""
    pos = pgrid.positive_indices()
    if len(pos) < 3:
        raise ValueError("p-grid has fewer than three nodes above zero")
    return int(pos[2])


def recovery_weights(pgrid: PGrid, method: RecoveryMethod) -> np.ndarray:
    """Linear functional over the p axis realising the recovery."""
    weights = np.zeros(pgrid.points)
    if isinstance(method, IntegrateP):
        p = pgrid.axis()
        weights[p > pgrid.dp * 1e-12] = pgrid.dp
        on_zero = np.abs(p) <= pgrid.dp * 1e-12
        weights[on_zero] = pgrid.dp / 2.0
    elif isinstance(method, PointP):
        if method.p_star is None:
            j = default_point_index(pgrid)
        else:
            if method.p_star <= 0:
                raise ValueError("p_star must be > 0")
            j = pgrid.index_of(method.p_star)
            if pgrid.axis()[j] <= 0:
                raise ValueError("p_star must be > 0")
        weights[j] = np.exp(pgrid.axis()[j])
    else:
        raise TypeError(f"unknown recovery method {method!r}")
    return weights


def recover(w: WarpedState, method: RecoveryMethod) -> np.ndarray:
    """Reconstruct the u-register vector from a warped state."""
    return w.matrix @ recovery_weights(w.pgrid, method)


def estimate_domain(t_final: float, s_max: float, left_support: float) -> float:
    """Left edge L = L0 - T*s_max so the fastest left-moving wave stays inside."""
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if s_max <= 0:
        raise ValueError("s_max must be > 0")
    if left_support >= 0:
        raise ValueError("left_support must be < 0")
    return left_support - t_final * s_max


def dominant_mode(u0: np.ndarray, grid: Grid, threshold: float = 1e-8) -> int:
    """Flat index of the fastest x-mode whose amplitude exceeds threshold * max.

    The speed is sum_l mu_l^2; ties go to the larger sum_l mu_l.
    """
    u0 = np.asarray(u0, dtype=complex).reshape(grid.shape)
    amp = np.abs(to_modes(u0, axis=tuple(range(grid.dims)))).reshape(-1)
    if amp.max() == 0:
        raise ValueError("initial data is identically zero")
    speed, tie = grid.mu_sum(2).reshape(-1), grid.mu_sum(1).reshape(-1)
    candidates = np.nonzero(amp > threshold * amp.max())[0]
    return int(max(candidates, key=lambda i: (speed[i], tie[i])))


def dominant_speed(u0: np.ndarray, grid: Grid, threshold: float = 1e-8) -> float:
    """Largest mu^2 among x-modes whose amplitude exceeds threshold * max.

    Smooth data has rapidly decaying coefficients, so only O(1) modes carry
    mass and the fastest relevant transport speed stays O(1).
    """
    return float(grid.mu_sum(2).reshape(-1)[dominant_mode(u0, grid, threshold)])


def containment_ratio(w: WarpedState, cells: int = 2, amp_threshold: float = 1e-12) -> float:
    """Worst-case fraction of a mode's |what| mass on the leftmost p cells.

    Checked mode-wise over the u register (x-modes for spatial states), so a
    single fast mode reaching the boundary is not washed out by the rest.
    """
    mat = w.matrix
    if w.grid is not None:
        modes = mat.reshape(w.grid.shape + (w.pgrid.points,))
        modes = to_modes(modes, axis=tuple(range(w.grid.dims))).reshape(-1, w.pgrid.points)
    else:
        modes = mat
    amp = np.abs(modes)
    total = amp.sum(axis=1)
    keep = total > amp_threshold
    if not np.any(keep):
        return 0.0
    left = amp[keep, :cells].sum(axis=1)
    return float((left / total[keep]).max())
