"""Warped phase transformation and recovery.

The warp w(t, x, p) = exp(-p) u(t, x) trades dissipation for transport in an
auxiliary periodic variable p.  Initial data is extended to p < 0 with a
steeper decay rate so the extension stays compactly supported, the wave in
each spatial Fourier mode then travels left with the mode's decay speed, and
u is read back either by integrating w over p > 0 or by point evaluation
exp(p*) w(., p*) at a node p* > 0.

A warped state has one of three representations, with the same readouts:
``norm()``, ``contract_p(weights)`` (one linear functional over p applied
to every u entry, which is what a recovery is) and ``mode_profile(l)`` (x
mode l over the p nodes), plus the flat samples ``values`` (u index
slowest, p fastest) and their ``matrix`` view, from which
``WarpedState`` and ``ProductState`` read their mode profiles.  A state
carries its p-grid and lattice, which every engine reads from the initial
state, and no time: an engine returns one state per snapshot, in the order
of its ``Trajectory.times``, so a run reads each snapshot through these
readouts whatever the route.

* ``WarpedState`` holds the p-mode coefficients of every u entry: all P,
  or for a conjugate-symmetric spectrum only the P/2 + 1 modes eta <= 0.
  Its norm and recoveries read them directly; its samples are built only
  on request.  The split step, the per-frequency blocks without a shared
  eigenbasis and the Boltzmann march return these, none of them
  transformed back over p.
* ``ProductState`` is every warped model's initial datum u0 (x) g(p),
  kept as its two factors (``extend_initial``; the sin(p) convection
  warp); no engine returns one.  Its samples are the outer product, built
  on request, and ``mode_frame(basis)`` takes it into the factored mode
  frame: one x transform of u0 (or ``basis^H u0`` for a dense basis) and
  one p transform of g.
* ``ModeFrameState`` holds a state as the factors of its coefficients
  over (register mode, p mode): amplitudes, the p transform of the
  profile and a small table of transport rows, one per transport speed.
  ``evolvers.evolve_mode_frame`` leaves every snapshot so: on the exact
  spectral route (heat, Black-Scholes, convection, on the x Fourier
  basis), the shared-eigenbasis branch of ``evolvers.evolve_mode_blocks``
  (Fokker-Planck, heat with a varying potential, linear Liouville,
  commuting ``ode`` systems) and the
  upwind march (one row per eigenvalue of its transport matrix), both on
  a dense basis.  Every readout uses only the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .grids import Grid, PGrid, _fftn, _ifftn, from_modes, to_modes, unflatten_index

__all__ = [
    "WarpedState",
    "ProductState",
    "ModeFrameState",
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


def _x_mode(values: np.ndarray, l: int, grid: Grid) -> np.ndarray:
    """Coefficient of the monotone x mode with flat index l, taken over the
    leading ``grid.dims`` axes of ``values``.

    Row l of Phi^-1 = Phi^H / M is contracted along each x axis in turn,
    Phi[j, l] = exp(2 pi i j (l - M/2) / M) (``grids.fourier_matrix``).
    """
    m = grid.points
    for k in unflatten_index(l, m, grid.dims):
        row = np.exp(-2j * np.pi * ((np.arange(m) * (k - m // 2)) % m) / m) / m
        values = np.tensordot(row, values, axes=(0, 0))
    return values


class _Matrix:
    """The flat samples of a state shaped (u entries, p nodes), and the
    mode profile read from them."""

    @property
    def matrix(self) -> np.ndarray:
        return self.values.reshape(-1, self.pgrid.points)

    def mode_profile(self, l: int) -> np.ndarray:
        """Coefficient of x mode l at every p node."""
        return _x_mode(self.matrix.reshape(self.grid.shape + (self.pgrid.points,)), l, self.grid)


@dataclass(frozen=True)
class WarpedState(_Matrix):
    """State on the (u-register (x) p-lattice) space, held as its p-mode
    coefficients: ``modes`` has one row per u entry and one column per p
    mode in the monotone order of ``grids.to_modes``, either all P of them
    or, for a spectrum with c[., P/2 + k] = conj(c[., P/2 - k]), the
    P/2 + 1 modes eta <= 0 alone; the width tells which.  ``grid`` is set
    for spatial models and None for abstract ODE registers.

    The norm and the recoveries read the mirrored columns through a view of
    their partners; the samples ``values`` are built on each request (the
    mirror filled in, then one inverse p transform) and not kept.
    """

    modes: np.ndarray
    pgrid: PGrid
    grid: Optional[Grid] = None

    def __post_init__(self):
        modes = np.ascontiguousarray(self.modes, dtype=complex)
        if modes.ndim != 2 or modes.shape[1] not in (self.pgrid.points, self.pgrid.points // 2 + 1):
            raise ValueError("modes must be shaped (u entries, P) or (u entries, P/2 + 1)")
        object.__setattr__(self, "modes", modes)
        modes.setflags(write=False)

    @property
    def _mirrored(self) -> bool:
        return self.modes.shape[1] < self.pgrid.points

    @property
    def values(self) -> np.ndarray:
        half, width = self.pgrid.points // 2, self.modes.shape[1]
        full = np.empty((len(self.modes), self.pgrid.points), dtype=complex)
        full[:, :width] = self.modes
        if self._mirrored:
            np.conjugate(self.modes[:, half - 1 : 0 : -1], out=full[:, width:])
        return from_modes(full, axis=-1, out=full).reshape(-1)

    def norm(self) -> float:
        """Parseval: the samples carry P times the squares of the modes,
        those of the mirrored columns' partners twice.  The squares are
        summed per column over the real view, with no array of them."""
        flat = self.modes.view(float)
        squares = np.einsum("ij,ij->j", flat, flat)
        squares = squares[0::2] + squares[1::2]
        total = squares.sum()
        if self._mirrored:
            total += squares[1 : self.pgrid.points // 2].sum()
        return float(math.sqrt(self.pgrid.points * total))

    def contract_p(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w(., p_j) weights_j: w(., p_j) = sum_k c[., k] (-1)^j
        e^{2 pi i j k / P} (``grids.from_modes``), so the weights enter as
        kappa_k = sum_j weights_j (-1)^j e^{2 pi i j k / P}, one P-point
        transform in native order shifted to the monotone one; the mirrored
        column P - k adds conj(c[., k]) kappa_{P-k}, read from column k."""
        half = self.pgrid.points // 2
        kappa = np.fft.fftshift(_ifftn(np.asarray(weights, dtype=complex), (0,)))
        out = self.modes @ kappa[: self.modes.shape[1]]
        if self._mirrored:
            out += (self.modes[:, 1:half] @ kappa[:half:-1].conj()).conj()
        return out


@dataclass(frozen=True, eq=False)
class ProductState(_Matrix):
    """The warped state u (x) profile(p), kept as its two factors."""

    u: np.ndarray
    profile: np.ndarray
    pgrid: PGrid
    grid: Optional[Grid] = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(-1)
        if self.grid is not None and u.size != self.grid.size:
            raise ValueError(f"u0 has {u.size} entries, grid has {self.grid.size} sites")
        profile = np.asarray(self.profile)
        if profile.shape != (self.pgrid.points,):
            raise ValueError("the p profile needs one entry per p node")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "profile", profile)

    @cached_property
    def values(self) -> np.ndarray:
        values = np.outer(self.u, self.profile).reshape(-1)
        values.setflags(write=False)
        return values

    def norm(self) -> float:
        return float(np.linalg.norm(self.u) * np.linalg.norm(self.profile))

    def contract_p(self, weights: np.ndarray) -> np.ndarray:
        """u times profile . weights."""
        return self.u * (self.profile @ weights)

    def mode_frame(self, basis: Optional[np.ndarray] = None) -> ModeFrameState:
        """The same state in the factored mode frame, which has no transport
        yet: amplitudes ``basis^H u`` over a dense unitary basis, or one x
        transform of u without one, times one p transform of the profile."""
        if basis is None:
            amplitudes = _fftn(self.u.reshape(self.grid.shape), tuple(range(self.grid.dims)))
        else:
            amplitudes = basis.conj().T @ self.u
        return ModeFrameState(
            amplitudes=amplitudes.reshape(-1),
            p_modes=_fftn(self.profile, (0,)),
            coarse=np.ones((1, 1)),
            fine=np.ones((1, self.pgrid.points)),
            rows=np.zeros(self.u.size, dtype=np.intp),
            pgrid=self.pgrid,
            grid=self.grid,
            basis=basis,
        )


def _contract_rows(coarse: np.ndarray, fine: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k R[rho, k] v_k for every row rho of the table
    R[rho, b q + r] = coarse[rho, q] fine[rho, r]: one (rows x b) @ (b x P/b)
    product, then the coarse factors."""
    return ((fine @ v.reshape(coarse.shape[1], -1).T) * coarse).sum(axis=1)


@dataclass(frozen=True, eq=False)
class ModeFrameState(_Matrix):
    """Warped state held as the factors of its coefficients over
    (register mode i, p mode k):

        c[i, k] = amplitudes[i] * p_modes[k] * R[rows[i], k],

    where ``p_modes`` is the forward-normalised p transform of the profile
    (native FFT order) and R is a small table of transport rows, one per
    distinct transport speed, stored as R[rho, b q + r] = coarse[rho, q] *
    fine[rho, r].  The register modes are those of ``basis``, a dense
    unitary whose columns they weight, or, when ``basis`` is None, the x
    modes of ``grid`` in native FFT order, forward-normalised (flat, C
    order).

    Every readout comes from the factors: the norm by Parseval, summed over
    the rows; a recovery as the table contracted with the p transform of
    the weights, one entry per row, then one change of register basis; a
    mode profile as one combination of rows.  ``coeffs`` (shaped
    ``grid.shape + (P,)`` on the x basis, ``(n, P)`` on a dense one) and
    the samples ``values`` are built only on request.
    """

    amplitudes: np.ndarray
    p_modes: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    rows: np.ndarray
    pgrid: PGrid
    grid: Optional[Grid] = None
    basis: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.grid.size if self.basis is None else self.basis.shape[1]
        if self.amplitudes.shape != (n,) or self.rows.shape != (n,):
            raise ValueError("amplitudes and row indices need one entry per register mode")
        table = (len(self.coarse), self.coarse.shape[1] * self.fine.shape[1])
        if self.p_modes.shape != (self.pgrid.points,) or table != (len(self.fine), self.pgrid.points):
            raise ValueError("the p factors need one entry per p mode")

    def table(self) -> np.ndarray:
        """The transport rows R, one per speed over the p modes."""
        return (self.coarse[:, :, None] * self.fine[:, None, :]).reshape(len(self.coarse), -1)

    @cached_property
    def coeffs(self) -> np.ndarray:
        coeffs = self.amplitudes[:, None] * self.p_modes * self.table()[self.rows]
        shape = self.grid.shape if self.basis is None else (self.amplitudes.size,)
        return coeffs.reshape(shape + (self.pgrid.points,))

    @cached_property
    def values(self) -> np.ndarray:
        if self.basis is None:
            values = _ifftn(self.coeffs, tuple(range(self.coeffs.ndim)))
        else:
            values = self.basis @ _ifftn(self.coeffs, (1,))
        values = values.reshape(-1)
        values.setflags(write=False)
        return values

    def _to_register(self, modes: np.ndarray) -> np.ndarray:
        """One vector over the register modes, back to the register's samples."""
        if self.basis is not None:
            return self.basis @ modes
        return _ifftn(modes.reshape(self.grid.shape), tuple(range(self.grid.dims))).reshape(-1)

    def norm(self) -> float:
        """Parseval: the sum of |c|^2 is that of |a_i|^2 over each row, times
        that of |p_modes|^2 |R|^2 over the row; the samples carry a factor P,
        and M^d more on the forward-normalised x basis."""
        per_row = _contract_rows(
            np.abs(self.coarse) ** 2, np.abs(self.fine) ** 2, np.abs(self.p_modes) ** 2
        )
        mass = np.bincount(self.rows, np.abs(self.amplitudes) ** 2, minlength=len(per_row))
        scale = self.pgrid.points * (self.amplitudes.size if self.basis is None else 1)
        return float(math.sqrt(scale * (mass @ per_row)))

    def contract_p(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w(., p_j) weights_j: w(., p_j) = sum_k c[., k] e^{2 pi i j k / P},
        so the weights enter as kappa_k = sum_j weights_j e^{2 pi i j k / P}
        (one p-sized transform), each row of the table is contracted with
        p_modes * kappa, and each register mode takes its row's entry."""
        kappa = _ifftn(np.asarray(weights, dtype=complex), (0,))
        per_row = _contract_rows(self.coarse, self.fine, self.p_modes * kappa)
        return self._to_register(self.amplitudes * per_row[self.rows])

    def mode_profile(self, l: int) -> np.ndarray:
        """Coefficient of x mode l at every p node: on the x basis, the row
        of its native index; on a dense basis, the rows weighted by row l of
        Phi^-1 basis (``_x_mode``); then one p transform."""
        if self.basis is None:
            m = self.grid.points
            native = tuple((k + m // 2) % m for k in unflatten_index(l, m, self.grid.dims))
            i = np.ravel_multi_index(native, self.grid.shape)
            r = self.rows[i]
            row = self.amplitudes[i] * np.outer(self.coarse[r], self.fine[r]).reshape(-1)
        else:
            weights = _x_mode(self.basis.reshape(self.grid.shape + (-1,)), l, self.grid)
            per_row = np.zeros(len(self.coarse), dtype=complex)
            np.add.at(per_row, self.rows, weights * self.amplitudes)
            row = ((per_row[:, None] * self.coarse).T @ self.fine).reshape(-1)
        return _ifftn(row * self.p_modes, (0,))


State = Union[WarpedState, ProductState, ModeFrameState]


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


def extend_initial(u0: np.ndarray, pgrid: PGrid, grid: Optional[Grid] = None) -> ProductState:
    """Tensor-product initial state u0 (x) exp(-alpha(p)|p|)."""
    return ProductState(u=u0, profile=pgrid.warp_profile(), pgrid=pgrid, grid=grid)


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
        weights[pgrid.positive_indices()] = pgrid.dp
        weights[np.abs(pgrid.axis()) <= pgrid.dp * 1e-12] = pgrid.dp / 2.0
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


def recover(w: State, method: RecoveryMethod) -> np.ndarray:
    """Reconstruct the u-register vector from a warped state."""
    return w.contract_p(recovery_weights(w.pgrid, method))


class ModelDefaults:
    """Protocol defaults of every model: recovery by ``recover``, no exact u."""

    def recover(self, w: State, method: RecoveryMethod = IntegrateP()) -> np.ndarray:
        return recover(w, method)

    def exact(self, u0: np.ndarray, t: float) -> Optional[np.ndarray]:
        return None


def estimate_domain(t_final: float, s_max: float, left_support: float) -> float:
    """Left edge L = L0 - T*s_max so the fastest left-moving wave stays inside."""
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if s_max <= 0:
        raise ValueError("s_max must be > 0")
    if left_support >= 0:
        raise ValueError("left_support must be < 0")
    return left_support - t_final * s_max


# modes below this fraction of the largest one carry no speed or containment
_MODE_CUT = 1e-8


def dominant_mode(u0: np.ndarray, grid: Grid) -> int:
    """Flat index of the fastest x-mode whose amplitude exceeds _MODE_CUT * max.

    The speed is sum_l mu_l^2; ties go to the larger sum_l mu_l.
    """
    u0 = np.asarray(u0, dtype=complex).reshape(grid.shape)
    amp = np.abs(to_modes(u0, axis=tuple(range(grid.dims)))).reshape(-1)
    if amp.max() == 0:
        raise ValueError("initial data is identically zero")
    speed, tie = grid.mu_sum(2).reshape(-1), grid.mu_sum(1).reshape(-1)
    candidates = np.nonzero(amp > _MODE_CUT * amp.max())[0]
    return int(max(candidates, key=lambda i: (speed[i], tie[i])))


def dominant_speed(u0: np.ndarray, grid: Grid) -> float:
    """Largest mu^2 among x-modes whose amplitude exceeds _MODE_CUT * max.

    Smooth data has rapidly decaying coefficients, so only O(1) modes carry
    mass and the fastest relevant transport speed stays O(1).
    """
    return float(grid.mu_sum(2).reshape(-1)[dominant_mode(u0, grid)])


def containment_ratio(w: State) -> float:
    """Worst-case fraction of a mode's |what| mass on the two leftmost p
    cells, over the modes whose mass exceeds _MODE_CUT (1e-8) of the largest
    mode's (``dominant_mode``'s cut), so the result does not depend on the scale
    of u0: a mode below the cut brings less than 1e-8 of the state's mass
    to the boundary, and one near rounding level has a ratio of noise.

    Checked mode-wise over the u register, so a single fast mode reaching
    the boundary is not washed out by the rest: x modes for spatial samples,
    and a ``ModeFrameState``'s register modes (x modes, or the eigenmodes of
    its dense basis), each a_i times its transport row's p samples,
    ifft(R[row] p_modes): one transform per row, and no samples built.
    """
    if isinstance(w, ModeFrameState):
        amp = np.abs(_ifftn(w.table() * w.p_modes, (1,)))
        total = amp.sum(axis=1)
        rows, mass = w.rows, np.abs(w.amplitudes) * total[w.rows]
    else:
        modes = w.matrix
        if w.grid is not None:
            modes = modes.reshape(w.grid.shape + (w.pgrid.points,))
            modes = to_modes(modes, axis=tuple(range(w.grid.dims))).reshape(-1, w.pgrid.points)
        amp = np.abs(modes)
        total = mass = amp.sum(axis=1)
        rows = np.arange(total.size)
    if mass.max() == 0:
        return 0.0
    rows = rows[mass > _MODE_CUT * mass.max()]
    return float((amp[rows, :2].sum(axis=1) / total[rows]).max())
