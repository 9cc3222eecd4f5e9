"""Hamiltonian embedding of general linear ODE systems.

A system du/dt = A u + b is first made homogeneous by augmenting the state
with a constant unit component, then A is split into Hermitian and
anti-Hermitian parts A = H1 + i H2.  The warp in an auxiliary variable p
turns the H1 (dissipative) part into transport, giving the Hermitian
generator -(H1 (x) P_mu) + (H2 (x) I) on the extended register, which is
block diagonal over p frequencies and can be evolved exactly.
``SchrodingerisedSystem`` is that generator as a model with the protocol of
:mod:`schrodingerizer.models`; ``ode`` and ``liouville`` configs run it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .grids import Grid, PGrid, _grid_coords, density_mass
from .warp import IntegrateP, ProductState, RecoveryMethod, State, estimate_domain, extend_initial, recover
from . import evolvers

__all__ = [
    "LinearSystem",
    "HermitianSplit",
    "SchrodingerisedSystem",
    "StabilityWarning",
    "augment_inhomogeneous",
    "hermitian_split",
    "assemble_schrodingerised",
    "default_pgrid",
    "sparsity",
    "max_norm",
]


class StabilityWarning(UserWarning):
    """Positive eigenvalues in the Hermitian part: some p-transport runs
    rightward and the standard recovery contract may degrade."""


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class LinearSystem:
    """du/dt = A u + b with constant A and b.

    Time-dependent sources are rejected: the augmentation below only yields
    a constant companion matrix for constant b.
    """

    a_mat: np.ndarray
    b: Optional[np.ndarray]
    u0: np.ndarray

    def __post_init__(self):
        if callable(self.b):
            raise TypeError("time-dependent b(t) is not supported; b must be a constant vector")
        a = _as_square(self.a_mat)
        u0 = np.asarray(self.u0, dtype=complex).reshape(-1)
        if u0.size != a.shape[0]:
            raise ValueError("u0 length does not match A")
        b = self.b
        if b is not None:
            b = np.asarray(b, dtype=complex).reshape(-1)
            if b.size != a.shape[0]:
                raise ValueError("b length does not match A")
            if not np.all(np.isfinite(b)):
                raise ValueError("b has non-finite entries")
            b.setflags(write=False)
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "u0", u0)
        a.setflags(write=False)
        u0.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.a_mat.shape[0]

    def is_homogeneous(self) -> bool:
        return self.b is None or not np.any(self.b)


def augment_inhomogeneous(sys: LinearSystem) -> LinearSystem:
    """Fold a constant source into one extra state component.

    Returns [[A, b], [0, 0]] acting on [u; v] with v(0) = 1; v stays equal
    to 1 along the exact flow, so the top block solves the original system.
    """
    if sys.is_homogeneous():
        return sys
    n = sys.dim
    a_aug = np.zeros((n + 1, n + 1), dtype=complex)
    a_aug[:n, :n] = sys.a_mat
    a_aug[:n, n] = sys.b
    u0_aug = np.concatenate([sys.u0, [1.0]])
    return LinearSystem(a_mat=a_aug, b=None, u0=u0_aug)


def sparsity(mat: np.ndarray, tol: float = 0.0) -> int:
    """Maximum number of nonzeros per row."""
    return int(np.count_nonzero(np.abs(np.asarray(mat)) > tol, axis=1).max())


def max_norm(mat: np.ndarray) -> float:
    return float(np.abs(np.asarray(mat)).max())


@dataclass(frozen=True)
class HermitianSplit:
    """A = H1 + i H2 with both parts Hermitian.

    H1 carries dissipation (stable systems have H1 negative semi-definite,
    recorded in ``stable``), H2 the oscillatory part.  When H1 is c*I to
    rounding (the skew Liouville lift of a linear field), ``h1_scalar`` is
    c, found once, in O(n^2), as the split is made, and carried from then
    on: the spectrum of H1 is c repeated, with no ``eigvalsh``, and the
    system hands ``evolve_mode_blocks`` the scalar c.  Else it is None.
    """

    h1: np.ndarray
    h2: np.ndarray
    h1_scalar: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h1 = _as_square(self.h1)
        h2 = _as_square(self.h2)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "h1_scalar", _scalar_value(h1))
        h1.setflags(write=False)
        h2.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.h1.shape[0]

    @cached_property
    def h1_eigvals(self) -> np.ndarray:
        """Eigenvalues of H1, ascending: computed once for every reader."""
        if self.h1_scalar is None:
            lam = np.linalg.eigvalsh(self.h1)
        else:
            lam = np.full(self.dim, self.h1_scalar)
        lam.setflags(write=False)
        return lam

    @property
    def stable(self) -> bool:
        return float(self.h1_eigvals.max()) <= 1e-10


def _scalar_value(h: np.ndarray) -> Optional[float]:
    """c, the mean of the real diagonal of h, if |h - c I|_F is at most
    ``evolvers._SHARED_BASIS_TOL`` |h|_F, the rule by which a shared
    eigenbasis diagonalises a part; else None."""
    n = h.shape[0]
    c = float(np.diagonal(h).real.mean()) if n else 0.0
    dev = h.copy()
    dev.flat[:: n + 1] -= c
    return c if np.linalg.norm(dev) <= evolvers._SHARED_BASIS_TOL * np.linalg.norm(h) else None


def hermitian_split(a_mat: np.ndarray) -> HermitianSplit:
    a = _as_square(a_mat)
    h1 = (a + a.conj().T) / 2.0
    h2 = (a - a.conj().T) / 2j
    return HermitianSplit(h1=h1, h2=h2)


@dataclass(frozen=True)
class SchrodingerisedSystem:
    """A linear ODE system evolved exactly per p frequency.

    ``grid`` is set when the register samples a density on a lattice (the
    Liouville lift): snapshot rows then carry coordinates and the run can
    report a mass.  Otherwise rows are indexed by component.  The warped
    state carries no grid either way, so a run writes no x-mode profile.
    """

    split: HermitianSplit
    pgrid: PGrid
    grid: Optional[Grid] = None

    engines = ("exact_diagonal",)

    def initial_state(self, u0: np.ndarray) -> ProductState:
        return extend_initial(u0, self.pgrid)

    def evolve(self, w0: State, plan: evolvers.EvolutionPlan) -> evolvers.Trajectory:
        """Exact evolution at the snapshot times (block diagonal over p):
        ``ModeFrameState``s when H1 and H2 share an eigenbasis (always for
        a scalar H1, passed as c), else ``WarpedState``s of samples."""
        split = self.split
        h1 = split.h1 if split.h1_scalar is None else split.h1_scalar
        return evolvers.evolve_mode_blocks(h1, split.h2, w0, plan.snapshot_times)

    def recover(self, w: State, method: RecoveryMethod = IntegrateP()) -> np.ndarray:
        return recover(w, method)

    def exact(self, u0: np.ndarray, t: float) -> None:
        return None

    def mass(self, u: np.ndarray) -> Optional[float]:
        return None if self.grid is None else density_mass(u, self.grid)

    def coords(self) -> tuple[list[str], list[Sequence]]:
        if self.grid is None:
            return ["index"], [range(self.split.dim)]
        return _grid_coords(self.grid)


def assemble_schrodingerised(
    split: HermitianSplit, pgrid: PGrid, grid: Optional[Grid] = None
) -> SchrodingerisedSystem:
    """Bundle the Hermitian generator with its p-grid (and lattice, if any).

    Instability is a warning, not an error: the construction still goes
    through, but rightward p-transport invalidates the recovery contract.
    """
    if not split.stable:
        warnings.warn(
            f"H1 is not negative semi-definite (lambda_max(H1) = {split.h1_eigvals[-1]:.6g}); "
            "p-transport moves rightward and recovery may be inaccurate",
            StabilityWarning,
            stacklevel=2,
        )
    return SchrodingerisedSystem(split=split, pgrid=pgrid, grid=grid)


def default_pgrid(
    split: HermitianSplit,
    t_final: float,
    points: int = 512,
    right: float = 10.0,
) -> PGrid:
    """Size the p-domain from the transport speed of the dissipative part.

    The fastest wave speed is the spectral radius of H1 (from its
    eigenvalues); the left edge follows the containment rule L = L0 - T * s_max
    (``warp.estimate_domain``) for the ``PGrid`` default support L0 = -1,
    then is nudged further left so that p = 0 lands exactly on the lattice.
    Pinning the node at zero keeps the recovery quadrature boundary fixed
    under refinement, which is what makes dp-convergence studies clean.
    """
    s_max = max(float(np.abs(split.h1_eigvals).max()), 1e-12)
    left = min(estimate_domain(t_final, s_max, -1.0), -1.0 - 1e-6)
    # largest node count above zero whose spacing still covers [left, right]
    m = max(1, int(np.floor(points * right / (right - left))))
    dp = right / m
    return PGrid(left=right - points * dp, right=right, points=points)
