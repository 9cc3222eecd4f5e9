"""Uniform periodic grids and Fourier collocation operators.

Conventions used throughout the package:

* A periodic axis with ``M`` points (``M`` an even power of two) on ``[a, b]``
  stores samples at ``x_j = a + j*dx``, ``j = 0..M-1``, with ``dx = (b-a)/M``.
* The collocation basis is ``exp(i*mu_l*(x - a))`` with the modes ordered
  monotonically, ``mu[k] = 2*pi*(k - M/2)/(b - a)`` for the 0-based column
  ``k``.  The change of basis matrix ``Phi`` (samples = Phi @ coefficients)
  then factors as ``Phi = sqrt(M) * S * F`` where ``S = diag(1, -1, 1, ...)``
  and ``F`` is the unitary DFT with the ``exp(+2*pi*i*j*k/M)/sqrt(M)`` kernel.
  The sign flip ``S`` is what lets an ordinary radix-2 FFT produce the
  monotone mode ordering, so operators stay matrix-free.
* Around a diagonal the flips cancel: ``Phi D Phi^-1 = F ifftshift(D) F^-1``
  with the plain (native-order) DFT ``F``, since ``S F`` only relabels
  mode ``k`` as ``k - M/2``.  Routes that only apply diagonals between the
  two transforms (the exact spectral route, whose states stay native-order
  coefficients, and the split step) reorder the diagonal once and skip
  ``S`` on the state.
* Multi-dimensional states are flattened in C order: the first axis varies
  slowest, matching ``kron(A_1, ..., A_d)`` acting on ``a_1 (x) ... (x) a_d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "PGrid",
    "fourier_matrix",
    "momentum_modes",
    "to_modes",
    "from_modes",
    "unflatten_index",
    "density_mass",
    "density_moment",
]


def _check_power_of_two(n: int, what: str) -> None:
    if n < 2 or n % 2 != 0 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be an even power of two >= 2, got {n}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice for the spatial variable, per dimension.

    ``points`` is the number of nodes per dimension (an even power of two),
    ``dims`` the number of spatial dimensions.  Node ``points`` (= ``b``) is
    identified with node 0.
    """

    a: float
    b: float
    points: int
    dims: int = 1

    def __post_init__(self):
        _check_power_of_two(self.points, "Grid.points")
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.points

    @property
    def size(self) -> int:
        """Total number of lattice sites, points**dims."""
        return self.points**self.dims

    def axis(self) -> np.ndarray:
        """Node coordinates along one dimension."""
        return self.a + self.dx * np.arange(self.points)

    def mu(self) -> np.ndarray:
        """Monotone Fourier modes for one axis."""
        return momentum_modes(self.points, self.a, self.b)

    def mu_sum(self, power: int) -> np.ndarray:
        """sum_l mu_l**power over the lattice shape; power 2 is the warp speed."""
        return reduce(np.add.outer, [self.mu() ** power] * self.dims)

    def mesh(self) -> list[np.ndarray]:
        """Coordinate arrays over the full lattice (C-order, sparse)."""
        ax = self.axis()
        return list(np.meshgrid(*([ax] * self.dims), indexing="ij", sparse=True))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dims

    def sample(self, f: Callable[..., np.ndarray]) -> np.ndarray:
        """Values f(x_j) at every node, flattened in C order.

        ``f`` receives one coordinate array per dimension (broadcastable
        mesh) and must be finite at every node; the first non-finite value
        is reported with its node.
        """
        values = np.broadcast_to(np.asarray(f(*self.mesh())), self.shape).reshape(-1)
        bad = np.nonzero(~np.isfinite(values))[0]
        if bad.size:
            j = unflatten_index(int(bad[0]), self.points, self.dims)
            coords = tuple(self.axis()[i] for i in j)
            raise ValueError(f"non-finite value at node {j} (x = {coords})")
        return values


@dataclass(frozen=True)
class PGrid:
    """Uniform periodic lattice for the auxiliary variable p.

    ``alpha_neg`` is the decay rate of the initial extension on ``p < 0``
    (the rate on ``p >= 0`` is pinned to 1 so the warp matches ``exp(-p)``),
    and ``left_support`` estimates where that extension becomes negligible.
    """

    left: float
    right: float
    points: int
    alpha_neg: float = 10.0
    left_support: float = -1.0

    def __post_init__(self):
        _check_power_of_two(self.points, "PGrid.points")
        if not (self.left < 0.0 < self.right):
            raise ValueError(f"need left < 0 < right, got [{self.left}, {self.right}]")
        if self.alpha_neg < 1.0:
            raise ValueError("alpha_neg must be >= 1")
        if not (self.left < self.left_support < 0.0):
            raise ValueError("left_support must lie in (left, 0)")

    @property
    def dp(self) -> float:
        return (self.right - self.left) / self.points

    def axis(self) -> np.ndarray:
        return self.left + self.dp * np.arange(self.points)

    def mu(self) -> np.ndarray:
        return momentum_modes(self.points, self.left, self.right)

    def alpha(self, p) -> np.ndarray:
        """Piecewise decay rate: 1 on p >= 0, alpha_neg on p < 0."""
        p = np.asarray(p, dtype=float)
        return np.where(p >= 0.0, 1.0, self.alpha_neg)

    def warp_profile(self) -> np.ndarray:
        """Samples of exp(-alpha(p)|p|) on the lattice."""
        p = self.axis()
        return np.exp(-self.alpha(p) * np.abs(p))

    def positive_indices(self) -> np.ndarray:
        return np.nonzero(self.axis() > self.dp * 1e-12)[0]


def fourier_matrix(points: int) -> np.ndarray:
    """Collocation matrix Phi with Phi[j, l] = exp(i*mu_l*(x_j - a)).

    Independent of the interval: the phases reduce to
    exp(2*pi*i*j*(l - M/2)/M).  Satisfies Phi = sqrt(M) * S * F with
    S = diag((-1)^j) and F the unitary DFT (module notes); Phi^H Phi = M * I.
    """
    _check_power_of_two(points, "points")
    j = np.arange(points)
    shifted = np.arange(points) - points // 2
    return np.exp(2j * np.pi * np.outer(j, shifted) / points)


def momentum_modes(points: int, a: float, b: float) -> np.ndarray:
    """Monotone mode array mu[k] = 2*pi*(k - M/2)/(b - a)."""
    k = np.arange(points) - points // 2
    return 2.0 * np.pi * k / (b - a)


# ---------------------------------------------------------------------------
# FFT-based application of Phi and Phi^-1 along one or more axes of an ndarray.
# ---------------------------------------------------------------------------


@lru_cache
def _alternating(n: int, axis: int, ndim: int) -> np.ndarray:
    """The sign flip S = diag(1, -1, 1, ...) as a factor broadcast along
    ``axis``; cached, so it is read-only."""
    shape = [1] * ndim
    shape[axis] = n
    flip = np.resize([1.0, -1.0], n).reshape(shape)
    flip.setflags(write=False)
    return flip


def to_modes(values: np.ndarray, axis=-1) -> np.ndarray:
    """Apply Phi^-1 along ``axis``, an int or a tuple of axes
    (samples -> monotone mode coefficients)."""
    axes = tuple(np.atleast_1d(axis) % values.ndim)
    work = values * _alternating(values.shape[axes[0]], axes[0], values.ndim)
    for a in axes[1:]:
        np.multiply(work, _alternating(values.shape[a], a, values.ndim), out=work)
    # fftn transforms its last listed axis first, so reversed axes match a
    # loop over them in order, bit for bit; in place, the peak stays at one
    # extra state.
    out = work if np.iscomplexobj(work) else None
    return np.fft.fftn(work, axes=axes[::-1], norm="forward", out=out)


def from_modes(coeffs: np.ndarray, axis=-1, out=None) -> np.ndarray:
    """Apply Phi along ``axis``, an int or a tuple of axes (mode
    coefficients -> samples), into ``out`` if given (may be ``coeffs``)."""
    axes = tuple(np.atleast_1d(axis) % coeffs.ndim)
    out = np.empty(coeffs.shape, dtype=np.result_type(coeffs, 1j)) if out is None else out
    np.fft.ifftn(coeffs, axes=axes[::-1], norm="forward", out=out)
    for a in axes:
        np.multiply(out, _alternating(coeffs.shape[a], a, coeffs.ndim), out=out)
    return out


def _fftn(values: np.ndarray, axes: tuple, out=None) -> np.ndarray:
    """Forward-normalised FFT over ``axes`` in native order; numpy loads
    ``numpy.fft`` on first use, so importing the package does not."""
    return np.fft.fftn(values, axes=axes, norm="forward", out=out)


def _ifftn(coeffs: np.ndarray, axes: tuple, out=None) -> np.ndarray:
    """Inverse of ``_fftn``."""
    return np.fft.ifftn(coeffs, axes=axes, norm="forward", out=out)


def apply_momentum(values: np.ndarray, mu: np.ndarray, axis: int = -1, power: int = 1) -> np.ndarray:
    """Apply (Phi diag(mu)^power Phi^-1) along one axis, matrix-free."""
    axis = axis % values.ndim
    shape = [1] * values.ndim
    shape[axis] = len(mu)
    weight = (mu.astype(float) ** power).reshape(shape)
    return from_modes(weight * to_modes(values, axis=axis), axis=axis)


def unflatten_index(flat: int, points: int, dims: int) -> tuple[int, ...]:
    if not 0 <= flat < points**dims:
        raise ValueError("flat index out of range")
    out = []
    for _ in range(dims):
        out.append(flat % points)
        flat //= points
    return tuple(reversed(out))


def _grid_coords(grid: Grid) -> tuple[list[str], list[Sequence]]:
    """CSV columns x1..xd and the node coordinates along each axis."""
    header = [f"x{i + 1}" for i in range(grid.dims)]
    return header, [grid.axis().tolist()] * grid.dims


def density_mass(rho: np.ndarray, grid: Grid) -> float:
    """Discrete integral sum(rho) dx^d of a density sampled on the lattice."""
    return float(np.real(np.sum(rho)) * grid.dx**grid.dims)


def density_moment(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """First moment sum x rho dx^d / sum rho dx^d, one entry per axis."""
    rho = np.asarray(rho).reshape(grid.shape)
    cell = grid.dx**grid.dims
    total = rho.sum() * cell
    if abs(total) < 1e-300:
        raise ValueError("density has zero mass")
    return np.real(np.array([(rho * x).sum() * cell / total for x in grid.mesh()]))
