"""Builders that assemble specific PDEs into Hamiltonian form.

Each builder produces a model that evolves the Hermitian generator on the
extended (register (x) p) space in its diagonal frames, from the warped
initial state, and recovers u from it:

* heat with a potential/source term V(x) u;
* linear convection by the sin(p) warp;
* Black-Scholes in log-price, where drift and diffusion commute;
* Fokker-Planck in conservation form (similarity-sandwiched products) and in
  imaginary-time heat form;
* the linear Boltzmann equation with isotropic scattering, discretised by
  ordinates, with the square-root-weight similarity that symmetrises the
  collision block;
* the density-transport lift of a nonlinear ODE flow (``build_liouville``),
  a ``LinearSystem`` for the generic path, read off by moments.

Any linear ODE system, the Liouville lift included, runs as the
``ode.SchrodingerisedSystem`` that ``ode.assemble_schrodingerised`` builds.
Every model offers the same protocol, which is all the CLI drives:
``engines`` (the plan engines ``evolve`` runs, checked before it is called),
``initial_state(u0)``, ``evolve(w0, plan)`` (its engine reads the
lattice and p-grid from ``w0`` and the times from the plan, and returns a
Trajectory of ``warp`` states, one per snapshot time: factored
``ModeFrameState``s on the exact spectral route, on a shared eigenbasis
(Fokker-Planck, heat with a varying potential, the generic split) and on
the heat upwind march, ``WarpedState``s of p-mode coefficients on every
other route),
``recover(state, method)`` (which reads any of them), ``exact(u0, t)`` and
``mass(u)`` (None where there is none), and ``coords()`` (the CSV
coordinate columns and the values along each column: their product in C
order, the last column fastest, gives one row per entry of the recovered
u).

A kinetic equation whose drift couples two registers (forcing terms like
grad V . grad_xi f) does not warp directly: discretise all transport
variables first and feed the resulting matrix through the generic linear
ODE path in :mod:`schrodingerizer.ode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import (
    Grid,
    PGrid,
    _fftn,
    _grid_coords,
    _ifftn,
    apply_momentum,
    density_mass,
    fourier_matrix,
    to_modes,  # bound here too: perfbench/test_bench.py checks its tracer restores it
)
from .warp import (
    IntegrateP,
    ModelDefaults,
    PointP,
    ProductState,
    RecoveryMethod,
    State,
    extend_initial,
    recover,
)
from .ode import LinearSystem
from .evolvers import (
    EvolutionPlan,
    FDTransport,
    Trajectory,
    _transport_phase,
    evolve_mode_blocks,
    evolve_mode_frame,
    evolve_ordinate_split,
    evolve_trotter,
    evolve_upwind_fd,
)

__all__ = [
    "HeatModel",
    "ConvectionModel",
    "BlackScholesModel",
    "FokkerPlanckModel",
    "BoltzmannModel",
    "QuadratureRule",
    "build_heat",
    "build_convection",
    "build_black_scholes",
    "build_fokker_planck",
    "build_boltzmann",
    "build_liouville",
    "default_ordinates",
    "exact_heat_solution",
    "exact_convection_solution",
]


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _sample(f: Optional[Callable], grid: Grid) -> np.ndarray:
    """Sample a real scalar function on the lattice (C order), zeros if None."""
    if f is None:
        return np.zeros(grid.size)
    return np.asarray(grid.sample(f), dtype=float)


def _mode_frame_trajectory(
    rate, speed: np.ndarray, w0: ProductState, plan: EvolutionPlan, rows=None
) -> Trajectory:
    """Exact evolution when the generator is diagonal in all mode frames
    (``evolve_mode_frame`` on the x basis), with ``rate`` and ``speed`` over
    the monotone x modes, put in native order here."""
    native = lambda d: np.fft.ifftshift(np.broadcast_to(d, w0.grid.shape)).reshape(-1)
    return evolve_mode_frame(native(rate), native(speed), w0, plan.snapshot_times, rows=rows)


def _x_diagonal_solution(rate: np.ndarray, u0: np.ndarray, grid: Grid, t: float) -> np.ndarray:
    """exp(t diag(rate)) u0 for a rate over the monotone x modes, in the
    sample frame: u0 transformed in, the rates reordered to native order
    once (``grids``), transformed out."""
    axes = tuple(range(grid.dims))
    coeffs = _fftn(np.asarray(u0, dtype=complex).reshape(grid.shape), axes)
    coeffs *= np.exp(np.fft.ifftshift(np.asarray(rate, dtype=complex)) * t)
    return _ifftn(coeffs, axes, out=coeffs).reshape(-1)


class GridModel(ModelDefaults):
    """Protocol defaults for a model warped on ``self.grid`` (x) ``self.pgrid``,
    beside ``warp.ModelDefaults``; subclasses define ``evolve`` and override
    whatever else differs."""

    def initial_state(self, u0: np.ndarray) -> ProductState:
        return extend_initial(u0, self.pgrid, grid=self.grid)

    def mass(self, u: np.ndarray) -> Optional[float]:
        return None

    def coords(self) -> tuple[list[str], list[Sequence]]:
        return _grid_coords(self.grid)


# The most lattice sites of a dense operator (models whose generator is a
# dense matrix over the lattice): one eigh of the dense heat Laplacian + V
# takes 0.85 s at 32^2 (V = |x|^2/2, one thread, 2-CPU Xeon host, min of 3).
_DENSE_SITES = 1024


def _axis_momentum(grid: Grid, power: int = 1) -> np.ndarray:
    """The 1-D momentum power Phi diag(mu**power) Phi^H / M of one axis.
    Every dense generator takes its line blocks from here before
    ``_lattice_operator`` builds it, so more than ``_DENSE_SITES`` lattice
    sites are refused before any lattice-sized matrix is allocated."""
    if grid.size > _DENSE_SITES:
        raise ValueError(
            f"a dense operator is built on at most {_DENSE_SITES} lattice sites; this grid has {grid.size}"
        )
    phi = fourier_matrix(grid.points)
    return (phi * grid.mu() ** power) @ phi.conj().T / grid.points


def _lattice_operator(grid: Grid, diagonal: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense diag(diagonal) + sum_l B_l over the flattened x lattice, of the
    pieces' dtype: ``blocks[l]``, shaped (lines..., M, M) over the other axes
    or (M, M) for every line, is added in axis order into the view of the
    matrix that joins the sites of each line along axis l."""
    out = np.diag(np.asarray(diagonal, dtype=np.result_type(diagonal, *blocks)))
    rows = "abcdefghijklmnopqrstuvwxy"[: grid.dims]
    for axis, block in enumerate(blocks):
        cols = rows[:axis] + "z" + rows[axis + 1 :]
        lines = rows[:axis] + rows[axis + 1 :] + rows[axis] + "z"
        view = np.einsum(f"{rows}{cols}->{lines}", out.reshape(grid.shape * 2))
        view += block
    return out


# ---------------------------------------------------------------------------
# Heat equation with a potential term.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatModel(GridModel):
    """d/dt u = Laplacian(u) + V(x) u, warped to Hermitian transport in p.

    The generator splits into a part diagonal in the x-frequency frame
    (the Laplacian symbol times the p mode) and a part diagonal in the
    position frame (the potential times the p mode), which is exactly the
    two-phase split the first-order product formula alternates.
    """

    grid: Grid
    pgrid: PGrid
    v_values: np.ndarray
    # whether ``engines`` may offer upwind_fd, which builds and checks the
    # dense M x M transport matrix; a config sets it for an upwind plan only
    upwind: bool = True

    def __post_init__(self):
        v = np.asarray(self.v_values, dtype=float).reshape(-1)
        if v.size != self.grid.size:
            raise ValueError("potential sample count does not match the grid")
        object.__setattr__(self, "v_values", v)
        v.setflags(write=False)

    @property
    def v_const(self) -> Optional[float]:
        """The potential's value if it is constant, else None."""
        return None if np.ptp(self.v_values) > 0 else float(self.v_values[0])

    @cached_property
    def engines(self) -> tuple[str, ...]:
        """Every engine, less ``exact_diagonal`` when V varies on more than
        ``_DENSE_SITES`` (1024) lattice sites (its route then
        decomposes the dense Laplacian + V) and ``upwind_fd`` without
        ``upwind`` or where ``fd_transport`` rejects the model (beyond one
        dimension, or a transport matrix with a positive eigenvalue)."""
        dropped = {
            "exact_diagonal": self.v_const is None and self.grid.size > _DENSE_SITES,
            "upwind_fd": not self.upwind,
        }
        if self.upwind:
            try:
                self.fd_transport()
            except ValueError:
                dropped["upwind_fd"] = True
        return tuple(e for e in ("exact_diagonal", "trotter", "upwind_fd") if not dropped.get(e))

    @cached_property
    def h1(self) -> np.ndarray:
        """Dense Laplacian + V, the H1 of -(H1 (x) P_mu); built when V varies."""
        return -_lattice_operator(self.grid, -self.v_values, [_axis_momentum(self.grid, 2)] * self.grid.dims)

    def fd_transport(self) -> FDTransport:
        """Central-difference transport matrix for the upwind p march (1-D),
        built once per model (``engines`` checks it too)."""
        return self._fd_transport

    @cached_property
    def _fd_transport(self) -> FDTransport:
        if self.grid.dims != 1:
            raise ValueError("the finite-difference path is implemented in one dimension")
        eye = np.eye(self.grid.points)
        lap = (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye) / self.grid.dx**2
        return FDTransport(a_mat=_lattice_operator(self.grid, self.v_values, [lap]), pgrid=self.pgrid)

    # evolution ------------------------------------------------------------

    def evolve(self, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
        if plan.engine not in self.engines:
            raise ValueError(f"this heat model runs {' or '.join(self.engines)}, not {plan.engine!r}")
        # plan by keyword: the benchmark's tracer (perfbench/spans.py) counts steps from it
        if plan.engine == "trotter":
            return evolve_trotter(self.grid.mu() ** 2, self.v_values, w0, plan=plan)
        if plan.engine == "upwind_fd":
            return evolve_upwind_fd(self.fd_transport(), w0, plan=plan)
        if self.v_const is None:
            # block diagonal over p: the shared eigenbasis of H1 and H2 = 0
            return evolve_mode_blocks(self.h1, 0.0, w0, plan.snapshot_times)
        # diagonal (sum mu^2 - V) * eta: mode l moves along p at that speed
        return _mode_frame_trajectory(0.0, self.grid.mu_sum(2) - self.v_const, w0, plan)

    def exact(self, u0: np.ndarray, t: float) -> Optional[np.ndarray]:
        """Spectral solution, when the potential is constant."""
        if self.v_const is None:
            return None
        return exact_heat_solution(u0, self.grid, t, self.v_const)


def build_heat(v: Optional[Callable], grid: Grid, pgrid: PGrid, upwind: bool = True) -> HeatModel:
    return HeatModel(grid=grid, pgrid=pgrid, v_values=_sample(v, grid), upwind=upwind)


def exact_heat_solution(u0: np.ndarray, grid: Grid, t: float, v_const: float = 0.0) -> np.ndarray:
    """Spectrally exact solution of the constant-V heat problem."""
    return _x_diagonal_solution(v_const - grid.mu_sum(2), u0, grid, t)


# ---------------------------------------------------------------------------
# Linear convection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvectionModel(GridModel):
    """d/dt u + sum_l d/dx_l u = 0 with unit speed along every axis.

    The sin(p) warp on a fixed [-pi, pi] auxiliary axis gives a
    Schrodinger-type generator -(sum_l mu_l) * eta^2.  Since w = sin(p) u
    separates, recovery projects onto sin(p).
    """

    grid: Grid
    pgrid: PGrid

    engines = ("exact_diagonal",)

    def sin_profile(self) -> np.ndarray:
        return np.sin(self.pgrid.axis())

    def initial_state(self, u0: np.ndarray) -> ProductState:
        return ProductState(u=u0, profile=self.sin_profile(), pgrid=self.pgrid, grid=self.grid)

    def evolve(self, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
        # diagonal -(sum_l mu_l) * eta^2: speed -(sum_l mu_l) on the eta^2
        # symbol, with sum_l mu_l = 2 pi (sum_l k_l) / (b - a) from the
        # integer mode sum, so modes of one sum share one transport row
        grid = self.grid
        k_sum = reduce(np.add.outer, [np.arange(grid.points) - grid.points // 2] * grid.dims)
        speed = -(2.0 * np.pi * k_sum / (grid.b - grid.a))
        return _mode_frame_trajectory(0.0, speed, w0, plan, partial(_transport_phase, power=2))

    def recover(self, w: State, method: RecoveryMethod | None = None) -> np.ndarray:
        """Project onto the sin(p) profile (w = sin(p) u is separable).  The
        projection reads no p node, so a point recovery, with its ``p_star``
        or not, would be ignored and is refused."""
        if isinstance(method, PointP):
            what = "kind 'point'" if method.p_star is None else "p_star"
            raise ValueError(f"{what} does not apply: convection recovers u by projection, at no p node")
        s = self.sin_profile()
        return w.contract_p(s / float(s @ s))

    def exact(self, u0: np.ndarray, t: float) -> np.ndarray:
        return exact_convection_solution(u0, self.grid, t)


def build_convection(grid: Grid, p_points: int = 64) -> ConvectionModel:
    """The sin(p) warp on the fixed p-domain [-pi, pi) of ``p_points`` nodes."""
    return ConvectionModel(grid=grid, pgrid=PGrid(left=-np.pi, right=np.pi, points=p_points, alpha_neg=1.0))


def exact_convection_solution(u0: np.ndarray, grid: Grid, t: float) -> np.ndarray:
    """Translate the initial profile by t along every axis (spectral shift)."""
    return _x_diagonal_solution(-1j * grid.mu_sum(1), u0, grid, t)


# ---------------------------------------------------------------------------
# Black-Scholes in log price, forward time.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlackScholesModel(GridModel):
    """d/dtau V = (r - sigma^2/2) dV/dx + (sigma^2/2) d2V/dx2 - r V.

    Everything is diagonal in the x-frequency frame: the Hermitian split has
    contraction rates -(sigma^2/2 mu^2 + r) and phase rates
    (r - sigma^2/2) mu, which commute, so a single dilation over the whole
    horizon matches the stepped evolution exactly.
    """

    r: float
    sigma: float
    grid: Grid
    pgrid: PGrid

    engines = ("exact_diagonal",)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.grid.dims != 1:
            raise ValueError("the log-price model is one-dimensional")

    def contraction_rates(self) -> np.ndarray:
        """Diagonal of the dissipative Hermitian part over x modes."""
        mu = self.grid.mu()
        return -(0.5 * self.sigma**2 * mu**2 + self.r)

    def phase_rates(self) -> np.ndarray:
        """Diagonal of the oscillatory Hermitian part over x modes."""
        mu = self.grid.mu()
        return (self.r - 0.5 * self.sigma**2) * mu

    def evolve(self, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
        # diagonal -h1(mu) * eta + h2(mu): speed -h1(mu) along p plus offset h2(mu)
        return _mode_frame_trajectory(1j * self.phase_rates(), -self.contraction_rates(), w0, plan)

    def exact_solution(self, u0: np.ndarray, t: float) -> np.ndarray:
        """Per-mode decay and drift: exp((h1 + i h2) t) in the mode frame."""
        rate = self.contraction_rates() + 1j * self.phase_rates()
        return _x_diagonal_solution(rate, u0, self.grid, t)

    def exact(self, u0: np.ndarray, t: float) -> np.ndarray:
        return self.exact_solution(u0, t)


def build_black_scholes(r: float, sigma: float, grid: Grid, pgrid: PGrid) -> BlackScholesModel:
    return BlackScholesModel(r=r, sigma=sigma, grid=grid, pgrid=pgrid)


# ---------------------------------------------------------------------------
# Fokker-Planck.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FokkerPlanckModel(GridModel):
    """d/dt f = div(grad(V) f) + sigma Laplacian(f), two equivalent routes.

    Both routes evolve psi = exp(V/(2 sigma)) f, whose generator is
    Hermitian and dissipative.  ``conservation`` sandwiches the momentum
    operators between exp(+-V/...) diagonals; ``heat_form`` uses the
    imaginary-time potential U = |grad V|^2/(4 sigma) - Laplacian(V)/2.
    The steady state is exp(-V/sigma).
    """

    grid: Grid
    pgrid: PGrid
    sigma: float
    v_values: np.ndarray
    h1: np.ndarray  # generates d/dt on the psi register (Hermitian, NSD)
    u_values: Optional[np.ndarray] = None

    engines = ("exact_diagonal",)

    def __post_init__(self):
        h1 = np.asarray(self.h1, dtype=complex)
        if not np.all(np.isfinite(h1)):
            raise ValueError("the Fokker-Planck operator H1 is not finite on this grid; rescale V or sigma")
        object.__setattr__(self, "h1", h1)
        h1.setflags(write=False)

    @property
    def weight(self) -> np.ndarray:
        return np.exp(self.v_values / (2.0 * self.sigma))

    def to_psi(self, f: np.ndarray) -> np.ndarray:
        return self.weight * np.asarray(f, dtype=complex).reshape(-1)

    def from_psi(self, psi: np.ndarray) -> np.ndarray:
        return np.asarray(psi, dtype=complex).reshape(-1) / self.weight

    def initial_state(self, f0: np.ndarray) -> ProductState:
        return extend_initial(self.to_psi(f0), self.pgrid, grid=self.grid)

    def evolve(self, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
        # H2 = 0 as a scalar: the shared basis is H1's own, with no H2 checks
        return evolve_mode_blocks(self.h1, 0.0, w0, plan.snapshot_times)

    def recover(self, w: State, method: RecoveryMethod = IntegrateP()) -> np.ndarray:
        """Recover psi from the warped state, then undo the change of variables."""
        return self.from_psi(recover(w, method))

    def mass(self, f: np.ndarray) -> float:
        return density_mass(f, self.grid)


def build_fokker_planck(
    v: Callable,
    sigma: float,
    grid: Grid,
    pgrid: PGrid,
    form: str = "conservation",
    grad_v: Optional[Sequence[Callable]] = None,
    lap_v: Optional[Callable] = None,
) -> FokkerPlanckModel:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v_values = _sample(v, grid)
    u_values = None
    # an overflow is reported by the model's finite check, with its remedy
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (+1.0, -1.0):
            if not np.all(np.isfinite(np.exp(sign * v_values / sigma))):
                raise ValueError("exp(V/sigma) overflows on this grid; rescale V or sigma")
        if form == "conservation":
            e_half = np.exp(v_values / (2.0 * sigma))
            e_minus = np.exp(-v_values / sigma)
            p1 = _axis_momentum(grid)
            blocks = []
            for axis in range(grid.dims):
                # on each line of sites along axis l, the 1-D sandwich of its own e+-
                half_l, minus_l = (np.moveaxis(e.reshape(grid.shape), axis, -1) for e in (e_half, e_minus))
                sandwich = p1 @ (minus_l[..., None] * p1)
                blocks.append(sigma * (half_l[..., :, None] * sandwich * half_l[..., None, :]))
            x_op = _lattice_operator(grid, np.zeros(grid.size), blocks)
        elif form == "heat_form":
            if grad_v is not None and lap_v is not None:
                grad_sq = sum(_sample(g, grid) ** 2 for g in grad_v)
                lap = _sample(lap_v, grid)
            else:
                # V differentiated spectrally, the method for configs (which have
                # no key for analytic derivatives): d/dx = i P, d2/dx2 = -P^2
                vg = v_values.reshape(grid.shape).astype(complex)
                mu = grid.mu()
                grad_sq = sum(apply_momentum(vg, mu, axis=a).imag ** 2 for a in range(grid.dims)).reshape(-1)
                lap = sum(-apply_momentum(vg, mu, axis=a, power=2).real for a in range(grid.dims)).reshape(-1)
            u_values = grad_sq / (4.0 * sigma) - lap / 2.0
            x_op = _lattice_operator(grid, u_values, [sigma * _axis_momentum(grid, 2)] * grid.dims)
        else:
            raise ValueError(f"unknown Fokker-Planck form {form!r}")
        # H1 = -(X + X^H) / 2 formed in X: the build holds two n x n matrices at most
        x_op += x_op.conj().T
        x_op /= -2.0
    return FokkerPlanckModel(grid=grid, pgrid=pgrid, sigma=sigma, v_values=v_values, h1=x_op, u_values=u_values)


# ---------------------------------------------------------------------------
# Linear Boltzmann with isotropic scattering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Ordinate directions and weights.

    Weights sum to one so the isotropic average becomes a plain weighted sum.
    """

    points: np.ndarray  # (n_ord, d) unit vectors
    weights: np.ndarray  # (n_ord,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != wts.size or pts.shape[0] < 1:
            raise ValueError("points and weights must pair up")
        if np.any(wts <= 0):
            raise ValueError("weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {wts.sum()!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        pts.setflags(write=False)
        wts.setflags(write=False)

    @property
    def n_ord(self) -> int:
        return self.points.shape[0]


def default_ordinates() -> QuadratureRule:
    """Two-point rule on the 1-D velocity sphere: xi = +-1, weights 1/2."""
    return QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([0.5, 0.5]))


@dataclass(frozen=True)
class BoltzmannModel(GridModel):
    """Transport + isotropic relaxation on an (ordinate, x, p) register.

    States are stored in the physical frame, starting from the
    ``ProductState`` that ``extend_initial`` makes of f0; evolution
    (``evolvers.evolve_ordinate_split``) conjugates by the
    square-root-weight similarity (which symmetrises the collision block)
    and takes first-order split steps of an exact transport phase, diagonal
    over x modes, and an exact collision rotation, local in x, as powers of
    one n_ord x n_ord block per (x mode, p mode).  The weighted mass
    functional is a fixed vector of every block, so mass is conserved to
    rounding.
    """

    quad: QuadratureRule
    grid: Grid
    pgrid: PGrid

    engines = ("trotter",)

    def __post_init__(self):
        if self.quad.points.shape[1] != self.grid.dims:
            raise ValueError("ordinate dimension does not match the grid")

    def collision_matrix(self) -> np.ndarray:
        """Lambda_w^{1/2} Xi Lambda_w^{1/2} - I (symmetric, NSD)."""
        root = np.sqrt(self.quad.weights)
        return np.outer(root, root) - np.eye(self.quad.n_ord)

    def transport_entries(self) -> np.ndarray:
        """Phase rates over (ordinate, x modes): -(sum_l xi_l mu_l)."""
        mu = self.grid.mu()
        out = np.zeros((self.quad.n_ord,) + self.grid.shape)
        for axis in range(self.grid.dims):
            shape = [1] * (self.grid.dims + 1)
            shape[axis + 1] = self.grid.points
            out = out - self.quad.points[:, axis].reshape((-1,) + (1,) * self.grid.dims) * mu.reshape(shape)
        return out

    def initial_state(self, f0: np.ndarray) -> ProductState:
        """f0 (x) exp(-alpha(p)|p|) for f0 of shape (n_ord, grid.size) or
        broadcastable to it, on the (ordinate, x) register: no spatial grid."""
        f0 = np.asarray(f0, dtype=complex)
        if f0.ndim == 1:
            f0 = np.broadcast_to(f0, (self.quad.n_ord, self.grid.size))
        if f0.shape != (self.quad.n_ord, self.grid.size):
            raise ValueError("initial data must have shape (n_ord, grid.size)")
        return extend_initial(f0, self.pgrid)

    def evolve(self, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
        return evolve_ordinate_split(
            self.transport_entries(), self.collision_matrix(), self.quad.weights, w0, plan
        )

    def recover(self, w: State, method: RecoveryMethod = IntegrateP()) -> np.ndarray:
        """Per-ordinate distribution, shape (n_ord, grid.size)."""
        return recover(w, method).reshape(self.quad.n_ord, self.grid.size)

    def mass(self, f: np.ndarray) -> float:
        """Weighted total mass sum_k w_k sum_j f_k(x_j)."""
        f = np.asarray(f).reshape(self.quad.n_ord, self.grid.size)
        return float(np.real(self.quad.weights @ f.sum(axis=1)))

    def coords(self) -> tuple[list[str], list[Sequence]]:
        return ["ordinate", "index"], [range(self.quad.n_ord), range(self.grid.size)]


def build_boltzmann(quad: QuadratureRule, grid: Grid, pgrid: PGrid) -> BoltzmannModel:
    return BoltzmannModel(quad=quad, grid=grid, pgrid=pgrid)


# ---------------------------------------------------------------------------
# Density-transport lift of a nonlinear flow.
# ---------------------------------------------------------------------------


def _periodised_gaussian(grid: Grid, q0: np.ndarray, width: float) -> np.ndarray:
    span = grid.b - grid.a
    mesh = grid.mesh()
    out = np.ones(grid.shape)
    for axis in range(grid.dims):
        x = mesh[axis]
        acc = np.zeros_like(x)
        for k in range(-3, 4):
            acc = acc + np.exp(-((x - q0[axis] + k * span) ** 2) / (2.0 * width**2))
        out = out * acc
    flat = np.broadcast_to(out, grid.shape).reshape(-1)
    return flat / (flat.sum() * grid.dx**grid.dims)


def _central_difference(f: Callable, grid: Grid, axis: int) -> np.ndarray:
    """(f(x + dx e_axis) - f(x - dx e_axis)) / (2 dx) at every node (C order).

    f is evaluated off the lattice rather than read from its periodic
    samples, so the difference does not jump at the wrap.
    """
    def shifted(step: float) -> np.ndarray:
        coords = grid.mesh()
        coords[axis] = coords[axis] + step * grid.dx
        return np.broadcast_to(np.asarray(f(*coords), dtype=float), grid.shape).reshape(-1)

    out = (shifted(1.0) - shifted(-1.0)) / (2.0 * grid.dx)
    if not np.all(np.isfinite(out)):
        raise ValueError("field is not finite one lattice step off the nodes")
    return out


def build_liouville(
    field: Callable | Sequence[Callable],
    grid: Grid,
    q0,
    width: float,
) -> LinearSystem:
    """Lift dq/dt = F(q) to linear density transport, read q by moments.

    The transported density rho(t, .) = delta(. - q(t)) is smoothed to a
    periodised Gaussian of ``width`` (unit discrete mass), the initial data
    of the returned system, and evolves by d/dt rho = -div(F rho), which
    feeds the generic ODE path.  Each axis term -d_i(F_i rho) is taken in
    skew-symmetric form, with the spectral momentum P_i = -i d_i:
    A = sum_i -i/2 (F_i P_i + P_i F_i) - 1/2 diag(d_i F_i), the continuum
    identity -d(F rho) = -1/2 (F d rho + d(F rho)) - 1/2 F' rho (the
    skew-symmetric form of spectral advection: Blaisdell, Spyropoulos and
    Qin, Appl. Numer. Math. 21 (1996) 207).  The first term is
    anti-Hermitian, so the Hermitian part is exactly H1 = -1/2 diag(div F):
    diagonal and bounded by the physical compression rate.  ``div F`` is the
    central difference of each F_i a lattice step either side of the node,
    exact for linear and quadratic fields and free of the ringing a spectral
    derivative shows at the periodic wrap.  For a linear field H1 is a
    scalar c*I to rounding, which the split carries as c
    (``ode.HermitianSplit.h1_scalar``): one eigh of H2 serves every p block,
    and H1's spectrum needs none.  The conservative product
    -i sum_i P_i diag(F_i), which conserves the discrete mass exactly but
    spreads H1 over the discrete product's spectrum, is the tests' reference
    (``tests/oracles.py``).

    The first moment of the recovered density (``grids.density_moment``)
    tracks the trajectory, and the moment ratio is insensitive to the
    overall amplitude drift the warp recovery introduces for
    non-dissipative flows.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    if q0.size != grid.dims:
        raise ValueError("q0 length must match the grid dimension")
    margin = 3.0 * width
    if np.any(q0 < grid.a + margin) or np.any(q0 > grid.b - margin):
        raise ValueError("q0 is within 3*width of the boundary; support would wrap")
    components = field if isinstance(field, (list, tuple)) else [field]
    if len(components) != grid.dims:
        raise ValueError("need one field component per dimension")
    p1 = _axis_momentum(grid)
    blocks, div = [], 0.0
    for axis, f in enumerate(components):
        values = np.moveaxis(_sample(f, grid).reshape(grid.shape), axis, -1)
        blocks.append(-0.5j * (values[..., :, None] * p1 + p1 * values[..., None, :]))
        div = div + _central_difference(f, grid, axis)
    a_mat = _lattice_operator(grid, -0.5 * div, blocks)
    return LinearSystem(a_mat=a_mat, b=None, u0=_periodised_gaussian(grid, q0, width))

