"""Dense and closed-form references that only the tests use.

Most take the package object they check (a model, a Schrodingerised
system, a dilation step) and build the reference from its fields: the
dense generators below are Kronecker products of 1-D pieces (identities,
diagonals, the model's own dense matrices and the momentum matrix built on
``grids.fourier_matrix``), so the package carries no test-only code.
"""

import math
import tracemalloc
from functools import reduce, singledispatch

import numpy as np

from schrodingerizer.evolvers import EvolutionPlan, Trajectory, _snapshot_steps
from schrodingerizer.grids import Grid, PGrid, _fftn, _ifftn, fourier_matrix, from_modes, to_modes
from schrodingerizer.warp import WarpedState
from schrodingerizer.models import (
    BlackScholesModel,
    BoltzmannModel,
    ConvectionModel,
    FokkerPlanckModel,
    HeatModel,
    _dense_momentum,
)
from schrodingerizer.ode import SchrodingerisedSystem, hermitian_split


def momentum(mu: np.ndarray, power: int = 1) -> np.ndarray:
    """Dense power of the momentum operator on one periodic axis with modes
    ``mu``: Phi diag(mu**power) Phi^-1, with Phi^-1 = Phi^H / M, Hermitian
    by construction up to rounding."""
    m = len(mu)
    phi = fourier_matrix(m)
    return (phi * mu**power) @ phi.conj().T / m


def kron(*factors: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """scale * (factors[0] (x) factors[1] (x) ...); refused above dimension 4096."""
    dim = math.prod(f.shape[0] for f in factors)
    if dim > 4096:
        raise ValueError(f"dense generator refused: dimension {dim} > 4096")
    return complex(scale) * reduce(np.kron, factors)


def _x_momentum(grid: Grid, axis: int, power: int) -> list[np.ndarray]:
    """Identities with the momentum power on one x axis."""
    return [momentum(grid.mu(), power) if i == axis else np.eye(grid.points) for i in range(grid.dims)]


def _heat_generator(model: HeatModel, p_factor: np.ndarray) -> np.ndarray:
    """(sum_l P_l^2 - diag(V)) (x) p_factor, summed term by term."""
    grid = model.grid
    return sum(
        [kron(*_x_momentum(grid, axis, 2), p_factor) for axis in range(grid.dims)]
        + [kron(np.diag(model.v_values), p_factor, scale=-1.0)]
    )


def _split_generator(split, pgrid: PGrid, p_factor: np.ndarray) -> np.ndarray:
    """-(H1 (x) p_factor) + (H2 (x) I) for a Hermitian split A = H1 + i H2."""
    return sum([kron(split.h1, p_factor, scale=-1.0), kron(split.h2, np.eye(pgrid.points))])


@singledispatch
def hamiltonian(model) -> np.ndarray:
    """The Hermitian generator H (d/dt w = i H w) of a model in the
    p-sample frame, dense, as a sum of Kronecker products."""
    raise TypeError(f"no dense generator for {type(model).__name__}")


@hamiltonian.register
def _(model: HeatModel) -> np.ndarray:
    return _heat_generator(model, momentum(model.pgrid.mu()))


@hamiltonian.register
def _(model: ConvectionModel) -> np.ndarray:
    # -(sum_l P_l) (x) P_mu^2, the sin(p) warp
    p_mu2 = momentum(model.pgrid.mu(), 2)
    grid = model.grid
    return sum([kron(*_x_momentum(grid, axis, 1), p_mu2, scale=-1.0) for axis in range(grid.dims)])


@hamiltonian.register
def _(model: BlackScholesModel) -> np.ndarray:
    # the split of A = i (r - sigma^2/2) P - (sigma^2/2) P^2 - r I
    pmu = _dense_momentum(model.grid, 0)
    a = (
        1j * (model.r - 0.5 * model.sigma**2) * pmu
        - 0.5 * model.sigma**2 * (pmu @ pmu)
        - model.r * np.eye(model.grid.points)
    )
    return _split_generator(hermitian_split(a), model.pgrid, momentum(model.pgrid.mu()))


@hamiltonian.register
def _(model: SchrodingerisedSystem) -> np.ndarray:
    return _split_generator(model.split, model.pgrid, momentum(model.pgrid.mu()))


@hamiltonian.register
def _(model: FokkerPlanckModel) -> np.ndarray:
    # -H1 (x) P_mu on the (psi (x) p) space; H2 = 0
    return kron(-model.h1, momentum(model.pgrid.mu()))


@hamiltonian.register
def _(model: BoltzmannModel) -> np.ndarray:
    # in the weighted frame: -(sum_l diag(xi_l) (x) P_l (x) I) - (C (x) I (x) P_mu)
    grid, npts = model.grid, model.pgrid.points
    return sum(
        [
            kron(np.diag(model.quad.points[:, axis]), *_x_momentum(grid, axis, 1), np.eye(npts), scale=-1.0)
            for axis in range(grid.dims)
        ]
        + [kron(model.collision_matrix(), np.eye(grid.size), momentum(model.pgrid.mu()), scale=-1.0)]
    )


def heat_hdiag(model: HeatModel) -> np.ndarray:
    """Heat generator in the p-frequency frame (D_eta for P_mu on p)."""
    return _heat_generator(model, np.diag(model.pgrid.mu()))


def ode_hdiag(sysm: SchrodingerisedSystem) -> np.ndarray:
    """Generator in the p-frequency frame: -(H1 (x) D_mu) + (H2 (x) I)."""
    return _split_generator(sysm.split, sysm.pgrid, np.diag(sysm.pgrid.mu()))


def evolve_at(model, u0, times) -> list:
    """The model's states at ``times`` from u0, through its own protocol
    (``initial_state``, then ``evolve`` under one exact_diagonal plan)."""
    plan = EvolutionPlan("exact_diagonal", dt=max(times), t_final=max(times), snapshot_times=tuple(times))
    return model.evolve(model.initial_state(u0), plan).states


def dense_expm_oracle(mat: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Reference propagation exp(mat * t) @ v for systems of dimension at
    most 4096.

    Only Hermitian and anti-Hermitian generators are accepted, both through
    an eigendecomposition; any other matrix raises ValueError.
    """
    mat = np.asarray(mat)
    v = np.asarray(v, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != v.shape[0]:
        raise ValueError("matrix/vector shapes do not match")
    if mat.shape[0] > 4096:
        raise ValueError(f"dimension {mat.shape[0]} exceeds the oracle guard 4096")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() <= 1e-13 * scale:
        lam, q = np.linalg.eigh(mat)
        return q @ (np.exp(lam * t) * (q.conj().T @ v))
    if np.abs(mat + mat.conj().T).max() <= 1e-13 * scale:
        lam, q = np.linalg.eigh(-1j * mat)  # mat = i * Hermitian
        return q @ (np.exp(1j * lam * t) * (q.conj().T @ v))
    raise ValueError("the dense oracle needs a Hermitian or anti-Hermitian generator")


def conservation_generator(fp) -> np.ndarray:
    """Dense Fokker-Planck generator acting on f itself (not the psi frame)."""
    e_minus = np.exp(-fp.v_values / fp.sigma)
    e_plus = np.exp(fp.v_values / fp.sigma)
    gen = np.zeros((fp.grid.size, fp.grid.size), dtype=complex)
    for axis in range(fp.grid.dims):
        p = _dense_momentum(fp.grid, axis)
        gen -= fp.sigma * (p @ (e_minus[:, None] * p) @ np.diag(e_plus))
    return gen


def black_scholes_mode_entries(model) -> np.ndarray:
    """Diagonal over (x mode, p mode): -h1(mu)*eta + h2(mu)."""
    eta = model.pgrid.mu()
    return (-model.contraction_rates()[:, None] * eta + model.phase_rates()[:, None]).reshape(-1)


def convection_sin_entries(model) -> np.ndarray:
    """Diagonal of the sin(p) convection generator: -(sum_l mu_l) * eta^2."""
    eta = model.pgrid.mu()
    return (-model.grid.mu_sum(1)[..., None] * eta**2).reshape(-1)


def commuting_matrix(seed: int, n: int) -> np.ndarray:
    """A normal n x n matrix with eigenvalues of negative real part, so its
    Hermitian parts H1 and H2 commute: U diag(lam) U^H with a random unitary U."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = -rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return (u * lam) @ u.conj().T


def analytic_mode_solution(uhat0, speed: float, t: float, p, alpha_neg: float = 1.0):
    """Exact characteristic solution of one mode of the warped transport.

    Solves d/dt what - speed * d/dp what = 0 from warped initial data:
    what(t, p) = exp(-alpha(p + s t) |p + s t|) * uhat0, where alpha is the
    piecewise rate (1 for non-negative argument, alpha_neg below zero)
    evaluated at the shifted point.
    """
    if speed < 0:
        raise ValueError("speed must be >= 0")
    q = np.asarray(p, dtype=float) + speed * t
    rate = np.where(q >= 0.0, 1.0, alpha_neg)
    return np.exp(-rate * np.abs(q)) * uhat0


def ladder_unitary(step, j: int, n_slots: int) -> np.ndarray:
    """Dense matrix of the step-j ladder unitary on (n_slots + 1) slots.

    Acts as the evolutionary dilated step on the (0, j) slot pair and as the
    identity elsewhere; used to certify unitarity and slot locality.
    """
    if not 1 <= j <= n_slots:
        raise ValueError("slot index out of range")
    n = step.dim
    total = (n_slots + 1) * n
    u = np.eye(total, dtype=complex)
    top_phase = step.hdt @ step.phase
    off_phase = step.off @ step.phase
    u[0:n, 0:n] = top_phase
    u[0:n, j * n:(j + 1) * n] = off_phase
    u[j * n:(j + 1) * n, 0:n] = off_phase
    u[j * n:(j + 1) * n, j * n:(j + 1) * n] = -top_phase
    return u


def heat_freq_entries(model) -> np.ndarray:
    """Phase rates in the (x modes (x) p modes) frame: (sum mu^2) * eta."""
    eta = model.pgrid.mu()
    return (model.grid.mu_sum(2)[..., None] * eta).reshape(-1)


def heat_pos_entries(model) -> np.ndarray:
    """Phase rates in the (x samples (x) p modes) frame: -V(x) * eta."""
    eta = model.pgrid.mu()
    v = model.v_values.reshape(model.grid.shape)
    return (-v[..., None] * eta).reshape(-1)


def full_spectrum_trotter(
    freq_diag: np.ndarray,
    pos_diag: np.ndarray,
    grid: Grid,
    pgrid: PGrid,
    plan: EvolutionPlan,
    w0: np.ndarray,
) -> Trajectory:
    """First-order split step between two diagonal frames.

    ``freq_diag`` are the real phase rates in the fully transformed frame
    (x modes (x) p modes) and ``pos_diag`` the rates in the half frame
    (x samples (x) p modes); each step applies the spatial transform,
    exp(i*freq_diag*dt), the inverse transform and exp(i*pos_diag*dt).  The
    p axis is transformed once on entry and once per snapshot.
    """
    shape = grid.shape + (pgrid.points,)
    x_axes = tuple(range(grid.dims))
    # the x transform runs in native order: Phi D Phi^-1 = F ifftshift(D) F^-1
    phase_freq = np.fft.ifftshift(
        np.exp(1j * np.asarray(freq_diag, dtype=float).reshape(shape) * plan.dt), axes=x_axes
    )
    phase_pos = np.exp(1j * np.asarray(pos_diag, dtype=float).reshape(shape) * plan.dt)

    s = to_modes(np.asarray(w0, dtype=complex).reshape(shape), axis=-1)
    snapshots, traj = _snapshot_steps(plan), Trajectory()
    for k in range(plan.n_steps + 1):
        if k:
            _fftn(s, x_axes, out=s)
            s *= phase_freq
            _ifftn(s, x_axes, out=s)
            s *= phase_pos
        if k in snapshots:
            values = from_modes(s, axis=-1).reshape(-1)
            traj.add(snapshots[k], WarpedState(values=values, pgrid=pgrid, grid=grid))
    traj.x_transforms = 2 * plan.n_steps
    traj.p_transforms = 1 + len(snapshots)
    return traj


def peak_bytes(fn) -> int:
    """The peak of the memory tracemalloc traces while ``fn()`` runs, in
    bytes (what was allocated before the call is not traced)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
