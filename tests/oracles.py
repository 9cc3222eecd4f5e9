"""Dense and closed-form references that only the tests use.

Most take the package object they check (a model, a Schrodingerised
system, a dilation step) and build the reference from its fields, with the
models' own momentum-factor helpers, so the package carries no test-only
code.
"""

import tracemalloc

import numpy as np

from schrodingerizer.evolvers import EvolutionPlan, Trajectory, _snapshot_steps
from schrodingerizer.grids import (
    Dense,
    Diagonal,
    Grid,
    Identity,
    KronOperator,
    PGrid,
    _fftn,
    _ifftn,
    from_modes,
    to_modes,
)
from schrodingerizer.warp import WarpedState
from schrodingerizer.models import _dense_momentum, _x_momentum_factors


def heat_hdiag_terms(model) -> list[KronOperator]:
    """Heat generator in the p-frequency frame (D_eta for P_mu on p)."""
    p_eta = model.pgrid.mu()
    terms = [
        KronOperator(_x_momentum_factors(model.grid, axis, 2) + [Diagonal(p_eta)])
        for axis in range(model.grid.dims)
    ]
    terms.append(KronOperator([Diagonal(model.v_values), Diagonal(p_eta)], scale=-1.0))
    return terms


def ode_hdiag_terms(sysm) -> list[KronOperator]:
    """Generator in the p-frequency frame: -(H1 (x) D_mu) + (H2 (x) I)."""
    npts = sysm.pgrid.points
    return [
        KronOperator([Dense(sysm.split.h1), Diagonal(sysm.pgrid.mu())], scale=-1.0),
        KronOperator([Dense(sysm.split.h2), Identity(npts)]),
    ]


def evolve_at(model, u0, times) -> list:
    """The model's states at ``times`` from u0, through its own protocol
    (``initial_state``, then ``evolve`` under one exact_diagonal plan)."""
    plan = EvolutionPlan("exact_diagonal", dt=max(times), t_final=max(times), snapshot_times=tuple(times))
    return model.evolve(model.initial_state(u0), plan).states


def heat_x_operator(model) -> np.ndarray:
    """Dense spatial generator Laplacian + V (Hermitian), small grids."""
    lap = sum(
        _dense_momentum(model.grid, axis) @ _dense_momentum(model.grid, axis)
        for axis in range(model.grid.dims)
    )
    return -lap + np.diag(model.v_values)


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
