import dataclasses
import inspect
import json
import math
import pathlib

import numpy as np
import pytest

from schrodingerizer import evolvers
from schrodingerizer.config import parse_config
from schrodingerizer.evolvers import (
    CFLError,
    EvolutionPlan,
    FDTransport,
    evolve_mode_blocks,
    evolve_upwind_fd,
)
from schrodingerizer.grids import Grid, PGrid, from_modes, to_modes
from schrodingerizer.models import (
    QuadratureRule,
    build_black_scholes,
    build_boltzmann,
    build_fokker_planck,
    build_heat,
    build_liouville,
)
from schrodingerizer.ode import StabilityWarning, assemble_schrodingerised, hermitian_split
from schrodingerizer.warp import ModeFrameState, PointP, ProductState, WarpedState, extend_initial

from oracles import (
    black_scholes_mode_entries,
    dense_expm_oracle,
    evolve_at,
    full_spectrum_trotter,
    hamiltonian,
    heat_freq_entries,
    heat_pos_entries,
    peak_bytes,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        EvolutionPlan("nope", dt=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        EvolutionPlan("trotter", dt=0.3, t_final=1.0)  # not an integer step count
    with pytest.raises(ValueError):
        EvolutionPlan("trotter", dt=0.1, t_final=1.0, snapshot_times=(2.0,))
    plan = EvolutionPlan("trotter", dt=0.1, t_final=1.0)
    assert plan.n_steps == 10
    assert plan.snapshot_times == (1.0,)


def test_every_engine_takes_w0_then_plan_or_times():
    # one shape: operator data, then the initial state, whose lattice and
    # p-grid are the run's, then the plan or the snapshot times
    engines = [name for name in evolvers.__all__ if name.startswith("evolve_")]
    assert len(engines) == 5
    for name in engines:
        params = list(inspect.signature(getattr(evolvers, name)).parameters)
        at = params.index("w0")
        assert params[at + 1] in ("plan", "times"), name
        assert not {"grid", "pgrid"} & set(params), name


def _heat_setup(m=8, n=16, v=None):
    grid = Grid(-1, 1, m)
    pg = PGrid(-4, 4, n, alpha_neg=10.0)
    model = build_heat(v, grid, pg)
    x = grid.axis()
    u0 = np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x) + 0.1
    return model, model.initial_state(u0)


def test_trotter_commuting_split_is_exact():
    model, w0 = _heat_setup(v=lambda x: 0 * x + 0.7)
    t = 0.25
    stepped = model.evolve(w0, EvolutionPlan("trotter", dt=t / 16, t_final=t)).final.values
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final.values
    assert np.linalg.norm(stepped - exact) / np.linalg.norm(exact) <= 1e-10


def test_trotter_zero_potential_matches_exact_diagonal():
    model, w0 = _heat_setup(v=None)
    t = 0.25
    stepped = model.evolve(w0, EvolutionPlan("trotter", dt=t / 8, t_final=t)).final.values
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final.values
    assert np.linalg.norm(stepped - exact) / np.linalg.norm(exact) <= 1e-10


def _trotter_routes(monkeypatch):
    """Force each split-step route in turn, the step loop and then block
    powers, yielding whether powers are on."""
    for powers in (False, True):
        monkeypatch.setattr(evolvers, "_trotter_by_powers", lambda n, gaps, on=powers: on)
        yield powers


def test_trotter_first_order_against_dense_oracle(monkeypatch):
    model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
    t = 0.25
    h = hamiltonian(model)
    ref = dense_expm_oracle(1j * h, w0.values, t)
    for powers in _trotter_routes(monkeypatch):
        errs = []
        for steps in (32, 64, 128):
            traj = model.evolve(w0, EvolutionPlan("trotter", dt=t / steps, t_final=t))
            assert traj.x_transforms == (2 if powers else 2 * steps)
            errs.append(np.linalg.norm(traj.final.values - ref) / np.linalg.norm(ref))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, abs=0.2)


_TROTTER_SNAPSHOTS = pytest.mark.parametrize(
    "snapshots", [(), (0.0, 0.1, 0.25)], ids=["final_only", "three_snapshots"]
)


def _trotter_transforms(monkeypatch, points, snapshots):
    """A 25-step split step on an M = ``points`` grid with P = 16, with the
    transform calls counted and the width of each x transform recorded."""
    calls, widths = {"x": 0, "p": 0}, []
    for name, kind in (("_fftn", "x"), ("_ifftn", "x"), ("to_modes", "p"), ("from_modes", "p")):
        _count_calls(monkeypatch, evolvers, name, calls, kind)
    fftn = evolvers._fftn

    def recording(values, *args, **kwargs):
        widths.append(values.shape[-1])
        return fftn(values, *args, **kwargs)

    monkeypatch.setattr(evolvers, "_fftn", recording)
    model, w0 = _heat_setup(m=points, v=lambda x: np.cos(np.pi * x))
    plan = EvolutionPlan("trotter", dt=0.01, t_final=0.25, snapshot_times=snapshots)
    assert evolvers._trotter_by_powers(points, [25]) == (points == 8)
    return model.evolve(w0, plan), plan, calls, widths


@_TROTTER_SNAPSHOTS
def test_trotter_transform_budget(monkeypatch, snapshots):
    # the step loop (M = 32) applies the spatial transform (the
    # native-order _fftn/_ifftn pair) to the P/2 + 1 kept p modes twice per
    # step up to the last snapshot; over p it transforms the P-sized profile
    # once on entry (to_modes) and the mirrored state once per snapshot
    # (from_modes); the counters report the transform calls actually made
    traj, plan, calls, widths = _trotter_transforms(monkeypatch, 32, snapshots)
    assert traj.x_transforms == calls["x"] == 2 * plan.n_steps
    assert widths == [16 // 2 + 1] * plan.n_steps
    assert traj.p_transforms == calls["p"] == 1 + len(plan.snapshot_times)


@_TROTTER_SNAPSHOTS
def test_trotter_power_transform_budget(monkeypatch, snapshots):
    # the power route (M = 8) transforms only the 8-wide identity, once
    # each way, to build the step blocks; over p it counts as the loop does
    traj, plan, calls, widths = _trotter_transforms(monkeypatch, 8, snapshots)
    assert traj.x_transforms == calls["x"] == 2
    assert widths == [8]
    assert traj.p_transforms == calls["p"] == 1 + len(plan.snapshot_times)


def _count_calls(monkeypatch, owner, name, calls, kind):
    """Replace owner.name by a wrapper that counts its calls in calls[kind]."""
    transform = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[kind] += 1
        return transform(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


_SNAPSHOTS = pytest.mark.parametrize(
    "snapshots", [(), (0.0, 0.125, 0.125, 0.25)], ids=["final_only", "repeated_snapshots"]
)


def _snapshot_step_count(plan):
    return len({round(t / plan.dt) for t in plan.snapshot_times})


@_SNAPSHOTS
def test_upwind_transform_budget(monkeypatch, snapshots):
    # the march enters the eigenbasis of A by q^H u0, a matrix product, and
    # transforms only the p profile; its snapshots stay in that frame, so
    # nothing is transformed back, however many snapshots
    from schrodingerizer import warp

    calls = {"p": 0}
    for owner, name in ((np.fft, "fft"), (np.fft, "ifft"), (warp, "_fftn"), (warp, "_ifftn"),
                        (evolvers, "_fftn"), (evolvers, "_ifftn"),
                        (evolvers, "to_modes"), (evolvers, "from_modes")):
        _count_calls(monkeypatch, owner, name, calls, "p")
    model, w0 = _heat_setup(v=None)  # upwind CFL bound: dt <= 1/128
    plan = EvolutionPlan("upwind_fd", dt=1 / 128, t_final=0.25, snapshot_times=snapshots)
    traj = model.evolve(w0, plan)
    assert traj.p_transforms == calls["p"] == 1
    assert traj.x_transforms == 0


@_SNAPSHOTS
def test_boltzmann_transform_budget(monkeypatch, snapshots):
    # the march enters the (x mode, p mode) frame by one transform over the
    # x axes and p together, and leaves it once per snapshot step
    calls = {"in": 0, "out": 0}
    _count_calls(monkeypatch, evolvers, "to_modes", calls, "in")
    _count_calls(monkeypatch, evolvers, "from_modes", calls, "out")
    model, w0 = _boltzmann_setup()
    plan = EvolutionPlan("trotter", dt=1 / 128, t_final=0.25, snapshot_times=snapshots)
    traj = model.evolve(w0, plan)
    assert calls == {"in": 1, "out": _snapshot_step_count(plan)}
    assert traj.x_transforms == traj.p_transforms == 1 + _snapshot_step_count(plan)


@pytest.mark.parametrize("route", ["shared_basis", "per_block"])
def test_mode_blocks_transform_budget(monkeypatch, route):
    # per block: one p transform of the state in, one out per time; shared
    # basis: one p transform of the profile g, while q^H u0 is a matrix
    # product, not an x transform
    from schrodingerizer import warp

    calls = {"p": 0}
    for owner, name in ((evolvers, "to_modes"), (evolvers, "from_modes"),
                        (warp, "_fftn"), (warp, "_ifftn")):
        _count_calls(monkeypatch, owner, name, calls, "p")
    rng = np.random.default_rng(31)
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = -(c @ c.conj().T)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h2 = (m + m.conj().T) / 2 if route == "per_block" else np.zeros((5, 5))
    pg = PGrid(-4, 4, 32)
    w0 = extend_initial(rng.standard_normal(5), pg)
    times = [0.0, 0.5, 1.0]
    traj = evolve_mode_blocks(h1, h2, w0, times)
    assert traj.times == times
    assert traj.p_transforms == calls["p"] == (1 if route == "shared_basis" else 1 + len(times))
    assert traj.x_transforms == 0


def test_trotter_norm_preservation_long_run(monkeypatch):
    model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
    for powers in _trotter_routes(monkeypatch):
        traj = model.evolve(w0, EvolutionPlan("trotter", dt=1e-3, t_final=1.0))
        assert traj.x_transforms == (2 if powers else 2000)
        drift = abs(traj.final.norm() - w0.norm()) / w0.norm()
        assert drift <= 1e-12


def _random_product(rng, n, pgrid):
    """A complex random u (x) profile: it excites every register mode and
    every p mode, the Nyquist mode included."""
    draw = lambda size: rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return ProductState(u=draw(n), profile=draw(pgrid.points), pgrid=pgrid)


def test_upwind_zero_matrix_is_frozen():
    pg = PGrid(-2, 2, 16)
    fd = FDTransport(a_mat=np.zeros((3, 3)), pgrid=pg)
    w0 = _random_product(np.random.default_rng(1), 3, pg)
    out = evolve_upwind_fd(fd, w0, EvolutionPlan("upwind_fd", dt=0.1, t_final=1.0)).final
    assert np.allclose(out.values, w0.values)


def test_upwind_reads_its_p_grid_from_w0():
    # the march runs on the p-grid of its initial state; the FDTransport's
    # own grid serves admissible_dt only
    rng = np.random.default_rng(4)
    a = np.array([[-1.0, 0.5], [0.5, -2.0]])
    pg = PGrid(-5, 5, 64)
    w0 = _random_product(rng, 2, pg)
    plan = EvolutionPlan("upwind_fd", dt=0.05, t_final=0.5, snapshot_times=(0.25, 0.5))
    on_w0 = evolve_upwind_fd(FDTransport(a_mat=a, pgrid=pg), w0, plan)
    on_other = evolve_upwind_fd(FDTransport(a_mat=a, pgrid=PGrid(-10, 10, 64)), w0, plan)
    assert on_other.times == on_w0.times
    for got, want in zip(on_other.states, on_w0.states, strict=True):
        assert got.pgrid is pg
        assert np.array_equal(got.values, want.values)


def test_upwind_needs_product_state():
    # the march starts from the two factors of u0 (x) g(p); flat samples
    # are refused, as on the shared-basis route
    model, w0 = _heat_setup(v=None)
    samples = WarpedState(values=w0.values, pgrid=w0.pgrid, grid=w0.grid)
    plan = EvolutionPlan("upwind_fd", dt=1 / 128, t_final=0.25)
    with pytest.raises(TypeError, match="warp.ProductState"):
        evolve_upwind_fd(model.fd_transport(), samples, plan)


def test_periodic_laplacian_eigenvalues_m4():
    # oracle: lambda_k = -(4/dx^2) sin^2(k pi / M)
    grid = Grid(-1, 1, 4)
    model = build_heat(None, grid, PGrid(-2, 2, 16))
    lam = np.sort(np.linalg.eigvalsh(model.fd_transport().a_mat))
    dx = grid.dx
    ref = np.sort([-(4 / dx**2) * np.sin(k * np.pi / 4) ** 2 for k in range(4)])
    assert np.allclose(lam, ref)
    assert np.allclose(np.sort(ref), [-16.0, -8.0, -8.0, 0.0])


def _step_matrix(fd, dt):
    """Dense one-step matrix of the upwind march on the (p (x) u) ordering."""
    n = fd.a_mat.shape[0]
    npts = fd.pgrid.points
    a1 = (dt / fd.pgrid.dp) * fd.a_mat
    big = np.zeros((npts * n, npts * n), dtype=a1.dtype)
    for j in range(npts):
        big[j * n:(j + 1) * n, j * n:(j + 1) * n] = np.eye(n) + a1
        k = (j + 1) % npts
        big[j * n:(j + 1) * n, k * n:(k + 1) * n] -= a1
    return big


def test_upwind_step_matrix_structure():
    # row j: (I + A1) on the diagonal, -A1 to the right, wraparound in the
    # last block row
    pg = PGrid(-2, 2, 4)
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    fd = FDTransport(a_mat=a, pgrid=pg)
    dt = 0.1
    big = _step_matrix(fd, dt)
    a1 = dt / pg.dp * a
    eye = np.eye(2)
    for j in range(4):
        assert np.allclose(big[2 * j:2 * j + 2, 2 * j:2 * j + 2], eye + a1)
        k = (j + 1) % 4
        assert np.allclose(big[2 * j:2 * j + 2, 2 * k:2 * k + 2], -a1)


def test_upwind_cfl_violation_reports_admissible_dt():
    model, w0 = _heat_setup(m=8, n=32)
    fd = model.fd_transport()
    bad = EvolutionPlan("upwind_fd", dt=fd.admissible_dt() * 64, t_final=fd.admissible_dt() * 64)
    with pytest.raises(CFLError) as err:
        evolve_upwind_fd(fd, w0, bad)
    assert err.value.admissible == pytest.approx(fd.admissible_dt())


def test_upwind_at_admissible_dt_does_not_grow():
    # dt = dp / rho(A) is the edge of the CFL bound: the Nyquist p mode of the
    # fastest A mode then has gain exactly -1, so any underestimate of rho
    # shows as growth over a long march
    grid = Grid(-1, 1, 16)
    model = build_heat(None, grid, PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0))
    fd = model.fd_transport()
    assert fd.rho() == np.abs(np.linalg.eigvalsh(fd.a_mat)).max()
    w0 = _random_product(np.random.default_rng(6), 16, fd.pgrid)
    dt = fd.admissible_dt()
    plan = EvolutionPlan("upwind_fd", dt=dt, t_final=1_000_000 * dt)
    out = evolve_upwind_fd(fd, w0, plan).final
    assert out.norm() / w0.norm() <= 1 + 1e-6


def test_upwind_rejects_positive_eigenvalues():
    with pytest.raises(ValueError):
        FDTransport(a_mat=np.array([[1.0]]), pgrid=PGrid(-2, 2, 8))


def test_upwind_rejects_non_hermitian_transport():
    # eigenvalues -1, -1 are admissible; the closed form needs A = A^H
    with pytest.raises(ValueError, match="Hermitian"):
        FDTransport(a_mat=np.array([[-1.0, 0.5], [0.0, -1.0]]), pgrid=PGrid(-2, 2, 8))


def _upwind_march_reference(fd, plan, w0):
    """The explicit march, one np.roll step at a time, snapshot per request."""
    n = fd.a_mat.shape[0]
    state = np.asarray(w0, dtype=complex).reshape(n, fd.pgrid.points).T.copy()  # p-major
    a1t = ((plan.dt / fd.pgrid.dp) * fd.a_mat).T
    wanted = [int(round(t / plan.dt)) for t in plan.snapshot_times]
    out = [state.T.reshape(-1).copy()] * wanted.count(0)
    for step in range(1, plan.n_steps + 1):
        state = state + (state - np.roll(state, -1, axis=0)) @ a1t
        out += [state.T.reshape(-1).copy()] * wanted.count(step)
    return out


@pytest.mark.parametrize(
    "v", [lambda x: -0.5 + 0.0 * x, lambda x: np.cos(np.pi * x) - 1.0], ids=["constant", "cosine"]
)
def test_upwind_closed_form_matches_march(v):
    grid = Grid(-1, 1, 16)
    model = build_heat(v, grid, PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0))
    x = grid.axis()
    w0 = model.initial_state(np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x) + 0.1)
    fd = model.fd_transport()
    t_star = 4.0 / np.pi**2
    steps = int(np.ceil(t_star / fd.admissible_dt()))  # dt just inside the CFL bound
    dt = t_star / steps
    mid = (steps // 2) * dt
    plan = EvolutionPlan("upwind_fd", dt=dt, t_final=t_star, snapshot_times=(0.0, mid, mid, t_star))
    traj = evolve_upwind_fd(fd, w0, plan)
    assert traj.times == [0.0, mid, mid, t_star]
    ref = _upwind_march_reference(fd, plan, w0.values)
    for got, want in zip(traj.states, ref, strict=True):
        assert np.linalg.norm(got.values - want) / np.linalg.norm(want) <= 1e-12


@pytest.mark.parametrize("points, speeds", [(16, 9), (32, 17), (128, 65)])
def test_upwind_takes_one_row_per_distinct_speed(points, speeds):
    # the periodic Laplacian's eigenvalues -(4/dx^2) sin^2(k pi / M) are
    # double but for k = 0 and k = M/2: M/2 + 1 speeds, one row each
    model = build_heat(None, Grid(-1, 1, points), PGrid(-5, 5, 64))
    fd = model.fd_transport()
    w0 = model.initial_state(np.cos(np.pi * model.grid.axis()))
    dt = fd.admissible_dt() / 2
    state = evolve_upwind_fd(fd, w0, EvolutionPlan("upwind_fd", dt=dt, t_final=4 * dt)).final
    assert state.coarse.shape[0] == state.fine.shape[0] == speeds


def test_upwind_heat_run_matches_matched_exact_solution():
    # compare against the exact flow of the same central-difference system
    grid = Grid(-1, 1, 16)
    t_star = 4.0 / np.pi**2
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    x = grid.axis()
    u0 = np.sin(np.pi * x)
    w0 = model.initial_state(u0)
    fd = model.fd_transport()
    steps = int(np.ceil(t_star / fd.admissible_dt()))
    plan = EvolutionPlan("upwind_fd", dt=t_star / steps, t_final=t_star)
    got = model.recover(model.evolve(w0, plan).final, PointP())
    lam1 = -(4 / grid.dx**2) * np.sin(np.pi / 16) ** 2
    ref = np.exp(lam1 * t_star) * np.sin(np.pi * x)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 5e-2


def test_dense_expm_identity_at_zero_generator():
    v = np.array([1.0, 2.0, 3.0 + 1j])
    assert np.allclose(dense_expm_oracle(np.zeros((3, 3)), v, 2.0), v)


def test_dense_expm_rotation_sign():
    # oracle: truncated Taylor series of exp(i sigma_y theta)
    sigma_y = np.array([[0, -1j], [1j, 0]])
    gen = 1j * sigma_y
    series = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 30):
        term = term @ (gen * (np.pi / 2)) / k
        series = series + term
    v = np.array([1.0, 0.0], dtype=complex)
    got = dense_expm_oracle(gen, v, np.pi / 2)
    assert np.abs(got - series @ v).max() <= 1e-12
    assert np.allclose(got, [0.0, -1.0], atol=1e-12)


def test_dense_expm_unitary_for_hermitian_generator():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (m + m.conj().T) / 2
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = dense_expm_oracle(1j * h, v, 1.3)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


def test_dense_expm_rejects_non_normal_generator():
    with pytest.raises(ValueError, match="Hermitian"):
        dense_expm_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), 1.0)


def test_dense_expm_dimension_guard():
    with pytest.raises(ValueError):
        dense_expm_oracle(np.zeros((5000, 5000)), np.zeros(5000), 1.0)


def test_mode_blocks_match_dense_oracle():
    rng = np.random.default_rng(9)
    n = 3
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T)
    h2r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (h2r + h2r.conj().T) / 2
    pg = PGrid(-3, 3, 32)
    sysm = assemble_schrodingerised(hermitian_split(h1 + 1j * h2), pg)
    u0 = rng.standard_normal(n)
    t = 0.6
    got = evolve_at(sysm, u0, [t])[0].values
    h = hamiltonian(sysm)
    ref = dense_expm_oracle(1j * h, extend_initial(u0, pg).values, t)
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_cross_engine_agreement_on_heat():
    # spectral engines agree pairwise far below the discretisation error;
    # the dense oracle closes the triangle
    grid = Grid(-1, 1, 16)
    pg = PGrid(-5, 5, 128, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    u0 = np.sin(np.pi * grid.axis())
    w0 = model.initial_state(u0)
    t_star = 4.0 / np.pi**2
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t_star, t_final=t_star)).final.values
    trotter = model.evolve(w0, EvolutionPlan("trotter", dt=t_star / 64, t_final=t_star)).final.values
    h = hamiltonian(model)
    dense = dense_expm_oracle(1j * h, w0.values, t_star)
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(exact - trotter) / scale <= 1e-8
    assert np.linalg.norm(exact - dense) / scale <= 1e-8
    fd = model.fd_transport()
    steps = int(np.ceil(t_star / fd.admissible_dt()))
    upwind = model.evolve(w0, EvolutionPlan("upwind_fd", dt=t_star / steps, t_final=t_star)).final.values
    # the march differs from the spectral state by its O(dt + dp) defect
    assert np.linalg.norm(upwind - exact) / scale <= 0.5


@pytest.mark.parametrize("dims", [1, 2])
def test_exact_heat_with_varying_potential_matches_dense_oracle(dims):
    # a cosine potential: the exact route evolves in the eigenbasis of the
    # dense Laplacian + V and leaves factored states, equal to exp(i H t)
    # of the whole generator (512 x 512 here) at every snapshot
    grid = Grid(-1, 1, 16 if dims == 1 else 4, dims=dims)
    pg = PGrid(-5, 5, 32, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(lambda *x: 0.5 * np.cos(np.pi * x[0]), grid, pg)
    assert model.v_const is None and "exact_diagonal" in model.engines
    w0 = model.initial_state(np.asarray(grid.sample(lambda *x: np.sin(np.pi * x[-1]) + 0.2), dtype=complex))
    plan = EvolutionPlan("exact_diagonal", dt=0.3, t_final=0.3, snapshot_times=(0.0, 0.1, 0.3))
    traj = model.evolve(w0, plan)
    h = hamiltonian(model)
    for t, state in zip(traj.times, traj.states):
        assert isinstance(state, ModeFrameState)
        ref = dense_expm_oracle(1j * h, w0.values, t)
        assert np.linalg.norm(state.values - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("points", [2, 4, 32, 64, 128, 8192])
def test_transport_phase_tables_match_exp(points):
    # the coarse x fine table product is exp(i t speed_l eta_j) with eta in
    # native FFT order, to a few ulps of the largest phase of each speed;
    # P = 2 and 4 have blocks of 1 and 2, and P = 32 is where a single
    # 64-wide block would put half the native indices on the wrong side of
    # P/2.  The eta^2 symbol has one fine row per speed.
    speed = Grid(-1, 1, 64).mu_sum(2) - 0.3
    pg = PGrid(-6, 5, points)
    eta = np.fft.ifftshift(pg.mu())

    def table(t, power=1):
        coarse, fine = evolvers._transport_phase(speed, pg, t, power)
        return (coarse[:, :, None] * fine[:, None, :]).reshape(64, points)

    assert np.array_equal(table(0.0), np.ones((64, points)))
    t = 0.05
    for power in (1, 2):
        ref = np.exp(1j * t * speed[:, None] * eta**power)
        scale = 1 + np.abs(t * speed)[:, None] * np.abs(eta).max() ** power
        assert np.all(np.abs(table(t, power) - ref) <= 8 * np.finfo(float).eps * scale)


def _monotone_mode_frame(entries, shape, values, t):
    """The mode-frame phase exp(i entries t) between to_modes and from_modes,
    with the sign flips and the monotone mode order."""
    axes = tuple(range(len(shape)))
    coeffs = to_modes(np.asarray(values, dtype=complex).reshape(shape), axis=axes)
    return from_modes(np.exp(1j * entries.reshape(shape) * t) * coeffs, axis=axes).reshape(-1)


@pytest.mark.parametrize("case", ["heat1d", "heat2d", "black_scholes"])
def test_native_order_exact_route_matches_monotone_reference(case):
    # heat is pure transport (speed sum mu^2 - V along p); Black-Scholes
    # adds the x-mode offset h2(mu)
    if case == "black_scholes":
        grid, pg = Grid(-1, 1, 64), PGrid(-2, 5, 512)
        model = build_black_scholes(0.05, 0.3, grid, pg)
        entries, times = black_scholes_mode_entries(model), (0.0, 0.5, 1.0)
    else:
        dims = 2 if case == "heat2d" else 1
        grid, pg = Grid(-1, 1, 16 if dims == 2 else 32, dims), PGrid(-3, 5, 256)
        model = build_heat(lambda *x: 0 * x[0] + 0.3, grid, pg)
        entries, times = (grid.mu_sum(2) - 0.3)[..., None] * pg.mu(), (0.0, 0.02, 0.05)
    u0 = grid.sample(lambda *x: sum(np.sin(np.pi * c) + 0.2 * np.cos(3 * np.pi * c) for c in x))
    w0 = model.initial_state(u0)
    plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1], snapshot_times=times)
    traj = model.evolve(w0, plan)
    for t, state in zip(traj.times, traj.states):
        ref = _monotone_mode_frame(entries, grid.shape + (pg.points,), w0.values, t)
        assert np.linalg.norm(state.values - ref) <= 1e-13 * np.linalg.norm(ref)


def test_trotter_intermediate_snapshots_match_exact():
    model, w0 = _heat_setup(v=None)
    t_final = 0.2
    plan = EvolutionPlan(
        "trotter", dt=t_final / 8, t_final=t_final,
        snapshot_times=(0.0, t_final / 2, t_final),
    )
    traj = model.evolve(w0, plan)
    assert traj.times == [0.0, t_final / 2, t_final]
    assert np.allclose(traj.states[0].values, w0.values)
    for t, state in zip(traj.times[1:], traj.states[1:]):
        exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final.values
        assert np.linalg.norm(state.values - exact) / np.linalg.norm(exact) <= 1e-10


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("complex_u0", [False, True], ids=["real_u0", "complex_u0"])
def test_half_spectrum_trotter_matches_full_spectrum_reference(dims, complex_u0):
    # stepping the P/2 + 1 p modes eta <= 0 and mirroring the rest at the
    # snapshots gives the full-spectrum split step, Nyquist mode included;
    # a complex u0 is the batch of its real and imaginary parts
    grid = Grid(-1, 1, 8, dims)
    pg = PGrid(-4, 4, 32, alpha_neg=10.0)
    model = build_heat(lambda *x: 0.6 * sum(np.cos(np.pi * xi) for xi in x), grid, pg)
    a = grid.sample(lambda *x: math.prod(np.sin(np.pi * xi) + 0.3 for xi in x))
    b = grid.sample(lambda *x: sum(np.cos(2 * np.pi * xi) for xi in x)) if complex_u0 else 0 * a
    plan = EvolutionPlan("trotter", dt=0.01, t_final=0.2, snapshot_times=(0.0, 0.1, 0.2, 0.2))

    def run(u0):
        return model.evolve(model.initial_state(u0), plan)

    traj = run(a + 1j * b)
    w0 = model.initial_state(a + 1j * b)
    ref = full_spectrum_trotter(
        heat_freq_entries(model), heat_pos_entries(model), grid, pg, plan, w0.values
    )
    assert traj.times == ref.times == [0.0, 0.1, 0.2, 0.2]
    for state, want in zip(traj.states, ref.states):
        assert np.linalg.norm(state.values - want.values) <= 1e-13 * want.norm()
    assert np.array_equal(traj.states[-1].values, traj.states[-2].values)
    assert np.linalg.norm(traj.states[0].values - w0.values) <= 1e-14 * w0.norm()
    # the evolved p Nyquist mode is complex even for real data
    nyquist = to_modes(ref.final.matrix)[:, 0]
    assert np.abs(nyquist.imag).max() > 1e-8 * np.abs(nyquist).max()
    if complex_u0:
        for state, re, im in zip(traj.states, run(a).states, run(b).states):
            assert np.linalg.norm(state.values - (re.values + 1j * im.values)) <= 1e-14 * state.norm()


def _power_route_setup(dims, points=8, p_points=32):
    grid = Grid(-1, 1, points, dims)
    pg = PGrid(-4, 4, p_points, alpha_neg=10.0)
    model = build_heat(lambda *x: 0.6 * sum(np.cos(np.pi * xi) for xi in x), grid, pg)
    u0 = grid.sample(lambda *x: math.prod(np.sin(np.pi * xi) + 0.3 for xi in x))
    return model, u0


@pytest.mark.parametrize("dims, points", [(1, 8), (2, 4)])
@pytest.mark.parametrize("complex_u0", [False, True], ids=["real_u0", "complex_u0"])
def test_trotter_power_route_matches_step_loop(monkeypatch, dims, points, complex_u0):
    # uneven gaps (0, 3, 7, 0, 20 steps), a t = 0 snapshot and a repeated
    # time: each gap is one block power, which agrees with stepping
    model, a = _power_route_setup(dims, points)
    u0 = a + 1j * model.grid.sample(lambda *x: sum(np.cos(2 * np.pi * xi) for xi in x)) if complex_u0 else a
    w0 = model.initial_state(u0)
    times = (0.0, 0.03, 0.1, 0.1, 0.3)
    plan = EvolutionPlan("trotter", dt=0.01, t_final=0.3, snapshot_times=times)
    ref = full_spectrum_trotter(
        heat_freq_entries(model), heat_pos_entries(model), model.grid, model.pgrid, plan, w0.values
    )
    loop, powers = (model.evolve(w0, plan) for _ in _trotter_routes(monkeypatch))
    assert powers.x_transforms == 2 and loop.x_transforms == 2 * 30
    assert powers.times == loop.times == list(times)
    for state, stepped, want in zip(powers.states, loop.states, ref.states):
        assert np.linalg.norm(state.values - stepped.values) <= 1e-13 * stepped.norm()
        assert np.linalg.norm(state.values - want.values) <= 1e-13 * want.norm()
    assert np.array_equal(powers.states[2].values, powers.states[3].values)
    assert np.linalg.norm(powers.states[0].values - w0.values) <= 1e-14 * w0.norm()


@pytest.mark.parametrize("n_steps", [1000, 100_000])
def test_trotter_power_route_block_products(monkeypatch, n_steps):
    # every gap g takes floor(log2 g) squarings and popcount(g) products
    # with the state, at most 2 floor(log2 g) + 1 (one chunk of p modes)
    products, gaps = [], []
    apply_power = evolvers._apply_power

    def counting(step, gap, part, product):
        gaps.append(gap)

        def counted(a, b):
            products.append(gap)
            return product(a, b)

        return apply_power(step, gap, part, counted)

    monkeypatch.setattr(evolvers, "_apply_power", counting)
    model, u0 = _power_route_setup(1, p_points=16)
    plan = EvolutionPlan(
        "trotter", dt=1 / n_steps, t_final=1.0, snapshot_times=(0.0, 0.37, 0.37, 0.5, 1.0)
    )
    traj = model.evolve(model.initial_state(u0), plan)
    want = [0, 37 * n_steps // 100, 13 * n_steps // 100, n_steps // 2]
    assert gaps == want and traj.x_transforms == 2
    bound = sum(2 * (g.bit_length() - 1) + 1 for g in want if g)
    exact = sum(g.bit_length() - 1 + bin(g).count("1") for g in want if g)
    assert len(products) == exact <= bound
    norm = np.linalg.norm(model.initial_state(u0).values)
    assert abs(traj.final.norm() - norm) <= 1e-11 * norm


def test_trotter_power_route_chunks_change_no_bit(monkeypatch):
    # a chunk of p modes goes through every gap on its own, so one block
    # per chunk, three (the last chunk short) and all 17 in one agree bit
    # for bit
    model, u0 = _power_route_setup(1)
    w0 = model.initial_state(u0 * (1 + 0.5j))
    plan = EvolutionPlan("trotter", dt=0.01, t_final=0.3, snapshot_times=(0.0, 0.03, 0.1, 0.3))
    whole = model.evolve(w0, plan).states
    for blocks in (1, 3):
        monkeypatch.setattr(evolvers, "_CHUNK_BYTES", blocks * 16 * 8 * 8)
        for state, want in zip(model.evolve(w0, plan).states, whole):
            assert np.array_equal(state.values, want.values)


def test_trotter_route_rule():
    # the 1-D M = 32 march case (400 steps) takes powers; a 16^2 grid over
    # 32 steps and the 1-D M = 32 grid over 32 steps keep stepping, as does
    # a plan with nothing to step
    assert evolvers._trotter_by_powers(32, [400])
    assert not evolvers._trotter_by_powers(16 * 16, [32])
    assert not evolvers._trotter_by_powers(32, [32])
    assert not evolvers._trotter_by_powers(32, [0])
    # building the blocks counts, and a power of one step costs more than
    # the step: snapshots one step apart keep the loop on any grid
    for n in (8, 32, 16 * 16, 32 * 32):
        assert not evolvers._trotter_by_powers(n, [1] * 400)
    # a block beyond the chunk budget (n > 128) keeps the loop at any gap
    assert evolvers._trotter_by_powers(128, [10**6])
    assert not evolvers._trotter_by_powers(129, [10**7])


def test_trotter_power_route_never_holds_the_block_stack():
    # the 129 blocks of 32 x 32 of the 1-D M = 32, P = 256 case make a
    # 2.1 MB stack; built and powered a chunk of p modes at a time, the
    # evolve stays within a few chunk budgets
    grid = Grid(-1, 1, 32)
    pg = PGrid(-6, 5, 256, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(lambda x: 0.5 * np.cos(np.pi * x), grid, pg)
    w0 = model.initial_state(grid.sample(lambda x: np.sin(np.pi * x)))
    plan = EvolutionPlan("trotter", dt=0.05 / 400, t_final=0.05)
    traj = model.evolve(w0, plan)
    peak = peak_bytes(lambda: model.evolve(w0, plan))
    stack = (pg.points // 2 + 1) * grid.size**2 * 16
    assert traj.x_transforms == 2
    assert peak < 5 * evolvers._CHUNK_BYTES < stack


def _trotter_16x16_p1024(scale=1.0):
    """The 16^2 x P1024 split step on its step loop, 32 steps, from
    scale * sin(pi x) sin(pi y)."""
    grid = Grid(-1, 1, 16, 2)
    pg = PGrid(-2, 5, 1024, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(lambda x, y: 0.5 * np.cos(np.pi * x), grid, pg)
    w0 = model.initial_state(scale * grid.sample(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)))
    return model, w0, EvolutionPlan("trotter", dt=0.05 / 32, t_final=0.05)


def test_trotter_snapshot_is_built_in_one_state():
    # the 16^2 x P1024 step loop: each snapshot's mirrored spectrum is
    # written and inverse-transformed in the one array that becomes its
    # values, so the evolve (the half state, two phase tables and the
    # snapshot) stays below three snapshots
    model, w0, plan = _trotter_16x16_p1024()
    traj = model.evolve(w0, plan)
    peak = peak_bytes(lambda: model.evolve(w0, plan))
    assert traj.x_transforms == 2 * 32
    assert peak < 3 * w0.u.size * w0.pgrid.points * 16


def test_trotter_complex_snapshot_is_the_parts_read_together():
    # u0 = a + i b is stepped as the batch [a, b]; the snapshot is the bits
    # of W(a) + 1j * W(b), the two real runs combined
    model, w0, plan = _trotter_16x16_p1024(1 + 0.5j)
    a = ProductState(u=w0.u.real, profile=w0.profile, pgrid=w0.pgrid, grid=w0.grid)
    b = ProductState(u=w0.u.imag, profile=w0.profile, pgrid=w0.pgrid, grid=w0.grid)
    traj = model.evolve(w0, plan)
    want = model.evolve(a, plan).final.values + 1j * model.evolve(b, plan).final.values
    assert np.array_equal(traj.final.values, want)
    assert traj.p_transforms == 1 + 2


def test_trotter_complex_snapshot_holds_one_state():
    # W(b) is multiplied by 1j and added into W(a) in place: beside the
    # half state (both parts) and the two phase tables, the evolve holds
    # the two parts' transforms, about four snapshots, not the five of a
    # combination into a fresh array
    model, w0, plan = _trotter_16x16_p1024(1 + 0.5j)
    model.evolve(w0, plan)
    peak = peak_bytes(lambda: model.evolve(w0, plan))
    assert peak < 4.5 * w0.u.size * w0.pgrid.points * 16


def test_mode_blocks_per_block_path_stays_within_the_chunk_budget():
    # a non-commuting n = 32, P = 512 system: its 8 MiB block stack is
    # built, decomposed and propagated a chunk of _CHUNK_BYTES at a time,
    # so the evolve holds a few chunks beside its output state
    rng = np.random.default_rng(31)
    n, pg = 32, PGrid(-4, 4, 512)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (m + m.conj().T) / 2
    w0 = WarpedState(values=rng.standard_normal(n * 512) + 1j * rng.standard_normal(n * 512), pgrid=pg)
    evolve_mode_blocks(h1, h2, w0, [0.5])
    peak = peak_bytes(lambda: evolve_mode_blocks(h1, h2, w0, [0.5]))
    stack = pg.points * n * n * 16
    assert peak < 4 * evolvers._CHUNK_BYTES + n * pg.points * 16 < stack


def test_mode_blocks_per_block_snapshots_are_transformed_in_place():
    # each of T = 16 snapshots is inverse-transformed in its own slice of
    # the one (T, n, P) output, so the evolve holds the T snapshots, the p
    # transform of the input and one chunk's blocks and eigenvectors
    rng = np.random.default_rng(31)
    n, pg, times = 32, PGrid(-4, 4, 512), list(np.linspace(0.0, 1.0, 16))
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (m + m.conj().T) / 2
    w0 = WarpedState(values=rng.standard_normal(n * 512) + 1j * rng.standard_normal(n * 512), pgrid=pg)
    evolve_mode_blocks(h1, h2, w0, times)
    peak = peak_bytes(lambda: evolve_mode_blocks(h1, h2, w0, times))
    assert peak < (len(times) + 3.5) * n * pg.points * 16


def test_half_spectrum_trotter_rejects_a_complex_profile():
    # the mirror holds only for real data in p
    model, w0 = _heat_setup()
    w0 = ProductState(u=w0.u, profile=w0.profile * np.exp(0.1j), pgrid=w0.pgrid, grid=w0.grid)
    with pytest.raises(ValueError, match="real p profile"):
        model.evolve(w0, EvolutionPlan("trotter", dt=0.1, t_final=0.2))


def test_stepped_plan_rejects_off_step_snapshots():
    # an off-step time would be snapped to a neighbouring step (and two times
    # could collapse into one); the plan names the admissible neighbours
    with pytest.raises(ValueError, match=r"t = 0.11 .*nearest admissible times are 0.1 and 0.2"):
        EvolutionPlan("trotter", dt=0.1, t_final=1.0, snapshot_times=(0.11, 0.12, 0.4))
    with pytest.raises(ValueError, match="nearest admissible"):
        EvolutionPlan("upwind_fd", dt=0.25, t_final=1.0, snapshot_times=(0.3,))
    plan = EvolutionPlan("trotter", dt=0.1, t_final=1.0, snapshot_times=(0.0, 0.3, 1.0))
    assert plan.snapshot_times == (0.0, 0.3, 1.0)
    EvolutionPlan("exact_diagonal", dt=0.1, t_final=1.0, snapshot_times=(0.11, 0.12))


def _boltzmann_setup():
    model = build_boltzmann(
        QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([0.5, 0.5])),
        Grid(-1, 1, 8),
        PGrid(-3, 5, 32, alpha_neg=10.0, left_support=-1.0),
    )
    return model, model.initial_state(1 + 0.5 * np.cos(np.pi * model.grid.axis()))


def _repeat_snapshot_run(engine):
    if engine == "boltzmann_trotter":
        model, w0 = _boltzmann_setup()
        engine = "trotter"
    elif engine == "exact_diagonal_varying_v":
        model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
        engine = "exact_diagonal"
    else:
        model, w0 = _heat_setup(v=None)  # upwind CFL bound: dt <= 1/128
    plan = EvolutionPlan(engine, dt=1 / 128, t_final=0.25, snapshot_times=(0.125, 0.125, 0.25))
    return model.evolve(w0, plan)


@pytest.mark.parametrize(
    "engine", ["exact_diagonal", "trotter", "upwind_fd", "exact_diagonal_varying_v", "boltzmann_trotter"]
)
def test_repeated_snapshot_times_are_all_returned(engine):
    # a time requested twice is returned twice, by the stepped engines too
    traj = _repeat_snapshot_run(engine)
    assert traj.times == [0.125, 0.125, 0.25]
    assert np.array_equal(traj.states[0].values, traj.states[1].values)


@pytest.mark.parametrize("engine", ["trotter", "upwind_fd", "boltzmann_trotter"])
def test_stepped_engines_label_snapshots_with_requested_times(engine):
    # 3 * 0.1 is 0.30000000000000004: the trajectory lists the time asked
    # for, not step * dt
    plan = EvolutionPlan(
        engine.removeprefix("boltzmann_"), dt=0.1, t_final=1.0, snapshot_times=(0.3, 0.7)
    )
    if engine == "upwind_fd":
        fd = FDTransport(a_mat=np.array([[-1.0, 0.5], [0.5, -2.0]]), pgrid=PGrid(-4, 4, 16))
        traj = evolve_upwind_fd(fd, _random_product(np.random.default_rng(2), 2, fd.pgrid), plan)
    else:
        model, w0 = _boltzmann_setup() if engine == "boltzmann_trotter" else _heat_setup()
        traj = model.evolve(w0, plan)
    assert traj.times == [0.3, 0.7]


def _per_block_reference(h1, h2, pgrid, w0, times):
    """One eigh per p-frequency block -eta*H1 + H2, with no shared basis."""
    n = h1.shape[0]
    wt = to_modes(np.asarray(w0, dtype=complex).reshape(n, pgrid.points), axis=1).T
    eta = pgrid.mu()
    lam, q = np.linalg.eigh(-eta[:, None, None] * h1[None] + h2[None])
    y = np.einsum("kji,kj->ki", q.conj(), wt)
    out = []
    for t in times:
        vt = np.einsum("kij,kj->ki", q, np.exp(1j * lam * t) * y)
        out.append(from_modes(vt.T, axis=1).reshape(-1))
    return out


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of every np.linalg.eigh argument while the test runs."""
    shapes = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


def _assert_matches_per_block(h1, h2, pgrid, w0, times, eigh_shapes, expected_shapes):
    got = evolve_mode_blocks(h1, h2, w0, times)
    assert eigh_shapes == expected_shapes
    ref = _per_block_reference(h1, h2, pgrid, w0.values, times)
    for g, r in zip(got.states, ref, strict=True):
        assert np.linalg.norm(g.values - r) / np.linalg.norm(r) <= 1e-10


def _fokker_planck(form):
    v = lambda x: 0.5 * np.cos(np.pi * x)
    grad = lambda x: -0.5 * np.pi * np.sin(np.pi * x)
    lap = lambda x: -0.5 * np.pi**2 * np.cos(np.pi * x)
    pg = PGrid(-12, 8, 128, alpha_neg=10.0, left_support=-1.0)
    model = build_fokker_planck(v, 0.2, Grid(-1, 1, 16), pg, form=form, grad_v=[grad], lap_v=lap)
    return model, model.initial_state(np.exp(-4 * model.grid.axis() ** 2))


@pytest.mark.parametrize("form", ["conservation", "heat_form"])
def test_mode_blocks_shared_basis_fokker_planck(form, eigh_shapes):
    # H2 = 0 commutes with H1: one n x n eigh instead of one per block
    model, w0 = _fokker_planck(form)
    h1 = model.h1
    _assert_matches_per_block(
        h1, np.zeros_like(h1), model.pgrid, w0, [0.0, 0.3, 1.0], eigh_shapes, [h1.shape]
    )


def test_fokker_planck_evolve_takes_one_small_eigh(eigh_shapes):
    model, w0 = _fokker_planck("conservation")
    model.evolve(w0, EvolutionPlan("exact_diagonal", dt=1.0, t_final=1.0))
    assert eigh_shapes == [(16, 16)]


def test_mode_blocks_shared_basis_commuting_degenerate_h1(eigh_shapes):
    # H1 is degenerate, so its own eigenvectors need not diagonalise H2; the
    # combination H1 + gamma*H2 separates the degenerate directions
    rng = np.random.default_rng(21)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    h1 = u @ np.diag([-1.0, -1.0, -1.0, -2.0, -3.0, -3.0]) @ u.conj().T
    h2 = u @ np.diag([0.3, -0.5, 0.7, 0.1, 0.2, -0.4]) @ u.conj().T
    _, q1 = np.linalg.eigh(h1)
    d2 = q1.conj().T @ h2 @ q1
    assert np.abs(d2 - np.diag(np.diagonal(d2))).max() > 1e-3
    eigh_shapes.clear()
    pg = PGrid(-6, 6, 64)
    w0 = extend_initial(rng.standard_normal(6), pg)
    _assert_matches_per_block(h1, h2, pg, w0, [0.4, 1.0], eigh_shapes, [(6, 6)])


def test_mode_blocks_shared_basis_skew_liouville(eigh_shapes):
    # the skew lift of F = -q has H1 = 0.5 I, so one 128 x 128 eigh serves every block
    lift = build_liouville(lambda x: -x, Grid(-1, 1, 128), 0.5, 0.05)
    split = hermitian_split(lift.a_mat)
    pg = PGrid(-4, 6, 128, alpha_neg=10.0, left_support=-1.0)
    w0 = extend_initial(lift.u0.astype(complex), pg)
    eigh_shapes.clear()
    _assert_matches_per_block(
        split.h1, split.h2, pg, w0, [0.5, 1.0], eigh_shapes, [(128, 128)]
    )


def test_mode_blocks_non_commuting_pair_takes_per_block_eigh(eigh_shapes):
    # the commutator test rejects the pair before any n x n eigh
    rng = np.random.default_rng(22)
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = -(c @ c.conj().T)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h2 = (m + m.conj().T) / 2
    pg = PGrid(-4, 4, 32)
    w0 = WarpedState(values=rng.standard_normal(5 * 32) + 1j * rng.standard_normal(5 * 32), pgrid=pg)
    _assert_matches_per_block(h1, h2, pg, w0, [0.5], eigh_shapes, [(32, 5, 5)])


@pytest.mark.parametrize("shared", [True, False])
def test_mode_blocks_scalar_h2_is_that_multiple_of_identity(monkeypatch, shared):
    # H2 = c stands for c*I: the H2 = 0 evolution turned by exp(i c t), and
    # the same as the matrix c*I, on the shared basis and per block
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h1 = -(m @ m.conj().T)
    pg = PGrid(-4, 4, 64)
    w0 = extend_initial(rng.standard_normal(6) + 1j * rng.standard_normal(6), pg)
    if not shared:
        monkeypatch.setattr(evolvers, "_shared_eigenbasis", lambda h1, h2: None)
    c, t = 0.7, 0.5
    got = evolve_mode_blocks(h1, c, w0, [t]).final.values
    ref = np.exp(1j * c * t) * evolve_mode_blocks(h1, 0.0, w0, [t]).final.values
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * scale
    as_matrix = evolve_mode_blocks(h1, c * np.eye(6), w0, [t]).final.values
    assert np.abs(got - as_matrix).max() <= 1e-12 * scale


@pytest.mark.parametrize("shared", [True, False])
def test_mode_blocks_scalar_h1_is_that_multiple_of_identity(monkeypatch, shared):
    # H1 = c stands for c*I, on the shared basis (one eigh of H2) and per block
    rng = np.random.default_rng(32)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h2 = (m + m.conj().T) / 2
    pg = PGrid(-4, 4, 64)
    w0 = extend_initial(rng.standard_normal(6) + 1j * rng.standard_normal(6), pg)
    if not shared:
        monkeypatch.setattr(evolvers, "_shared_eigenbasis", lambda h1, h2: None)
    c, t = -0.4, 0.5
    got = evolve_mode_blocks(c, h2, w0, [t]).final
    as_matrix = evolve_mode_blocks(c * np.eye(6), h2, w0, [t]).final
    scale = np.abs(as_matrix.values).max()
    assert np.abs(got.values - as_matrix.values).max() <= 1e-12 * scale
    if shared:  # every mode travels at speed -c, on one transport row
        assert got.coarse.shape[0] == 1 and not np.any(got.rows)


def test_bundled_liouville_split_takes_the_scalar_route(monkeypatch, eigh_shapes):
    # the skew lift of the bundled linear field has H1 = 0.5 I to rounding:
    # the split carries it as the scalar, so neither the stability check nor
    # the evolution takes an eigvalsh, and one eigh of H2 serves every p
    # block, all modes on one transport row
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs" / "liouville.json"
    with pytest.warns(StabilityWarning, match="lambda_max"):
        model, u0 = parse_config(json.loads(path.read_text())).model.build()
    split = model.split
    assert split.h1_scalar == pytest.approx(0.5, abs=1e-14)
    assert np.array_equal(split.h1_eigvals, np.full(128, split.h1_scalar))
    # the reference takes one eigh per block: a 128-point p-grid keeps it small
    pg = PGrid(-4, 6, 128, alpha_neg=10.0, left_support=-1.0)
    w0 = extend_initial(u0, pg)
    eigh_shapes.clear()
    plan = EvolutionPlan("exact_diagonal", dt=1.0, t_final=1.0, snapshot_times=(0.5, 1.0))
    traj = dataclasses.replace(model, pgrid=pg).evolve(w0, plan)
    assert eigh_shapes == [(128, 128)] and calls == []
    assert all(state.coarse.shape[0] == 1 for state in traj.states)
    ref = _per_block_reference(split.h1, split.h2, pg, w0.values, [0.5, 1.0])
    for state, r in zip(traj.states, ref, strict=True):
        assert np.linalg.norm(state.values - r) / np.linalg.norm(r) <= 1e-10


@pytest.mark.parametrize("ratio", [0.5, 1.5])
def test_split_is_scalar_only_within_the_shared_basis_tolerance(ratio):
    # H1 = c I + E with |E|_F at ratio * _SHARED_BASIS_TOL * |H1|_F: below
    # the tolerance H1 is carried as c, above it the matrix keeps today's
    # route, with the bits of evolve_mode_blocks on the matrix
    rng = np.random.default_rng(33)
    n, c = 6, -0.5
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = e + e.conj().T
    np.fill_diagonal(e, 0.0)  # traceless: the mean of the diagonal stays c
    e *= ratio * evolvers._SHARED_BASIS_TOL * abs(c) * math.sqrt(n) / np.linalg.norm(e)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (m + m.conj().T) / 2
    split = hermitian_split(c * np.eye(n) + e + 1j * h2)
    pg = PGrid(-4, 4, 32)
    w0 = extend_initial(rng.standard_normal(n), pg)
    plan = EvolutionPlan("exact_diagonal", dt=1.0, t_final=1.0)
    got = assemble_schrodingerised(split, pg).evolve(w0, plan).final.values
    if ratio < 1:
        assert split.h1_scalar == pytest.approx(c, abs=1e-15)
        assert np.array_equal(got, evolve_mode_blocks(split.h1_scalar, split.h2, w0, [1.0]).final.values)
    else:
        assert split.h1_scalar is None
        assert np.array_equal(split.h1_eigvals, np.linalg.eigvalsh(split.h1))
        assert np.array_equal(got, evolve_mode_blocks(split.h1, split.h2, w0, [1.0]).final.values)


def test_mode_blocks_shared_basis_needs_product_state():
    # the factored route starts from the two factors of u0 (x) g(p); the
    # samples of a commuting system are refused, not silently re-routed
    model, w0 = _fokker_planck("conservation")
    h1 = model.h1
    samples = WarpedState(values=w0.values, pgrid=w0.pgrid, grid=w0.grid)
    with pytest.raises(TypeError, match="ProductState"):
        evolve_mode_blocks(h1, np.zeros_like(h1), samples, [0.5])


def test_mode_blocks_failed_residual_check_falls_back(monkeypatch):
    # a candidate basis that does not diagonalise both parts is discarded
    shapes = []
    real_eigh = np.linalg.eigh

    def identity_basis_for_one_matrix(a, *args, **kwargs):
        shapes.append(np.shape(a))
        lam, q = real_eigh(a, *args, **kwargs)
        return (lam, np.eye(a.shape[-1], dtype=q.dtype)) if np.ndim(a) == 2 else (lam, q)

    monkeypatch.setattr(np.linalg, "eigh", identity_basis_for_one_matrix)
    model, w0 = _fokker_planck("conservation")
    h1 = model.h1
    h2 = np.zeros_like(h1)
    got = evolve_mode_blocks(h1, h2, w0, [0.5])
    # the candidate's eigh, then the 128 complex 16 x 16 blocks in chunks
    # of _CHUNK_BYTES
    assert shapes == [(16, 16), (64, 16, 16), (64, 16, 16)]
    monkeypatch.setattr(np.linalg, "eigh", real_eigh)
    ref = _per_block_reference(h1, h2, model.pgrid, w0.values, [0.5])
    assert np.linalg.norm(got.final.values - ref[0]) / np.linalg.norm(ref[0]) <= 1e-10


def test_mode_blocks_per_block_eigh_runs_in_chunks(eigh_shapes, monkeypatch):
    # the P blocks are built, decomposed and propagated a chunk at a time; the
    # result is bit-identical to one batched eigh of the whole stack
    rng = np.random.default_rng(23)
    c = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h1 = -(c @ c.conj().T)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h2 = (m + m.conj().T) / 2
    pg = PGrid(-4, 4, 128)
    w0 = WarpedState(values=rng.standard_normal(12 * 128) + 1j * rng.standard_normal(12 * 128), pgrid=pg)
    times = [0.0, 0.5, 1.0]
    # a budget of the whole stack of 128 complex 12 x 12 blocks
    monkeypatch.setattr(evolvers, "_CHUNK_BYTES", 128 * 12 * 12 * 16)
    whole = evolve_mode_blocks(h1, h2, w0, times)
    assert eigh_shapes == [(128, 12, 12)]
    eigh_shapes.clear()
    # a budget of 48 blocks, so the last chunk is partial
    monkeypatch.setattr(evolvers, "_CHUNK_BYTES", 48 * 12 * 12 * 16 + 100)
    chunked = evolve_mode_blocks(h1, h2, w0, times)
    assert eigh_shapes == [(48, 12, 12), (48, 12, 12), (32, 12, 12)]
    for a, b in zip(chunked.states, whole.states, strict=True):
        assert np.array_equal(a.values, b.values)
