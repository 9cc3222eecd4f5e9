import numpy as np
import pytest

from schrodingerizer.evolvers import (
    CFLError,
    EvolutionPlan,
    FDTransport,
    dense_expm_oracle,
    evolve_exact_diagonal,
    evolve_mode_blocks,
    evolve_trotter,
    evolve_upwind_fd,
    spectral_radius,
)
from schrodingerizer.grids import Grid, PGrid
from schrodingerizer.models import build_heat
from schrodingerizer.ode import assemble_schrodingerised, hermitian_split
from schrodingerizer.warp import PointP


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


def test_exact_diagonal_identity_and_half_turn():
    w = np.array([1.0 + 0j])
    assert np.allclose(evolve_exact_diagonal(np.array([np.pi]), w, 0.0), w)
    assert np.allclose(evolve_exact_diagonal(np.array([np.pi]), w, 1.0), [-1.0])


def test_exact_diagonal_preserves_norm():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    out = evolve_exact_diagonal(rng.standard_normal(1024), w, 3.7)
    assert abs(np.linalg.norm(out) - np.linalg.norm(w)) <= 1e-13 * np.linalg.norm(w)


def test_exact_diagonal_rejects_complex_generator():
    with pytest.raises(ValueError):
        evolve_exact_diagonal(np.array([1.0 + 1e-6j]), np.ones(1, dtype=complex), 1.0)


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
    stepped = model.evolve(w0, EvolutionPlan("trotter", dt=t / 16, t_final=t)).final
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final
    assert np.linalg.norm(stepped - exact) / np.linalg.norm(exact) <= 1e-10


def test_trotter_zero_potential_matches_exact_diagonal():
    model, w0 = _heat_setup(v=None)
    t = 0.25
    stepped = model.evolve(w0, EvolutionPlan("trotter", dt=t / 8, t_final=t)).final
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final
    assert np.linalg.norm(stepped - exact) / np.linalg.norm(exact) <= 1e-10


def test_trotter_first_order_against_dense_oracle():
    model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
    t = 0.25
    h = sum(term.dense() for term in model.h_terms())
    ref = dense_expm_oracle(1j * h, w0.values, t)
    errs = []
    for steps in (32, 64, 128):
        out = model.evolve(w0, EvolutionPlan("trotter", dt=t / steps, t_final=t)).final
        errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(2.0, abs=0.2)


def test_trotter_transform_budget():
    # the split applies the spatial transform twice per step and the p
    # transform twice per run
    model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
    plan = EvolutionPlan("trotter", dt=0.01, t_final=0.25)
    traj = model.evolve(w0, plan)
    assert traj.x_transforms == 2 * plan.n_steps
    assert traj.p_transforms == 2


def test_trotter_norm_preservation_long_run():
    model, w0 = _heat_setup(v=lambda x: np.cos(np.pi * x))
    traj = model.evolve(w0, EvolutionPlan("trotter", dt=1e-3, t_final=1.0))
    drift = abs(np.linalg.norm(traj.final) - w0.norm()) / w0.norm()
    assert drift <= 1e-12


def test_upwind_zero_matrix_is_frozen():
    pg = PGrid(-2, 2, 16)
    fd = FDTransport(a_mat=np.zeros((3, 3)), pgrid=pg)
    w0 = np.random.default_rng(1).standard_normal(3 * 16)
    out = evolve_upwind_fd(fd, EvolutionPlan("upwind_fd", dt=0.1, t_final=1.0), w0).final
    assert np.allclose(out, w0)


def test_periodic_laplacian_eigenvalues_m4():
    # oracle: lambda_k = -(4/dx^2) sin^2(k pi / M)
    grid = Grid(-1, 1, 4)
    model = build_heat(None, grid, PGrid(-2, 2, 16))
    lam = np.sort(np.linalg.eigvalsh(model.fd_transport().a_mat))
    dx = grid.dx
    ref = np.sort([-(4 / dx**2) * np.sin(k * np.pi / 4) ** 2 for k in range(4)])
    assert np.allclose(lam, ref)
    assert np.allclose(np.sort(ref), [-16.0, -8.0, -8.0, 0.0])


def test_upwind_step_matrix_structure():
    # row j: (I + A1) on the diagonal, -A1 to the right, wraparound in the
    # last block row
    pg = PGrid(-2, 2, 4)
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    fd = FDTransport(a_mat=a, pgrid=pg)
    dt = 0.1
    big = fd.step_matrix(dt)
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
        evolve_upwind_fd(fd, bad, w0.values)
    assert err.value.admissible == pytest.approx(fd.admissible_dt())


def test_upwind_rejects_positive_eigenvalues():
    with pytest.raises(ValueError):
        FDTransport(a_mat=np.array([[1.0]]), pgrid=PGrid(-2, 2, 8))


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
    got = model.recover(model.wrap(model.evolve(w0, plan).final, t_star), PointP())
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
    sysm = assemble_schrodingerised(hermitian_split(h1 + 1j * h2), pg, rng.standard_normal(n))
    t = 0.6
    got = sysm.evolve([t])[0].values
    ref = dense_expm_oracle(1j * sysm.dense_h(), sysm.w0.values, t)
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_spectral_radius_matches_eigsh():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((12, 12))
    h = (m + m.T) / 2
    assert spectral_radius(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).max(), rel=1e-5)


def test_cross_engine_agreement_on_heat():
    # spectral engines agree pairwise far below the discretisation error;
    # the dense oracle closes the triangle
    grid = Grid(-1, 1, 16)
    pg = PGrid(-5, 5, 128, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    u0 = np.sin(np.pi * grid.axis())
    w0 = model.initial_state(u0)
    t_star = 4.0 / np.pi**2
    exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t_star, t_final=t_star)).final
    trotter = model.evolve(w0, EvolutionPlan("trotter", dt=t_star / 64, t_final=t_star)).final
    dense = model.evolve(w0, EvolutionPlan("dense_expm", dt=t_star, t_final=t_star)).final
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(exact - trotter) / scale <= 1e-8
    assert np.linalg.norm(exact - dense) / scale <= 1e-8
    fd = model.fd_transport()
    steps = int(np.ceil(t_star / fd.admissible_dt()))
    upwind = model.evolve(w0, EvolutionPlan("upwind_fd", dt=t_star / steps, t_final=t_star)).final
    # the march differs from the spectral state by its O(dt + dp) defect
    assert np.linalg.norm(upwind - exact) / scale <= 0.5


def test_trotter_intermediate_snapshots_match_exact():
    model, w0 = _heat_setup(v=None)
    t_final = 0.2
    plan = EvolutionPlan(
        "trotter", dt=t_final / 8, t_final=t_final,
        snapshot_times=(0.0, t_final / 2, t_final),
    )
    traj = model.evolve(w0, plan)
    assert traj.times == [0.0, t_final / 2, t_final]
    assert np.allclose(traj.states[0], w0.values)
    for t, state in zip(traj.times[1:], traj.states[1:]):
        exact = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t, t_final=t)).final
        assert np.linalg.norm(state - exact) / np.linalg.norm(exact) <= 1e-10


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
