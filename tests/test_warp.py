import numpy as np
import pytest

from schrodingerizer.evolvers import EvolutionPlan
from schrodingerizer.grids import Grid, PGrid, to_modes
from schrodingerizer.models import build_heat
from schrodingerizer.warp import (
    IntegrateP,
    PointP,
    WarpedState,
    containment_ratio,
    dominant_speed,
    estimate_domain,
    extend_initial,
    recover,
)

from oracles import analytic_mode_solution


def test_extend_zero_data():
    pg = PGrid(-4, 4, 32)
    w = extend_initial(np.zeros(8), pg)
    assert np.all(w.values == 0)


def test_extend_symmetric_when_alpha_one():
    pg = PGrid(-4, 4, 64, alpha_neg=1.0)
    w = extend_initial(np.ones(1), pg)
    prof = w.matrix[0].real
    p = pg.axis()
    for j, pj in enumerate(p):
        if pj > 0 and -pj >= pg.left:
            assert prof[j] == pytest.approx(prof[pg.index_of(-pj)])


def test_extend_profile_value_at_one():
    pg = PGrid(-4, 4, 64, alpha_neg=23.0)
    w = extend_initial(np.ones(2), pg)
    assert w.matrix[0, pg.index_of(1.0)].real == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_integrate_recovery_of_exact_profile():
    # w(x, p) = exp(-p) u(x) on p > 0: the integral over p > 0 is u itself
    pg = PGrid(-4, 28, 4096)
    u = np.array([1.0, -2.0, 0.5 + 0.25j])
    vals = np.outer(u, np.exp(-np.abs(pg.axis()))).reshape(-1)
    w = WarpedState(values=vals, pgrid=pg)
    got = recover(w, IntegrateP())
    assert np.abs(got - u).max() <= 1e-4


def test_point_recovery_consistent_across_nodes():
    pg = PGrid(-4, 4, 128)
    u = np.array([0.3, -1.0, 2.0j])
    profile = np.where(pg.axis() > 0, np.exp(-pg.axis()), 0.0)
    w = WarpedState(values=np.outer(u, profile).reshape(-1), pgrid=pg)
    base = recover(w, PointP())
    for p_star in pg.axis()[pg.axis() > 0]:
        got = recover(w, PointP(float(p_star)))
        assert np.abs(got - base).max() <= 1e-12
        assert np.abs(got - u).max() <= 1e-12


def test_point_recovery_validation():
    pg = PGrid(-4, 4, 64)
    w = extend_initial(np.ones(2), pg)
    with pytest.raises(ValueError):
        recover(w, PointP(-1.0))
    with pytest.raises(ValueError):
        recover(w, PointP(0.0))
    with pytest.raises(ValueError):
        recover(w, PointP(0.5 * pg.dp))


def test_estimate_domain_values():
    t_star = 4.0 / np.pi**2
    assert t_star == pytest.approx(0.4053, abs=1e-4)
    assert estimate_domain(t_star, np.pi**2, -1.0) == pytest.approx(-5.0)
    assert estimate_domain(1.0, np.pi**2, -1.0) == pytest.approx(-10.8696, abs=1e-4)
    assert estimate_domain(0.0, 3.0, -1.0) == -1.0
    with pytest.raises(ValueError):
        estimate_domain(1.0, -1.0, -1.0)


def test_analytic_mode_solution_basics():
    p = np.linspace(-3, 3, 7)
    init = analytic_mode_solution(2.0, 5.0, 0.0, p, alpha_neg=9.0)
    assert np.allclose(init, 2.0 * np.exp(-np.where(p >= 0, 1.0, 9.0) * np.abs(p)))
    frozen = analytic_mode_solution(1.5, 0.0, 10.0, p, alpha_neg=9.0)
    assert np.allclose(frozen, analytic_mode_solution(1.5, 0.0, 0.0, p, alpha_neg=9.0))


def test_analytic_mode_solution_point_value():
    got = analytic_mode_solution(1.0, np.pi**2, 0.1, 0.5, alpha_neg=1.0)
    assert got == pytest.approx(np.exp(-(0.5 + 0.1 * np.pi**2)), rel=1e-12)
    assert got == pytest.approx(0.2261, abs=1e-4)


def test_dominant_speed_sin_mode():
    grid = Grid(-1, 1, 16)
    u0 = np.sin(np.pi * grid.axis())
    assert dominant_speed(u0, grid) == pytest.approx(np.pi**2)


def _heat_run(points, t_final, pgrid):
    grid = Grid(-1, 1, 16)
    model = build_heat(None, grid, pgrid)
    u0 = np.sin(np.pi * grid.axis())
    w0 = model.initial_state(u0)
    plan = EvolutionPlan("exact_diagonal", dt=t_final, t_final=t_final)
    final = model.evolve(w0, plan).final
    return model, u0, model.wrap(final, t_final)


def test_modewise_oracle_matches_analytic_solution():
    # every p node of the evolved mode profile agrees with the characteristic
    # solution up to the kink-limited spectral error
    t_star = 4.0 / np.pi**2
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    model, u0, w = _heat_run(16, t_star, pg)
    modes = to_modes(w.matrix, axis=0)
    u0_modes = to_modes(u0.astype(complex))
    mu = model.grid.mu()
    p = pg.axis()
    for l in np.nonzero(np.abs(u0_modes) > 1e-10)[0]:
        ref = analytic_mode_solution(u0_modes[l], mu[l] ** 2, t_star, p, alpha_neg=10.0)
        err = np.abs(modes[l] - ref).max() / np.abs(u0_modes[l])
        assert err <= 0.05


def test_heat_positive_p_norm_decays():
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    grid = Grid(-1, 1, 16)
    model = build_heat(None, grid, pg)
    u0 = np.sin(np.pi * grid.axis())
    w0 = model.initial_state(u0)
    mask = pg.axis() > 0
    times = [0.0, 0.1, 0.2, 0.3, 4.0 / np.pi**2]
    norms = []
    for t in times:
        if t == 0.0:
            state = w0.matrix
        else:
            plan = EvolutionPlan("exact_diagonal", dt=t, t_final=t)
            state = model.wrap(model.evolve(w0, plan).final, t).matrix
        norms.append(float(np.linalg.norm(state[:, mask])))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-6 * norms[0]


def test_containment_with_estimated_domain():
    # long-horizon sizing: the fastest mode must not touch the left edge
    t_final = 1.0
    left = estimate_domain(t_final, np.pi**2, -1.0)
    pg = PGrid(left, 10.0, 4096, alpha_neg=40.0, left_support=-1.0)
    _, _, w = _heat_run(16, t_final, pg)
    assert containment_ratio(w) <= 1e-6


def test_containment_zero_state():
    pg = PGrid(-4, 4, 32)
    w = WarpedState(values=np.zeros(4 * 32, dtype=complex), pgrid=pg)
    assert containment_ratio(w) == 0.0
