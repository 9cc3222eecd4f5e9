import json
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from schrodingerizer import evolvers
from schrodingerizer.cli import main
from schrodingerizer.config import parse_config
from schrodingerizer.dilation import build_dilation_step, evolutionary_step
from schrodingerizer.evolvers import EvolutionPlan
from schrodingerizer.grids import Grid, PGrid, density_mass, density_moment, from_modes, to_modes
from schrodingerizer.models import (
    QuadratureRule,
    build_black_scholes,
    build_boltzmann,
    build_convection,
    build_fokker_planck,
    build_heat,
    build_liouville,
    default_ordinates,
    exact_convection_solution,
    exact_heat_solution,
)
from schrodingerizer.ode import hermitian_split
from schrodingerizer.warp import IntegrateP, PointP, ProductState

from oracles import (
    black_scholes_mode_entries,
    conservation_generator,
    convection_sin_entries,
    dense_expm_oracle,
    hamiltonian,
    heat_hdiag,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
BUNDLED = sorted(path.stem for path in (ROOT / "scripts" / "configs").glob("*.json") if path.stem != "estimate_heat")


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")  # liouville, ode_demo
@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_model_starts_as_a_product_state(name):
    # u0 (x) g(p) kept as its two factors, through extend_initial (the sin(p)
    # profile for convection), whatever the route that evolves it
    raw = json.loads((ROOT / "scripts" / "configs" / f"{name}.json").read_text())
    model, u0 = parse_config(raw).model.build()
    assert isinstance(model.initial_state(u0), ProductState)


def _hermiticity(h, tol=1e-12):
    return np.abs(h - h.conj().T).max() <= tol * max(1.0, np.abs(h).max())


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------


def test_heat_hamiltonian_hermitian_with_potential():
    model = build_heat(lambda x: np.cos(np.pi * x), Grid(-1, 1, 8), PGrid(-4, 4, 16))
    assert _hermiticity(hamiltonian(model))
    assert _hermiticity(heat_hdiag(model))


@pytest.mark.parametrize("points", [2, 4, 16])
def test_heat_fd_laplacian_annihilates_constants(points):
    # the periodic stencil u[j-1] - 2 u[j] + u[j+1]: on two nodes both
    # neighbours are the one other node, which the stencil counts twice
    grid = Grid(-1, 1, points)
    model = build_heat(lambda x: np.cos(np.pi * x) - 2.0, grid, PGrid(-4, 4, 16))
    lap = model.fd_transport().a_mat - np.diag(model.v_values)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * np.abs(lap).max()
    assert np.allclose(np.diag(lap), -2.0 / grid.dx**2)


def test_heat_short_run_recovers_decay():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    u0 = np.sin(np.pi * grid.axis())
    t = 0.1
    traj = model.evolve(model.initial_state(u0), EvolutionPlan("exact_diagonal", dt=t, t_final=t))
    got = model.recover(traj.final, PointP())
    exact = np.exp(-np.pi**2 * t) * np.sin(np.pi * grid.axis())
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) <= 5e-3


def test_heat_integral_recovery_with_adequate_tail_window():
    # the integral recovery needs exp(-p) data surviving above p = 0 at the
    # final time: with R - s_max T well above the e-folding scale it meets
    # the same tolerance-and-rate contract as the point recovery
    grid = Grid(-1, 1, 16)
    t_star = 4.0 / np.pi**2
    u0 = np.sin(np.pi * grid.axis())
    exact = np.exp(-4.0) * np.sin(np.pi * grid.axis())
    errs = []
    for n in (512, 1024, 2048):
        pg = PGrid(-5, 15, n, alpha_neg=10.0, left_support=-1.0)
        model = build_heat(None, grid, pg)
        traj = model.evolve(
            model.initial_state(u0), EvolutionPlan("exact_diagonal", dt=t_star, t_final=t_star)
        )
        got = model.recover(traj.final, IntegrateP())
        errs.append(np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert errs[0] <= 2e-2
    slope = -np.polyfit(np.arange(3.0), np.log2(errs), 1)[0]
    assert slope >= 0.9


def test_exact_heat_solution_constant_potential():
    grid = Grid(-1, 1, 16)
    u0 = np.sin(np.pi * grid.axis()) + 0.2
    got = exact_heat_solution(u0, grid, 0.3, v_const=0.5)
    ref = np.exp((0.5 - np.pi**2) * 0.3) * np.sin(np.pi * grid.axis()) + 0.2 * np.exp(0.5 * 0.3)
    assert np.abs(got - ref).max() <= 1e-12


# ---------------------------------------------------------------------------
# convection
# ---------------------------------------------------------------------------


def test_convection_both_routes_translate():
    grid = Grid(-1, 1, 32)
    model = build_convection(grid, p_points=64)
    x = grid.axis()
    u0 = np.sin(np.pi * x)
    t = 0.3
    ref = np.sin(np.pi * (x - t))  # method of characteristics
    direct = model.exact(u0, t)
    assert np.linalg.norm(direct - ref) / np.linalg.norm(ref) <= 1e-10
    traj = model.evolve(model.initial_state(u0), EvolutionPlan("exact_diagonal", dt=t, t_final=t))
    from schrodingerizer.warp import WarpedState

    w = WarpedState(values=traj.final.values, pgrid=model.pgrid, t=t, grid=grid)
    warped = model.recover(w)
    assert np.linalg.norm(warped - ref) / np.linalg.norm(ref) <= 1e-10
    assert np.linalg.norm(exact_convection_solution(u0, grid, t) - ref) <= 1e-10


def test_convection_constant_data_is_invariant():
    grid = Grid(-1, 1, 16)
    model = build_convection(grid)
    u0 = np.full(16, 2.5)
    out = model.exact(u0, 1.7)
    assert np.abs(out - u0).max() <= 1e-12


def test_convection_2d_generator_real_diagonal():
    grid = Grid(-1, 1, 8, dims=2)
    model = build_convection(grid, p_points=16)
    entries = convection_sin_entries(model)
    assert np.isrealobj(entries)
    mu = grid.mu()
    eta = model.pgrid.mu()
    ref = -(mu[:, None, None] + mu[None, :, None]) * eta[None, None, :] ** 2
    assert np.allclose(entries, ref.reshape(-1))
    assert _hermiticity(hamiltonian(model))


# ---------------------------------------------------------------------------
# Black-Scholes
# ---------------------------------------------------------------------------


def test_black_scholes_drift_cancels_at_balance():
    model = build_black_scholes(0.02, 0.2, Grid(-1, 1, 16), PGrid(-4, 4, 32))
    assert np.abs(model.phase_rates()).max() <= 1e-14


def test_black_scholes_mode_entries():
    # derived via the Hermitian split of the mode-space symbol
    # a(mu) = i(r - sigma^2/2) mu - (sigma^2/2 mu^2 + r)
    model = build_black_scholes(0.05, 0.2, Grid(-1, 1, 16), PGrid(-4, 4, 32))
    mu = model.grid.mu()
    eta = model.pgrid.mu()
    sym = 1j * (0.05 - 0.02) * mu - (0.02 * mu**2 + 0.05)
    ref = (-sym.real[:, None] * eta + sym.imag[:, None]).reshape(-1)
    assert np.allclose(black_scholes_mode_entries(model), ref)
    assert _hermiticity(hamiltonian(model))


def test_black_scholes_split_commutes_and_factorises():
    model = build_black_scholes(0.05, 0.2, Grid(-1, 1, 8), PGrid(-4, 4, 16))
    h1 = np.diag(model.contraction_rates())
    h2 = np.diag(model.phase_rates())
    assert np.abs(h1 @ h2 - h2 @ h1).max() == 0.0
    t = 0.8
    full = scipy.linalg.expm((h1 + 1j * h2) * t)
    factored = scipy.linalg.expm(h1 * t) @ scipy.linalg.expm(1j * h2 * t)
    assert np.abs(full - factored).max() <= 1e-10


def test_black_scholes_one_shot_dilation_equals_stepped():
    model = build_black_scholes(0.05, 0.2, Grid(-1, 1, 16), PGrid(-4, 4, 32))
    h1 = np.diag(model.contraction_rates())
    h2 = np.diag(model.phase_rates())
    psi = np.exp(-model.grid.axis() ** 2) + 0j
    t = 0.7
    one_shot, _ = evolutionary_step(build_dilation_step(h1, h2, t), psi)
    n_steps = 10
    step = build_dilation_step(h1, h2, t / n_steps)
    cur = psi.copy()
    for _ in range(n_steps):
        cur, _ = evolutionary_step(step, cur)
    assert np.abs(one_shot - cur).max() <= 1e-10


def test_black_scholes_end_to_end():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-6, 8, 512, alpha_neg=10.0, left_support=-1.0)
    model = build_black_scholes(0.05, 0.2, grid, pg)
    u0 = np.sin(np.pi * grid.axis()) + 0.5 * np.cos(2 * np.pi * grid.axis())
    t = 0.7
    traj = model.evolve(model.initial_state(u0), EvolutionPlan("exact_diagonal", dt=t, t_final=t))
    got = model.recover(traj.final, PointP())
    ref = model.exact_solution(u0, t)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-2


# ---------------------------------------------------------------------------
# Fokker-Planck
# ---------------------------------------------------------------------------


def _fp_pair(grid, pg, v, dv, d2v, sigma=1.0):
    cons = build_fokker_planck(v, sigma, grid, pg, form="conservation")
    heat = build_fokker_planck(v, sigma, grid, pg, form="heat_form", grad_v=[dv], lap_v=d2v)
    return cons, heat


def test_fokker_planck_zero_potential_reduces_to_heat():
    grid = Grid(-1, 1, 8)
    pg = PGrid(-4, 4, 16)
    heat_model = build_heat(None, grid, pg)
    dense_heat = hamiltonian(heat_model)
    for form in ("conservation", "heat_form"):
        fp = build_fokker_planck(
            lambda x: 0.0 * x, 1.0, grid, pg, form=form,
            grad_v=[lambda x: 0.0 * x], lap_v=lambda x: 0.0 * x,
        )
        dense_fp = hamiltonian(fp)
        assert np.abs(dense_fp - dense_heat).max() <= 1e-10


def test_fokker_planck_imaginary_time_potential():
    grid = Grid(-1, 1, 8)
    fp = build_fokker_planck(
        lambda x: x**2 / 2, 1.0, grid, PGrid(-4, 4, 16), form="heat_form",
        grad_v=[lambda x: x], lap_v=lambda x: np.ones_like(x),
    )
    assert np.allclose(fp.u_values, grid.axis() ** 2 / 4 - 0.5)


def test_fokker_planck_steady_state_residual():
    grid = Grid(-1, 1, 32)
    fp = build_fokker_planck(
        lambda x: 0.5 * np.cos(np.pi * x), 1.0, grid, PGrid(-4, 4, 32), form="conservation"
    )
    f_ss = np.exp(-fp.v_values / fp.sigma)
    res = np.linalg.norm(conservation_generator(fp) @ f_ss) / np.linalg.norm(f_ss)
    assert res <= 1e-8


def test_fokker_planck_forms_agree_after_change_of_variables():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-14, 6, 1024, alpha_neg=10.0, left_support=-1.0)
    v = lambda x: 0.5 * np.cos(np.pi * x)
    cons, heat = _fp_pair(
        grid, pg, v,
        lambda x: -0.5 * np.pi * np.sin(np.pi * x),
        lambda x: -0.5 * np.pi**2 * np.cos(np.pi * x),
    )
    f0 = np.exp(-v(grid.axis())) + 0.3 * np.cos(np.pi * grid.axis())
    t = 0.2
    plan = EvolutionPlan("exact_diagonal", dt=t, t_final=t)
    f_cons = cons.recover(cons.evolve(cons.initial_state(f0), plan).final, PointP())
    f_heat = heat.recover(heat.evolve(heat.initial_state(f0), plan).final, PointP())
    assert np.linalg.norm(f_cons - f_heat) / np.linalg.norm(f_cons) <= 1e-6


def test_fokker_planck_hamiltonians_hermitian():
    grid = Grid(-1, 1, 8)
    pg = PGrid(-4, 4, 16)
    cons, heat = _fp_pair(
        grid, pg, lambda x: 0.3 * np.sin(np.pi * x),
        lambda x: 0.3 * np.pi * np.cos(np.pi * x),
        lambda x: -0.3 * np.pi**2 * np.sin(np.pi * x),
    )
    assert _hermiticity(hamiltonian(cons))
    assert _hermiticity(hamiltonian(heat))


def test_fokker_planck_overflow_guard():
    with pytest.raises(ValueError, match="overflow|rescale"):
        build_fokker_planck(lambda x: 1e4 * np.cos(np.pi * x), 0.01, Grid(-1, 1, 8), PGrid(-4, 4, 16))


@pytest.mark.parametrize("command", ["validate", "run"])
def test_fokker_planck_heat_form_config_prints_no_warning(tmp_path, capsys, command):
    # configs have no key for analytic derivatives of V, so differentiating
    # it spectrally is their method, not a fallback to warn of
    raw = json.loads((ROOT / "scripts" / "configs" / "fokker_planck.json").read_text())
    raw["model"]["params"]["form"] = "heat_form"
    raw["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path)]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_fokker_planck_spectral_fallback_matches_analytic():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-4, 4, 16)
    v = lambda x: 0.5 * np.cos(np.pi * x)
    auto = build_fokker_planck(v, 1.0, grid, pg, form="heat_form")
    manual = build_fokker_planck(
        v, 1.0, grid, pg, form="heat_form",
        grad_v=[lambda x: -0.5 * np.pi * np.sin(np.pi * x)],
        lap_v=lambda x: -0.5 * np.pi**2 * np.cos(np.pi * x),
    )
    assert np.abs(auto.u_values - manual.u_values).max() <= 1e-10


# ---------------------------------------------------------------------------
# Boltzmann
# ---------------------------------------------------------------------------


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([0.4, 0.4]))
    with pytest.raises(ValueError):
        QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([1.2, -0.2]))


def test_boltzmann_single_ordinate_is_pure_transport():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-3, 5, 128, alpha_neg=10.0, left_support=-1.0)
    quad = QuadratureRule(points=np.array([[1.0]]), weights=np.array([1.0]))
    model = build_boltzmann(quad, grid, pg)
    assert np.abs(model.collision_matrix()).max() == 0.0
    f0 = 1 + 0.5 * np.cos(np.pi * grid.axis())
    t = 0.4
    plan = EvolutionPlan("trotter", dt=0.05, t_final=t)
    traj = model.evolve(model.initial_state(f0[None, :]), plan)
    got = model.recover(traj.final, PointP())[0]
    ref = exact_convection_solution(f0, grid, t)  # unit-speed translation
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-10


def test_boltzmann_initial_state_is_f0_times_the_warp_profile():
    model = build_boltzmann(default_ordinates(), Grid(-1, 1, 8), PGrid(-3, 3, 32))
    f0 = np.random.default_rng(3).standard_normal((2, 8))
    w0 = model.initial_state(f0)
    assert isinstance(w0, ProductState) and w0.grid is None
    # the same bits as the outer product built by hand over (ordinate, x, p)
    expect = (f0.astype(complex).reshape(-1)[:, None] * model.pgrid.warp_profile()[None, :]).reshape(-1)
    assert np.array_equal(w0.values, expect)
    # one profile stands for every ordinate
    assert np.array_equal(model.initial_state(f0[0]).values, model.initial_state(np.stack([f0[0]] * 2)).values)


def test_boltzmann_two_point_collision_block():
    model = build_boltzmann(default_ordinates(), Grid(-1, 1, 8), PGrid(-3, 3, 32))
    c = model.collision_matrix()
    assert np.allclose(c + np.eye(2), [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(np.sort(np.linalg.eigvalsh(c)), [-1.0, 0.0])


def test_boltzmann_weight_similarity_leaves_ordinate_diagonals_alone():
    quad = QuadratureRule(points=np.array([[1.0], [-1.0], [0.5]]), weights=np.array([0.5, 0.3, 0.2]))
    root = np.sqrt(quad.weights)
    lam = np.diag(quad.points[:, 0])
    conj = np.diag(root) @ lam @ np.diag(1.0 / root)
    assert np.array_equal(conj, lam)


def test_boltzmann_mass_conserved():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-3, 5, 256, alpha_neg=10.0, left_support=-1.0)
    model = build_boltzmann(default_ordinates(), grid, pg)
    x = grid.axis()
    f0 = np.stack([1 + 0.5 * np.cos(np.pi * x), 1 + 0.2 * np.sin(np.pi * x)])
    plan = EvolutionPlan("trotter", dt=0.05, t_final=1.0, snapshot_times=(0.0, 0.5, 1.0))
    traj = model.evolve(model.initial_state(f0), plan)
    masses = [model.mass(model.recover(s, PointP())) for s in traj.states]
    for m in masses[1:]:
        assert abs(m - masses[0]) <= 1e-10 * abs(masses[0])


def test_boltzmann_hamiltonian_hermitian():
    model = build_boltzmann(default_ordinates(), Grid(-1, 1, 8), PGrid(-3, 3, 16))
    assert _hermiticity(hamiltonian(model))


def _boltzmann_step_loop(model, w0, plan):
    """The split step with an x-transform pair per step: transport in the
    x-mode frame, then the collision rotation in the x-sample frame."""
    n_ord, dims = model.quad.n_ord, model.grid.dims
    x_axes = tuple(range(1, dims + 1))
    root = np.sqrt(model.quad.weights).reshape((-1,) + (1,) * (dims + 1))
    shape = (n_ord,) + model.grid.shape + (model.pgrid.points,)
    state = to_modes(w0.values.reshape(shape) * root, axis=-1)
    phase_transport = np.exp(1j * model.transport_entries()[..., None] * plan.dt)
    lam, q = np.linalg.eigh(model.collision_matrix())
    phase_collision = np.exp(-1j * np.outer(lam, model.pgrid.mu()) * plan.dt)
    phase_collision = phase_collision.reshape((n_ord,) + (1,) * dims + (-1,))
    states = {0: state}
    for step in range(1, plan.n_steps + 1):
        state = from_modes(phase_transport * to_modes(state, axis=x_axes), axis=x_axes)
        state = np.tensordot(q, phase_collision * np.tensordot(q.conj().T, state, axes=1), axes=1)
        states[step] = state
    return [
        (from_modes(states[int(round(t / plan.dt))], axis=-1) / root).reshape(-1)
        for t in plan.snapshot_times
    ]


_BOLTZMANN_RULES = {
    "two_point": (default_ordinates(), 1),
    "three_uneven": (
        QuadratureRule(points=np.array([[1.0], [-1.0], [0.3]]), weights=np.array([0.5, 0.3, 0.2])),
        1,
    ),
    "two_d": (
        QuadratureRule(
            points=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            weights=np.full(4, 0.25),
        ),
        2,
    ),
}


_BOLTZMANN_PLANS = {
    "short": EvolutionPlan("trotter", dt=0.02, t_final=1.0, snapshot_times=(0.0, 0.4, 1.0)),
    # 1,100 steps; gaps 137, 0, 763 and 200 steps, none a power of two; a
    # time requested twice
    "long": EvolutionPlan(
        "trotter", dt=0.001, t_final=1.1, snapshot_times=(0.0, 0.137, 0.137, 0.9, 1.1)
    ),
}


@pytest.mark.parametrize(
    "rule, plan",
    [
        pytest.param(rule, plan, id=rule if plan == "short" else f"{rule}-{plan}")
        for rule in _BOLTZMANN_RULES
        for plan in _BOLTZMANN_PLANS
    ],
)
def test_boltzmann_mode_frame_matches_step_loop(rule, plan):
    quad, dims = _BOLTZMANN_RULES[rule]
    plan = _BOLTZMANN_PLANS[plan]
    grid = Grid(-1, 1, 8, dims=dims)
    model = build_boltzmann(quad, grid, PGrid(-3, 5, 32, alpha_neg=10.0, left_support=-1.0))
    f0 = np.random.default_rng(3).random((quad.n_ord, grid.size))
    w0 = model.initial_state(f0)
    traj = model.evolve(w0, plan)
    assert traj.times == list(plan.snapshot_times)
    for g, r in zip(traj.states, _boltzmann_step_loop(model, w0, plan), strict=True):
        assert np.linalg.norm(g.values - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("n_steps", [1_000, 100_000])
def test_boltzmann_block_products_grow_with_log_steps(monkeypatch, n_steps):
    # each snapshot gap is reached by binary powering of the one-step
    # blocks: at most floor(log2 gap) squarings and one application per set
    # bit, so the count follows the logarithm of the gaps, not n_steps
    calls = []
    block_product = evolvers._block_product

    def counted(a, b):
        calls.append(b.shape[1])
        return block_product(a, b)

    monkeypatch.setattr(evolvers, "_block_product", counted)
    model = build_boltzmann(default_ordinates(), Grid(-1, 1, 8), PGrid(-3, 5, 32))
    dt = 1.0 / n_steps
    times = (0.0, 0.0, 321 * dt, 0.5, 1.0)
    plan = EvolutionPlan("trotter", dt=dt, t_final=1.0, snapshot_times=times)
    traj = model.evolve(model.initial_state(np.ones(8)), plan)
    steps = sorted({round(t / dt) for t in times})
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    assert traj.times == list(times)
    assert 0 < len(calls) <= sum(2 * math.floor(math.log2(g)) + 1 for g in gaps)
    # one application to the state (an n_ord x 1 block) per set bit
    assert calls.count(1) == sum(bin(g).count("1") for g in gaps)


@pytest.mark.parametrize("rule", ["three_uneven", "two_d"])
def test_boltzmann_p_chunks_give_the_same_bits(monkeypatch, rule):
    # the blocks of different p modes never mix, so powering them a chunk of
    # p modes at a time (here 5 of 32, the last chunk short) changes no bit
    quad, dims = _BOLTZMANN_RULES[rule]
    grid = Grid(-1, 1, 8, dims=dims)
    model = build_boltzmann(quad, grid, PGrid(-3, 5, 32, alpha_neg=10.0, left_support=-1.0))
    w0 = model.initial_state(np.random.default_rng(5).random((quad.n_ord, grid.size)))
    plan = _BOLTZMANN_PLANS["long"]
    whole = model.evolve(w0, plan).states
    monkeypatch.setattr(evolvers, "_CHUNK_BYTES", 5 * 16 * quad.n_ord**2 * grid.size)
    for a, b in zip(model.evolve(w0, plan).states, whole, strict=True):
        assert np.array_equal(a.values, b.values)


def test_boltzmann_march_transforms_x_once_per_snapshot(monkeypatch):
    calls = []

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)

        return wrapper

    for name in ("to_modes", "from_modes"):
        monkeypatch.setattr(evolvers, name, counted(getattr(evolvers, name)))
    model = build_boltzmann(default_ordinates(), Grid(-1, 1, 8), PGrid(-3, 5, 32))
    plan = EvolutionPlan("trotter", dt=0.01, t_final=1.0, snapshot_times=(0.0, 0.5, 0.5, 1.0))
    traj = model.evolve(model.initial_state(np.ones(8)), plan)
    assert len(traj.times) == 4
    assert 0 < len(calls) <= 1 + len(traj.times)


# ---------------------------------------------------------------------------
# density transport of a nonlinear flow
# ---------------------------------------------------------------------------


def test_liouville_zero_field_is_stationary():
    grid = Grid(-1, 1, 64)
    lift = build_liouville(lambda x: 0.0 * x, grid, 0.3, 0.05)
    t = 1.0
    rho = dense_expm_oracle(lift.a_mat, lift.u0, t)
    assert np.abs(rho - lift.u0).max() <= 1e-12
    assert density_moment(lift.u0.real, grid)[0] == pytest.approx(0.3, abs=1e-6)


def test_liouville_mass_conserved_along_flow():
    # the conservative generator annihilates the constant functional exactly
    grid = Grid(-1, 1, 64)
    lift = build_liouville(lambda x: -x, grid, 0.5, 0.05, form="conservative")
    m0 = density_mass(lift.u0, grid)
    for t in (0.3, 1.0):
        rho = scipy.linalg.expm(lift.a_mat * t) @ lift.u0
        assert abs(density_mass(rho.real, grid) - m0) <= 1e-8 * abs(m0)


def test_liouville_skew_mass_drift_is_bounded():
    # the skew form does not conserve discrete mass; on the bundled set-up the
    # drift grows as the Gaussian contracts and is 2.06e-5 at t = 1
    grid = Grid(-1, 1, 128)
    lift = build_liouville(lambda x: -x, grid, 0.5, 0.05)
    m0 = density_mass(lift.u0, grid)
    for t in (0.5, 1.0):
        rho = scipy.linalg.expm(lift.a_mat * t) @ lift.u0
        assert abs(density_mass(rho.real, grid) - m0) <= 5e-5 * abs(m0)


def test_liouville_skew_lift_of_linear_field_has_scalar_h1():
    # H1 = -1/2 div F exactly, and div F = -1 for F = -q
    lift = build_liouville(lambda x: -x, Grid(-1, 1, 128), 0.5, 0.05)
    h1 = hermitian_split(lift.a_mat).h1
    assert np.abs(h1 - 0.5 * np.eye(128)).max() <= 1e-12


def test_liouville_skew_lift_of_nonlinear_field():
    # H1 is the central difference of F, bounded by max|F'|/2 = pi/2, not by
    # the discrete product; it is not a scalar, so the blocks need their own eigh
    grid = Grid(-1, 1, 64)
    field = lambda x: np.sin(np.pi * x)
    a = build_liouville(field, grid, 0.3, 0.05).a_mat
    x, dx = grid.axis(), grid.dx
    div_f = (field(x + dx) - field(x - dx)) / (2 * dx)
    assert np.abs(a + a.conj().T + np.diag(div_f)).max() <= 1e-12
    split = hermitian_split(a)
    assert np.abs(np.linalg.eigvalsh(split.h1)).max() <= np.pi / 2
    assert evolvers._shared_eigenbasis(split.h1, split.h2) is None


def test_liouville_skew_flow_is_closer_to_the_analytic_density():
    # F = -q carries the Gaussian to centre q0 e^{-t} and width w e^{-t}; the
    # conservative product spreads H1 over [-143.6, 114.2] and is 9.5e-3 off
    grid, q0, width, t = Grid(-1, 1, 128), 0.5, 0.05, 1.0
    x = grid.axis()
    analytic = sum(
        np.exp(-((x - q0 * np.exp(-t) + 2 * k) ** 2) / (2 * (width * np.exp(-t)) ** 2))
        for k in range(-3, 4)
    )
    errors = {}
    for form in ("skew", "conservative"):
        lift = build_liouville(lambda x: -x, grid, q0, width, form=form)
        rho = (scipy.linalg.expm(lift.a_mat * t) @ lift.u0).real
        errors[form] = np.linalg.norm(rho / rho.sum() - analytic / analytic.sum()) / np.linalg.norm(
            analytic / analytic.sum()
        )
    assert errors["skew"] <= 1e-3 < errors["conservative"]


def test_liouville_support_guard():
    with pytest.raises(ValueError, match="wrap"):
        build_liouville(lambda x: -x, Grid(-1, 1, 64), 0.95, 0.05)
    with pytest.raises(ValueError, match="form"):
        build_liouville(lambda x: -x, Grid(-1, 1, 64), 0.5, 0.05, form="upwind")
    # finite on every node, but not one lattice step left of x = -1
    with pytest.raises(ValueError, match="lattice step"), np.errstate(invalid="ignore"):
        build_liouville(lambda x: np.sqrt(x + 1), Grid(-1, 1, 64), 0.5, 0.05)


def test_heat_two_dimensional_end_to_end():
    # separable data decays mode by mode; the warp machinery is dimension
    # agnostic so the 2-D run must match the tensor-product exact solution
    grid = Grid(-1, 1, 8, dims=2)
    pg = PGrid(-5, 5, 256, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    x = grid.axis()
    u0 = np.outer(np.sin(np.pi * x), np.cos(np.pi * x)).reshape(-1)
    t = 0.1
    traj = model.evolve(model.initial_state(u0), EvolutionPlan("exact_diagonal", dt=t, t_final=t))
    got = model.recover(traj.final, PointP())
    exact = np.exp(-2 * np.pi**2 * t) * u0
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) <= 1e-2
    assert np.linalg.norm(got - exact_heat_solution(u0, grid, t)) / np.linalg.norm(exact) <= 1e-2


def test_boltzmann_asymmetric_weights_conserve_mass():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-3, 5, 128, alpha_neg=10.0, left_support=-1.0)
    quad = QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([0.3, 0.7]))
    model = build_boltzmann(quad, grid, pg)
    x = grid.axis()
    f0 = np.stack([1 + 0.4 * np.cos(np.pi * x), 0.5 + 0.2 * np.sin(np.pi * x)])
    plan = EvolutionPlan("trotter", dt=0.1, t_final=1.0, snapshot_times=(0.0, 1.0))
    traj = model.evolve(model.initial_state(f0), plan)
    m0 = model.mass(model.recover(traj.states[0], PointP()))
    m1 = model.mass(model.recover(traj.states[1], PointP()))
    assert abs(m1 - m0) <= 1e-10 * abs(m0)
    assert _hermiticity(hamiltonian(model))
