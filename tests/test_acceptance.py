"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  Criteria 1 and 2 assert the
integral recovery at the published domain sizes, where the exp(-p) data
surviving above p = 0 at the final time spans less than one e-folding; the
resulting tail deficit (exp(-(R - s1*T)) relative to the decayed solution)
is irreducible at those parameters, so those two sub-assertions fail by
design rather than being weakened.  The adjacent point-recovery checks and
the wide-window integral test in tests/test_models.py show the machinery
itself meets the tolerance-and-rate contract.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

import schrodingerizer as sz
from schrodingerizer import evolvers
from schrodingerizer.dilation import (
    arccos_hermitian,
    build_dilation_step,
    evolutionary_step,
    ladder_evolve,
)
from schrodingerizer.evolvers import EvolutionPlan, evolve_mode_blocks
from schrodingerizer.grids import Grid, PGrid
from schrodingerizer.models import (
    build_black_scholes,
    build_boltzmann,
    build_convection,
    build_fokker_planck,
    build_heat,
    build_liouville,
    default_ordinates,
    exact_convection_solution,
    QuadratureRule,
)
from schrodingerizer.ode import LinearSystem, augment_inhomogeneous, hermitian_split
from schrodingerizer.resources import CostQuery, estimate
from schrodingerizer.warp import IntegrateP, PointP, containment_ratio, recover

from oracles import conservation_generator

T_STAR = 4.0 / math.pi**2


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def lsq_order(errors):
    """Least-squares convergence order across successive halvings."""
    levels = np.arange(float(len(errors)))
    return -np.polyfit(levels, np.log2(np.asarray(errors)), 1)[0]


def _heat_errors(t_final, pgrids, alpha_neg):
    grid = Grid(-1, 1, 16)
    x = grid.axis()
    u0 = np.sin(np.pi * x)
    exact = np.exp(-math.pi**2 * t_final) * np.sin(np.pi * x)
    plan = EvolutionPlan("exact_diagonal", dt=t_final, t_final=t_final)
    out = {"point": [], "integrate": [], "state": []}
    for pg in pgrids:
        model = build_heat(None, grid, pg)
        w = model.evolve(model.initial_state(u0), plan).final
        out["state"].append(w)
        for key, method in (("point", PointP()), ("integrate", IntegrateP())):
            got = model.recover(w, method)
            out[key].append(np.linalg.norm(got - exact) / np.linalg.norm(exact))
    return out


def test_criterion_01_heat_reproduction():
    with criterion(1, "heat reproduction at published domain"):
        started = time.perf_counter()
        base = _heat_errors(
            T_STAR, [PGrid(-5.0, 5.0, 512, alpha_neg=10.0, left_support=-1.0)], 10.0
        )
        elapsed = time.perf_counter() - started
        assert elapsed <= 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        study = _heat_errors(
            T_STAR,
            [PGrid(-5.0, 5.0, n, alpha_neg=10.0, left_support=-1.0) for n in (512, 1024, 2048)],
            10.0,
        )
        point = study["point"]
        integrate = study["integrate"]
        print(
            f"  point errors {point} (order {lsq_order(point):.2f}); "
            f"integral errors {integrate} (order {lsq_order(integrate):.2f})"
        )
        assert base["point"][0] <= 2e-2, f"point recovery error {base['point'][0]:.3e}"
        assert lsq_order(point) >= 0.9, f"point recovery order {lsq_order(point):.2f}"
        assert base["integrate"][0] <= 2e-2, (
            f"integral recovery error {base['integrate'][0]:.3e}: the warp data "
            "above p = 0 at time T* spans only R - s1*T* = 1, so the integral "
            "loses exp(-1) of the decayed solution at these domain sizes"
        )
        assert lsq_order(integrate) >= 0.9, (
            f"integral recovery order {lsq_order(integrate):.2f}: the deficit is a "
            "fixed tail term, independent of dp"
        )


def test_criterion_02_long_horizon_run():
    with criterion(2, "long-horizon run with estimated domain"):
        t_final = 1.0
        left = sz.estimate_domain(t_final, math.pi**2, -1.0)
        assert left == pytest.approx(-10.8696, abs=1e-3)
        grids = [
            PGrid(left, 10.0, n, alpha_neg=40.0, left_support=-1.0)
            for n in (4096, 8192, 16384)
        ]
        study = _heat_errors(t_final, grids, 40.0)
        assert containment_ratio(study["state"][0]) <= 1e-6
        point = study["point"]
        integrate = study["integrate"]
        print(
            f"  point errors {point} (order {lsq_order(point):.2f}); "
            f"integral errors {integrate} (order {lsq_order(integrate):.2f})"
        )
        assert point[0] <= 2e-2, f"point recovery error {point[0]:.3e}"
        assert lsq_order(point) >= 0.9, f"point recovery order {lsq_order(point):.2f}"
        assert integrate[0] <= 2e-2, (
            f"integral recovery error {integrate[0]:.3e}: at T = 1 the surviving "
            "window R - s1*T is 0.13, so nearly the whole exp(-p) tail is lost"
        )
        assert lsq_order(integrate) >= 0.9


def test_criterion_03_finite_difference_cross_check():
    with criterion(3, "upwind finite-difference cross-check"):
        grid = Grid(-1, 1, 16)
        x = grid.axis()
        u0 = np.sin(np.pi * x)
        # exact flow of the central-difference system the march discretises
        lam1 = -(4.0 / grid.dx**2) * math.sin(math.pi / 16) ** 2
        matched_exact = np.exp(lam1 * T_STAR) * np.sin(np.pi * x)
        cross = []
        for n in (256, 512, 1024):
            pg = PGrid(-5.0, 5.0, n, alpha_neg=10.0, left_support=-1.0)
            model = build_heat(None, grid, pg)
            fd = model.fd_transport()
            steps = int(np.ceil(T_STAR / fd.admissible_dt()))
            plan = EvolutionPlan("upwind_fd", dt=T_STAR / steps, t_final=T_STAR)
            w0 = model.initial_state(u0)
            u_fd = model.recover(model.evolve(w0, plan).final, PointP())
            # spectral-in-p evolution of the same transport matrix
            spectral = evolve_mode_blocks(
                fd.a_mat.astype(complex), np.zeros((16, 16), dtype=complex),
                pg, w0, [T_STAR],
            ).final
            u_sp = model.recover(spectral, PointP())
            cross.append(np.linalg.norm(u_fd - u_sp) / np.linalg.norm(u_sp))
            if n == 512:
                err = np.linalg.norm(u_fd - matched_exact) / np.linalg.norm(matched_exact)
                assert err <= 5e-2, f"upwind error vs exact flow {err:.3e}"
        order = lsq_order(cross)
        assert order >= 0.8, f"cross-engine order {order:.2f} not first order"


def _random_model_terms(rng):
    m = int(rng.choice([4, 8]))
    n = int(rng.choice([8, 16]))
    grid = Grid(-1, 1, m)
    pg = PGrid(-4, 4, n, alpha_neg=float(rng.uniform(1, 40)))
    pick = rng.integers(0, 5)
    amp = float(rng.uniform(0.1, 2.0))
    k = int(rng.integers(1, m // 2))
    if pick == 0:
        return build_heat(lambda x: amp * np.cos(k * np.pi * x), grid, pg).h_terms()
    if pick == 1:
        return build_black_scholes(float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.1, 0.5)), grid, pg).h_terms()
    if pick == 2:
        return build_fokker_planck(lambda x: amp * np.cos(k * np.pi * x) / 4, 1.0, grid, pg).h_terms()
    if pick == 3:
        w1 = float(rng.uniform(0.2, 0.8))
        quad = QuadratureRule(points=np.array([[1.0], [-1.0]]), weights=np.array([w1, 1 - w1]))
        return build_boltzmann(quad, grid, pg).h_terms()
    return build_convection(grid, p_points=n).h_terms()


def test_criterion_04_hermiticity_and_unitarity(monkeypatch):
    with criterion(4, "hermiticity and norm preservation"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            h = sum(term.dense() for term in _random_model_terms(rng))
            assert np.abs(h - h.conj().T).max() <= 1e-12 * max(1.0, np.abs(h).max())
            # 1000 split steps on a random heat model preserve the norm, on
            # the step loop and as one block power
            grid = Grid(-1, 1, 8)
            pg = PGrid(-4, 4, 16, alpha_neg=float(rng.uniform(1, 40)))
            amp = float(rng.uniform(0.1, 2.0))
            k = int(rng.integers(1, 4))
            model = build_heat(lambda x: amp * np.cos(k * np.pi * x), grid, pg)
            u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            w0 = model.initial_state(u0)
            for powers in (False, True):
                monkeypatch.setattr(evolvers, "_trotter_by_powers", lambda n, gaps, on=powers: on)
                traj = model.evolve(w0, EvolutionPlan("trotter", dt=1e-3, t_final=1.0))
                assert traj.x_transforms == (2 if powers else 2000)
                drift = abs(traj.final.norm() - w0.norm()) / w0.norm()
                route = "block powers" if powers else "step loop"
                assert drift <= 1e-12, f"seed {seed}, {route}: norm drift {drift:.2e}"


def _random_stable_system(rng, n):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n - 0.1 * np.eye(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (m + m.conj().T) / 2
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return h1 + 1j * h2, u0


def test_criterion_05_ode_path_oracle():
    with criterion(5, "general ODE path vs matrix exponential"):
        t_final = 1.0
        right = 12.0
        c_bound = 0.5
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, u0 = _random_stable_system(rng, n)
            split = hermitian_split(a)
            ref = scipy.linalg.expm(a * t_final) @ u0
            errs = []
            for points in (256, 512, 1024, 2048):
                pg = sz.default_pgrid(split, t_final, points=points, right=right)
                sysm = sz.assemble_schrodingerised(split, pg, u0)
                got = recover(sysm.evolve([t_final])[0], IntegrateP())
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                errs.append(err)
                assert err <= c_bound * (pg.dp + math.exp(-right))
            assert lsq_order(errs) >= 0.9, f"order {lsq_order(errs):.2f} for n={n}"


def _duhamel(a, b, u0, t, nseg=2000):
    ds = t / nseg
    es = scipy.linalg.expm(a * ds)
    vals = [None] * (nseg + 1)
    cur = b.astype(complex)
    vals[nseg] = cur
    for k in range(nseg - 1, -1, -1):
        cur = es @ cur
        vals[k] = cur
    weights = np.ones(nseg + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return scipy.linalg.expm(a * t) @ u0 + ds / 3.0 * sum(w * v for w, v in zip(weights, vals))


def test_criterion_06_augmentation():
    with criterion(6, "constant-source augmentation"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) - 1.0 * np.eye(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            aug = augment_inhomogeneous(LinearSystem(a_mat=a, b=b, u0=u0))
            for t in (0.25, 0.5, 1.0):
                full = scipy.linalg.expm(aug.a_mat * t) @ aug.u0
                assert abs(full[-1] - 1.0) <= 1e-10
                ref = _duhamel(a, b, u0, t)
                assert np.linalg.norm(full[:n] - ref) <= 1e-6


def test_criterion_07_dilation_suite():
    with criterion(7, "unitary dilation suite"):
        rng = np.random.default_rng(5)
        for n in (1, 2, 4, 8, 16):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h1 = -(c @ c.conj().T) / n
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h2 = (m + m.conj().T) / 2
            step = build_dilation_step(h1, h2, 0.3)
            gap = np.abs(step.utilde.conj().T @ step.utilde - np.eye(2 * n)).max()
            assert gap <= 1e-12
        # scalar contraction values
        step = build_dilation_step(np.array([[-1.0]]), np.array([[0.0]]), 0.5)
        assert step.hdt[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)
        final, prob = ladder_evolve(
            np.array([[-1.0]]), np.array([[0.0]]), 0.5, 2, np.array([1.0])
        )
        assert prob == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert prob == pytest.approx(0.13534, abs=1e-5)
        # commuting case: one dilation over the full horizon matches stepping
        model = build_black_scholes(0.05, 0.2, Grid(-1, 1, 16), PGrid(-4, 4, 32))
        h1 = np.diag(model.contraction_rates())
        h2 = np.diag(model.phase_rates())
        psi = np.exp(-model.grid.axis() ** 2) + 0j
        t_final = 0.7
        one_shot, _ = evolutionary_step(build_dilation_step(h1, h2, t_final), psi)
        stepped = psi.copy()
        small = build_dilation_step(h1, h2, t_final / 10)
        for _ in range(10):
            stepped, _ = evolutionary_step(small, stepped)
        assert np.abs(one_shot - stepped).max() <= 1e-10


def test_criterion_08_arccos_norm_bound():
    with criterion(8, "arccos spectral bound"):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h1 = (m + m.conj().T) / 2
            dt = 1.0 / np.abs(h1).sum(axis=0).max()
            theta = arccos_hermitian(h1 * dt)
            assert np.linalg.norm(theta, 2) <= math.pi + 1e-10


def test_criterion_09_fokker_planck():
    with criterion(9, "Fokker-Planck steady state and form equivalence"):
        v = lambda x: 0.5 * np.cos(np.pi * x)
        fp32 = build_fokker_planck(v, 1.0, Grid(-1, 1, 32), PGrid(-4, 4, 32))
        f_ss = np.exp(-fp32.v_values / fp32.sigma)
        residual = np.linalg.norm(conservation_generator(fp32) @ f_ss) / np.linalg.norm(f_ss)
        assert residual <= 1e-8
        grid = Grid(-1, 1, 16)
        pg = PGrid(-14, 6, 1024, alpha_neg=10.0, left_support=-1.0)
        cons = build_fokker_planck(v, 1.0, grid, pg, form="conservation")
        heat = build_fokker_planck(
            v, 1.0, grid, pg, form="heat_form",
            grad_v=[lambda x: -0.5 * np.pi * np.sin(np.pi * x)],
            lap_v=lambda x: -0.5 * np.pi**2 * np.cos(np.pi * x),
        )
        f0 = np.exp(-v(grid.axis())) + 0.3 * np.cos(np.pi * grid.axis())
        t = 0.2
        plan = EvolutionPlan("exact_diagonal", dt=t, t_final=t)
        f_c = cons.recover(cons.evolve(cons.initial_state(f0), plan).final, PointP())
        f_h = heat.recover(heat.evolve(heat.initial_state(f0), plan).final, PointP())
        assert np.linalg.norm(f_c - f_h) / np.linalg.norm(f_c) <= 1e-6


def test_criterion_10_boltzmann():
    with criterion(10, "Boltzmann mass conservation and transport reduction"):
        grid = Grid(-1, 1, 16)
        pg = PGrid(-3, 5, 256, alpha_neg=10.0, left_support=-1.0)
        model = build_boltzmann(default_ordinates(), grid, pg)
        x = grid.axis()
        f0 = np.stack([1 + 0.5 * np.cos(np.pi * x), 1 + 0.2 * np.sin(np.pi * x)])
        plan = EvolutionPlan(
            "trotter", dt=0.05, t_final=1.0, snapshot_times=(0.0, 0.25, 0.5, 0.75, 1.0)
        )
        traj = model.evolve(model.initial_state(f0), plan)
        masses = [model.mass(model.recover(s, PointP())) for s in traj.states]
        for m in masses[1:]:
            assert abs(m - masses[0]) <= 1e-10 * abs(masses[0])
        # one ordinate: the collision block vanishes identically
        single = build_boltzmann(
            QuadratureRule(points=np.array([[1.0]]), weights=np.array([1.0])), grid, pg
        )
        assert np.abs(single.collision_matrix()).max() == 0.0
        t = 0.4
        plan1 = EvolutionPlan("trotter", dt=0.05, t_final=t)
        got = single.recover(single.evolve(single.initial_state(f0[:1]), plan1).final, PointP())[0]
        ref = exact_convection_solution(f0[0], grid, t)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-10


def test_criterion_11_liouville_moment():
    with criterion(11, "moment tracking of the lifted contracting flow"):
        grid = Grid(-1, 1, 128)
        model = build_liouville(lambda x: -x, grid, 0.5, 0.05)
        pg = PGrid(-4.0, 6.0, 512, alpha_neg=10.0, left_support=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # H1 = 0.5 I is positive, so it still warns
            sysm = sz.assemble_schrodingerised(
                hermitian_split(model.system.a_mat), pg, model.system.u0
            )
        times = [0.25, 0.5, 0.75, 1.0]
        for t, state in zip(times, sysm.evolve(times)):
            rho = recover(state, IntegrateP()).real
            moment = model.moment(rho)[0]
            assert abs(moment - 0.5 * math.exp(-t)) <= 5e-3, f"t={t}: moment {moment:.5f}"


def test_criterion_12_resource_estimator():
    with criterion(12, "resource estimator worked examples and monotonicity"):
        heat = estimate(CostQuery(method="schr_heat", d=1, m=4, m_p=9, t_final=1.0, dt=0.01))
        assert heat.count == pytest.approx(100 * (4 * 2 + 9 * math.log2(9)), rel=1e-12)
        conv = estimate(CostQuery(method="schr_convection", d=2, m=5))
        assert conv.count == pytest.approx(15 * math.log2(5), rel=1e-12)
        value, formula = sz.schr_vs_unitary_ratio(dx=0.01, ell=2.0, d=1, epsilon=1e-6)
        assert formula == "dx * (1 + (ell/d) * log2(1/eps)/log2(d/eps))"
        assert value == pytest.approx(0.01 * (1 + 2.0), rel=1e-12)
        rng = np.random.default_rng(99)
        from schrodingerizer.resources import METHODS

        for _ in range(1000):
            method = METHODS[int(rng.integers(0, len(METHODS)))]
            base = dict(
                method=method,
                d=int(rng.integers(1, 4)),
                m=int(rng.integers(2, 12)),
                m_p=int(rng.integers(2, 12)),
                t_final=float(rng.uniform(0.5, 8.0)),
                dt=0.01,
                dx=0.1,
                dp=0.05,
                sparsity=int(rng.integers(1, 10)),
                max_norm=float(rng.uniform(0.5, 10.0)),
                n_ord=2,
                epsilon=1e-8,
            )
            value = estimate(CostQuery(**base)).count
            bumps = [
                {"d": base["d"] + 1},
                {"m": base["m"] + 1},
                {"m_p": base["m_p"] + 1},
                {"t_final": base["t_final"] * 2},
                {"sparsity": base["sparsity"] + 1},
                {"max_norm": base["max_norm"] * 2},
            ]
            for bump in bumps:
                assert estimate(CostQuery(**{**base, **bump})).count >= value - 1e-9
