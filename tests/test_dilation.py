import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from schrodingerizer.dilation import (
    arccos_hermitian,
    build_dilation_step,
    ladder_evolve,
    ladder_state,
)

from oracles import dense_expm_oracle, dilation_unitary, evolve_at, ladder_unitary

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.array([[1.0, 0], [0, -1.0]])


def _random_split(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n - 0.05 * np.eye(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (m + m.conj().T) / 2
    return h1, h2


def _one_step(step, psi):
    """Slot 0 (success) and slot 1 (failure) after one ladder step."""
    return np.split(ladder_state(step, 1, psi).state, 2)


def test_zero_contraction_gives_sigma_z_block():
    step = build_dilation_step(np.zeros((3, 3)), np.zeros((3, 3)), 0.4)
    assert np.allclose(dilation_unitary(step), np.kron(SIGMA_Z, np.eye(3)))


def test_scalar_step_values():
    step = build_dilation_step(np.array([[-1.0]]), np.array([[0.0]]), 0.5)
    assert step.hdt[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-14)
    utilde = dilation_unitary(step)
    assert utilde[0, 1] == pytest.approx(np.sqrt(1 - np.exp(-1.0)), rel=1e-12)
    eye = utilde.conj().T @ utilde
    assert np.abs(eye - np.eye(2)).max() <= 1e-14


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 5), (2, 16)])
def test_utilde_unitary_and_rotation_identity(seed, n):
    h1, h2 = _random_split(seed, n)
    step = build_dilation_step(h1, h2, 0.3)
    utilde = dilation_unitary(step)
    assert np.abs(utilde.conj().T @ utilde - np.eye(2 * n)).max() <= 1e-12
    # block identity: Utilde = (sigma_z (x) I) exp(i sigma_y (x) arccos(K))
    theta = arccos_hermitian(step.hdt)
    ref = np.kron(SIGMA_Z, np.eye(n)) @ scipy.linalg.expm(1j * np.kron(SIGMA_Y, theta))
    assert np.abs(utilde - ref).max() <= 1e-10


def test_exact_exp_requires_dissipative_part():
    with pytest.raises(ValueError):
        build_dilation_step(np.array([[0.2]]), np.array([[0.0]]), 0.1)


@pytest.mark.parametrize(
    "h1,h2,dt",
    [
        (-np.eye(2), np.zeros((2, 2)), -0.1),
        (np.zeros((2, 2)), np.eye(2), -0.1),
        (-np.eye(2), np.zeros((2, 2)), np.inf),
    ],
    ids=["negative_dissipative", "negative_phase_only", "infinite"],
)
def test_step_rejects_dt_that_is_not_positive_and_finite(h1, h2, dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        build_dilation_step(h1, h2, dt)


def test_ladder_rejects_negative_dt():
    # a negative dt grows the state, and its probability would exceed 1
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ladder_evolve(-1e-14 * np.eye(2), np.zeros((2, 2)), -0.5, 3, np.ones(2))


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 3), (2, 8), (3, 17), (4, 32)])
def test_off_block_matches_sqrt_of_defect(seed, n):
    # sqrt(I - K^2) from the eigenpairs of H1 equals the root of the product
    h1, h2 = _random_split(seed, n)
    step = build_dilation_step(h1, h2, 0.3)
    ref = scipy.linalg.sqrtm(np.eye(n) - step.hdt @ step.hdt)
    assert np.abs(step.off - ref).max() <= 1e-13


def test_step_decomposes_each_hermitian_part_once(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    h1, h2 = _random_split(5, 6)
    build_dilation_step(h1, h2, 0.3)
    assert calls == {"eigh": 2, "eigvalsh": 0}


def test_ladder_builds_the_off_block_only_when_read(monkeypatch):
    # ladder_evolve forms K and the phase; off = sqrt(I - K^2) is built from
    # the kept eigenpairs of H1 on first read, with the bits of the block
    # built with K
    from schrodingerizer import dilation

    calls, steps = [], []
    real_pairs, real_build = dilation._from_eigenpairs, dilation.build_dilation_step
    monkeypatch.setattr(dilation, "_from_eigenpairs", lambda *a: calls.append(1) or real_pairs(*a))
    monkeypatch.setattr(dilation, "build_dilation_step", lambda *a: steps.append(real_build(*a)) or steps[-1])
    h1, h2 = _random_split(6, 8)
    ladder_evolve(h1, h2, 0.3, 5, np.ones(8))
    assert len(calls) == 2
    lam1, q1 = np.linalg.eigh((h1 + h1.conj().T) / 2.0)
    k = np.exp(np.minimum(lam1, 0.0) * 0.3)
    assert np.array_equal(steps[0].off, (q1 * np.sqrt(1.0 - k * k)) @ q1.conj().T)
    assert len(calls) == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_arccos_norm_bound(seed, n):
    # with ||H1||_1 dt <= 1 the arccos stays inside [0, pi]
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = (m + m.conj().T) / 2
    dt = 1.0 / np.abs(h1).sum(axis=0).max()
    theta = arccos_hermitian(h1 * dt)
    assert np.linalg.norm(theta, 2) <= np.pi + 1e-10


def test_evolutionary_step_pure_phase():
    h2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    step = build_dilation_step(np.zeros((2, 2)), h2, 0.7)
    psi = np.array([1.0, 1j])
    top, bottom = _one_step(step, psi)
    assert np.abs(bottom).max() <= 1e-14
    ref = dense_expm_oracle(1j * h2, psi, 0.7)
    assert np.abs(top - ref).max() <= 1e-12


def test_evolutionary_step_scalar_probability():
    step = build_dilation_step(np.array([[-1.0]]), np.array([[0.0]]), 0.5)
    ladder = ladder_state(step, 1, np.array([1.0]))
    assert ladder.state[0] == pytest.approx(np.exp(-0.5))
    assert ladder.success_log == [pytest.approx(np.exp(-1.0), rel=1e-12)]


def test_evolutionary_step_norm_conservation_and_first_order():
    h1, h2 = _random_split(7, 4)
    psi = np.random.default_rng(8).standard_normal(4) + 0j
    errs = []
    for dt in (0.02, 0.01, 0.005):
        top, bottom = _one_step(build_dilation_step(h1, h2, dt), psi)
        total = np.linalg.norm(top) ** 2 + np.linalg.norm(bottom) ** 2
        assert total == pytest.approx(np.linalg.norm(psi) ** 2, rel=1e-12)
        ref = scipy.linalg.expm((h1 + 1j * h2) * dt) @ psi
        errs.append(np.linalg.norm(top - ref))
    # one step of the product formula carries an O(dt^2) defect
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_ladder_single_step_equals_evolutionary_step():
    h1, h2 = _random_split(9, 3)
    psi = np.array([1.0, -0.5, 0.25 + 0.1j])
    top, _ = _one_step(build_dilation_step(h1, h2, 0.2), psi)
    final, prob = ladder_evolve(h1, h2, 0.2, 1, psi)
    assert np.abs(final - top).max() <= 1e-13
    assert prob == pytest.approx(np.linalg.norm(top) ** 2 / np.linalg.norm(psi) ** 2)


def test_ladder_pure_phase_is_deterministic():
    h2 = np.array([[0.3, 0.1], [0.1, -0.2]])
    psi = np.array([0.6, 0.8j])
    final, prob = ladder_evolve(np.zeros((2, 2)), h2, 0.25, 6, psi)
    ref = dense_expm_oracle(1j * h2, psi, 6 * 0.25)
    assert np.abs(final - ref).max() <= 1e-12
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_ladder_scalar_success_probability():
    final, prob = ladder_evolve(np.array([[-1.0]]), np.array([[0.0]]), 0.5, 2, np.array([1.0]))
    assert final[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert prob == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert prob == pytest.approx(0.13534, abs=1e-5)


def test_ladder_probability_equals_stepwise_product():
    h1, h2 = _random_split(10, 3)
    psi = np.random.default_rng(11).standard_normal(3) + 0j
    step = build_dilation_step(h1, h2, 0.15)
    ladder = ladder_state(step, 5, psi)
    stepwise = float(np.prod(ladder.success_log))
    _, single = ladder_evolve(h1, h2, 0.15, 5, psi)
    assert single == pytest.approx(stepwise, rel=1e-12)


def test_ladder_slot_contents_match_power():
    h1, h2 = _random_split(12, 2)
    psi = np.array([1.0, 0.5j])
    step = build_dilation_step(h1, h2, 0.3)
    ladder = ladder_state(step, 4, psi)
    power = psi.copy()
    for _ in range(4):
        power = step.hdt @ (step.phase @ power)
    assert np.abs(ladder.state[:2] - power).max() <= 1e-13
    assert ladder.state.shape == ((4 + 1) * 2,)


@pytest.mark.parametrize("n", [4, 16])
def test_ladder_evolve_matches_register_over_long_runs(n):
    # ladder_evolve takes a matrix power; the register runs all 10,000 steps;
    # at dt = 1e-3 the ladder neither blows up nor underflows
    h1, h2 = _random_split(30 + n, n)
    dt = 1e-3
    psi = np.random.default_rng(50 + n).standard_normal(n) + 0j
    final, prob = ladder_evolve(h1, h2, dt, 10_000, psi)
    ladder = ladder_state(build_dilation_step(h1, h2, dt), 10_000, psi)
    top = ladder.state[:n]
    assert np.linalg.norm(final - top) / np.linalg.norm(top) <= 1e-10
    stepwise = float(np.prod(ladder.success_log))
    assert 1e-12 < prob < 1.0
    assert abs(prob - stepwise) / stepwise <= 1e-10


@pytest.mark.parametrize("n,slots", [(2, 3), (4, 8), (16, 4)])
def test_ladder_unitaries_are_unitary_and_local(n, slots):
    h1, h2 = _random_split(13 + n, n)
    step = build_dilation_step(h1, h2, 0.2)
    for j in (1, slots):
        u = ladder_unitary(step, j, slots)
        dim = (slots + 1) * n
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12
        # slots other than 0 and j are untouched
        for k in range(1, slots + 1):
            if k == j:
                continue
            block = u[k * n:(k + 1) * n, k * n:(k + 1) * n]
            assert np.allclose(block, np.eye(n))
            assert np.abs(u[k * n:(k + 1) * n, 0:n]).max() == 0.0


def test_ladder_converges_to_expm_first_order():
    h1, h2 = _random_split(14, 4)
    psi = np.random.default_rng(15).standard_normal(4) + 0j
    ref = scipy.linalg.expm(h1 + 1j * h2) @ psi
    errs = []
    for n_steps in (8, 16, 32):
        final, _ = ladder_evolve(h1, h2, 1.0 / n_steps, n_steps, psi)
        errs.append(np.linalg.norm(final - ref) / np.linalg.norm(ref))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)


def test_ladder_matches_warp_route_within_combined_tolerance():
    # the two unitarisation strategies solve the same system: their outputs
    # coincide up to the product-formula and p-discretisation defects
    import schrodingerizer as sz
    from schrodingerizer.warp import IntegrateP, recover

    h1, h2 = _random_split(21, 4)
    psi = np.random.default_rng(22).standard_normal(4) + 0j
    t_final = 1.0
    n_steps = 64
    ladder_top, _ = ladder_evolve(h1, h2, t_final / n_steps, n_steps, psi)
    split = sz.hermitian_split(h1 + 1j * h2)
    pg = sz.default_pgrid(split, t_final, points=1024, right=12.0)
    sysm = sz.assemble_schrodingerised(split, pg)
    warped = recover(evolve_at(sysm, psi, [t_final])[0], IntegrateP())
    ref = scipy.linalg.expm((h1 + 1j * h2) * t_final) @ psi
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(ladder_top - warped) / scale <= 2e-2
    assert np.linalg.norm(warped - ref) / scale <= 1e-3
