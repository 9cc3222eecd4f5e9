import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from schrodingerizer.evolvers import EvolutionPlan
from schrodingerizer.grids import Grid, PGrid, from_modes, to_modes
from schrodingerizer.models import build_heat
from schrodingerizer.ode import (
    HermitianSplit,
    LinearSystem,
    StabilityWarning,
    assemble_schrodingerised,
    augment_inhomogeneous,
    default_pgrid,
    hermitian_split,
    max_norm,
    sparsity,
)
from schrodingerizer.warp import IntegrateP, WarpedState, extend_initial, recover

from oracles import dense_expm_oracle, evolve_at, hamiltonian, ode_hdiag, samples


def _random_stable(rng, n):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n - 0.1 * np.eye(n)
    h2r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = (h2r + h2r.conj().T) / 2
    return h1 + 1j * h2


def variation_of_constants(a, b, u0, t, nseg=2000):
    """Simpson quadrature of the Duhamel integral (independent oracle)."""
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
    integral = ds / 3.0 * sum(w * v for w, v in zip(weights, vals))
    return scipy.linalg.expm(a * t) @ u0 + integral


def test_augment_homogeneous_is_identity():
    sys = LinearSystem(a_mat=np.eye(2), b=None, u0=np.ones(2))
    assert augment_inhomogeneous(sys) is sys
    sys0 = LinearSystem(a_mat=np.eye(2), b=np.zeros(2), u0=np.ones(2))
    assert augment_inhomogeneous(sys0) is sys0


def test_augment_scalar_ramp():
    sys = LinearSystem(a_mat=np.zeros((1, 1)), b=np.array([1.0]), u0=np.array([0.0]))
    aug = augment_inhomogeneous(sys)
    assert np.allclose(aug.a_mat, [[0, 1], [0, 0]])
    for t in (0.3, 1.0, 2.5):
        u = scipy.linalg.expm(aug.a_mat * t) @ aug.u0
        assert u[0] == pytest.approx(t)
        assert u[1] == pytest.approx(1.0)


def test_augment_matches_duhamel_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) - 1.0 * np.eye(3)
    b = rng.standard_normal(3)
    u0 = rng.standard_normal(3)
    aug = augment_inhomogeneous(LinearSystem(a_mat=a, b=b, u0=u0))
    t = 0.9
    got = scipy.linalg.expm(aug.a_mat * t) @ aug.u0
    ref = variation_of_constants(a.astype(complex), b.astype(complex), u0, t)
    assert np.abs(got[:3] - ref).max() <= 1e-10


def test_time_dependent_source_rejected():
    with pytest.raises(TypeError):
        LinearSystem(a_mat=np.eye(2), b=lambda t: np.ones(2), u0=np.ones(2))


def test_split_hermitian_input():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (m + m.conj().T) / 2
    split = hermitian_split(h)
    assert np.abs(split.h2).max() <= 1e-14
    assert np.allclose(split.h1, h)


def test_split_antisymmetric_example():
    split = hermitian_split(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.abs(split.h1).max() == 0
    sigma_y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(split.h2, sigma_y)


def test_split_upper_triangular_example():
    split = hermitian_split(np.array([[-2.0, 1.0], [0.0, -2.0]]))
    assert np.allclose(split.h1, [[-2, 0.5], [0.5, -2]])
    assert np.allclose(split.h2, np.array([[0, -0.5j], [0.5j, 0]]))
    assert np.allclose(split.h1 + 1j * split.h2, [[-2, 1], [0, -2]])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 16))
def test_split_reassembles(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    split = hermitian_split(a)
    assert np.abs(split.h1 + 1j * split.h2 - a).max() <= 1e-13 * max(1.0, np.abs(a).max())
    assert np.abs(split.h1 - split.h1.conj().T).max() <= 1e-13
    assert np.abs(split.h2 - split.h2.conj().T).max() <= 1e-13
    assert max_norm(split.h1) <= max_norm(a) + 1e-12
    assert max_norm(split.h2) <= max_norm(a) + 1e-12


def test_split_report_fields():
    assert sparsity(np.eye(3)) == 1


def test_assemble_pure_phase_never_couples_p():
    # H1 = 0: the generator is H2 (x) I and p is inert
    h2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    split = HermitianSplit(h1=np.zeros((2, 2)), h2=h2)
    pg = PGrid(-2, 2, 16)
    sysm = assemble_schrodingerised(split, pg)
    dense = hamiltonian(sysm)
    assert np.allclose(dense, np.kron(h2, np.eye(16)))
    out = evolve_at(sysm, np.array([1.0, 0.0]), [0.7])[0]
    ref = dense_expm_oracle(1j * h2, np.array([1.0, 0.0 + 0j]), 0.7)
    expect = np.outer(ref, sysm.pgrid.warp_profile())
    assert np.abs(samples(out).reshape(2, -1) - expect).max() <= 1e-12


def test_assemble_matches_heat_hamiltonian():
    # feeding the spatial heat operator through the generic path reproduces
    # the dedicated heat generator
    grid = Grid(-1, 1, 8)
    pg = PGrid(-4, 4, 16)
    heat = build_heat(None, grid, pg)
    a = heat.h1  # du/dt = A u with A the discrete Laplacian
    split = hermitian_split(a)
    assert np.abs(split.h2).max() <= 1e-12
    sysm = assemble_schrodingerised(split, pg)
    dense_generic = hamiltonian(sysm)
    dense_heat = hamiltonian(heat)
    assert np.abs(dense_generic - dense_heat).max() <= 1e-10


def test_assemble_hdiag_real_spectrum():
    rng = np.random.default_rng(21)
    a = _random_stable(rng, 2)
    split = hermitian_split(a)
    pg = PGrid(-3, 3, 64)
    sysm = assemble_schrodingerised(split, pg)
    lam = np.linalg.eigvals(ode_hdiag(sysm))
    assert np.abs(lam.imag).max() <= 1e-10
    h = hamiltonian(sysm)
    assert np.abs(h - h.conj().T).max() <= 1e-12


def test_assemble_warns_when_unstable():
    split = hermitian_split(np.array([[0.5]]))
    with pytest.warns(StabilityWarning):
        assemble_schrodingerised(split, PGrid(-2, 2, 16))


def test_end_to_end_matches_expm():
    rng = np.random.default_rng(33)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        a = _random_stable(rng, n)
        u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        split = hermitian_split(a)
        pg = default_pgrid(split, 1.0, points=1024, right=12.0)
        got = recover(evolve_at(assemble_schrodingerised(split, pg), u0, [1.0])[0], IntegrateP())
        ref = scipy.linalg.expm(a) @ u0
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-3


def test_default_pgrid_pins_zero_and_contains_transport():
    split = hermitian_split(np.diag([-2.0, -0.5]))
    pg = default_pgrid(split, 1.5, points=256, right=8.0)
    assert pg.left <= -1.0 - 1.5 * 2.0 + 1e-6
    k = int(np.argmin(np.abs(pg.axis())))
    assert pg.axis()[k] == pytest.approx(0.0, abs=1e-12)


def test_sample_and_frequency_forms_are_conjugate():
    # H = (I (x) Phi_p) Hdiag (I (x) Phi_p^-1)
    from schrodingerizer.grids import fourier_matrix

    rng = np.random.default_rng(42)
    a = _random_stable(rng, 3)
    pg = PGrid(-2, 2, 8)
    sysm = assemble_schrodingerised(hermitian_split(a), pg)
    phi = fourier_matrix(pg.points)
    conj = np.kron(np.eye(3), phi)
    ref = conj @ ode_hdiag(sysm) @ np.linalg.inv(conj)
    assert np.abs(hamiltonian(sysm) - ref).max() <= 1e-10


def test_augmented_system_through_full_pipeline():
    # the source-folding construction also runs end to end through the warp;
    # the b column makes the Hermitian part indefinite (warned, not
    # rejected), and the recovery error tracks the induced positive
    # eigenvalue, so a moderate source stays within the usual O(dp) band
    rng = np.random.default_rng(55)
    n = 3
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n - 0.5 * np.eye(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = h1 + 1j * (m + m.conj().T) / 2
    u0 = rng.standard_normal(n)
    b_dir = rng.standard_normal(n)
    t = 1.0
    errs = []
    for scale in (0.5, 0.2, 0.05):
        aug = augment_inhomogeneous(LinearSystem(a_mat=a, b=scale * b_dir, u0=u0))
        split = hermitian_split(aug.a_mat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pg = default_pgrid(split, t, points=2048, right=12.0)
            sysm = assemble_schrodingerised(split, pg)
        got = recover(evolve_at(sysm, aug.u0, [t])[0], IntegrateP())
        ref = scipy.linalg.expm(aug.a_mat * t) @ aug.u0
        errs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    assert errs[1] <= 2e-2 and errs[2] <= 1e-3
    assert errs[0] > errs[1] > errs[2]  # contamination grows with the source


def _chunked_per_block(h1, h2, pgrid, w0, times, chunk_bytes=8 << 20):
    """The per-block evolution step by step: in from the factors of the
    ``ProductState`` w0, u0 times the p transform of g, one eigh per chunk
    of blocks -eta_k H1 + H2, the phases, p transform out."""
    n, npts = h1.shape[0], pgrid.points
    wt = np.outer(to_modes(w0.profile), w0.u)
    vt = np.empty((len(times), npts, n), dtype=complex)
    eta = pgrid.mu()
    chunk = max(1, chunk_bytes // (n * n * 16))
    for start in range(0, npts, chunk):
        part = slice(start, start + chunk)
        lam, q = np.linalg.eigh(-eta[part, None, None] * h1 + h2)
        y = (wt[part].conj()[:, None, :] @ q)[:, 0, :].conj()
        for i, t in enumerate(times):
            vt[i, part] = (q @ (np.exp(1j * lam * t) * y)[:, :, None])[:, :, 0]
    return [from_modes(v.T, axis=1).reshape(-1) for v in vt]


def test_non_commuting_system_returns_samples_bit_for_bit():
    # H1 and H2 share no eigenbasis: the per-block path still returns
    # WarpedStates, of p modes, whose samples have the bits of the
    # step-by-step reference
    rng = np.random.default_rng(41)
    pg = PGrid(-6, 6, 64)
    sysm = assemble_schrodingerised(hermitian_split(_random_stable(rng, 6)), pg)
    w0 = extend_initial(rng.standard_normal(6), pg)
    times = [0.0, 0.5, 1.0]
    ref = _chunked_per_block(sysm.split.h1, sysm.split.h2, pg, w0, times)
    traj = sysm.evolve(w0, EvolutionPlan("exact_diagonal", dt=1.0, t_final=1.0, snapshot_times=times))
    assert [type(s) for s in traj.states] == [WarpedState] * 3
    assert traj.times == times
    for state, want in zip(traj.states, ref, strict=True):
        assert np.array_equal(samples(state), want)
