import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrodingerizer.grids import (
    Dense,
    Diagonal,
    Grid,
    Identity,
    KronOperator,
    Momentum,
    PGrid,
    fourier_matrix,
    from_modes,
    kron_apply,
    to_modes,
    unflatten_index,
)


def test_fourier_matrix_m2():
    phi = fourier_matrix(2)
    assert np.allclose(phi, np.array([[1, 1], [-1, 1]]), atol=1e-14)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_fourier_matrix_sign_flip_factorisation(m):
    phi = fourier_matrix(m)
    s = np.diag([(-1.0) ** j for j in range(m)])
    f = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    assert np.abs(phi - np.sqrt(m) * s @ f).max() <= 1e-13
    assert np.abs(phi.conj().T @ phi - m * np.eye(m)).max() <= 1e-12


def test_fourier_matrix_inverse_identity():
    for m in (4, 16, 64):
        phi = fourier_matrix(m)
        assert np.abs(phi @ np.linalg.inv(phi) - np.eye(m)).max() <= 1e-13


def test_fourier_matrix_columns_orthogonal_m4():
    phi = fourier_matrix(4)
    gram = phi.conj().T @ phi
    assert np.allclose(np.diag(gram), 4.0)
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-13


@pytest.mark.parametrize("bad", [3, 6, 12, 1, 0, -4])
def test_fourier_matrix_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        fourier_matrix(bad)


def test_momentum_modes_m4():
    mu = Grid(-1, 1, 4).mu()
    assert np.allclose(mu, [-2 * np.pi, -np.pi, 0.0, np.pi])


def test_momentum_kills_constants():
    pmu = Momentum(Grid(-1, 1, 16).mu()).matrix()
    assert np.abs(pmu @ np.ones(16)).max() <= 1e-12


def test_momentum_differentiates_resolved_mode():
    grid = Grid(-1, 1, 16)
    pmu = Momentum(grid.mu()).matrix()
    x = grid.axis()
    got = pmu @ np.sin(np.pi * x)
    assert np.abs(got - (-1j) * np.pi * np.cos(np.pi * x)).max() <= 1e-10


def test_momentum_matrix_hermitian():
    for m in (4, 16, 64):
        mu = Grid(-1, 1, m).mu()
        pmu = Momentum(mu).matrix()
        assert np.abs(pmu - pmu.conj().T).max() <= 1e-12
        assert np.abs(mu.imag).max() == 0


def test_mode_transform_round_trip():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.abs(from_modes(to_modes(v)) - v).max() <= 1e-13


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, -1, 8)
    with pytest.raises(ValueError):
        Grid(-1, 1, 10)
    with pytest.raises(ValueError):
        PGrid(left=1.0, right=2.0, points=8)
    with pytest.raises(ValueError):
        PGrid(left=-1.0, right=1.0, points=8, alpha_neg=0.5)


def test_diag_from_function_identity():
    op = KronOperator([Diagonal(Grid(-1, 1, 8).sample(lambda x: np.ones_like(x)))])
    v = np.arange(8.0)
    assert np.allclose(kron_apply(op, v), v)


def test_diag_from_function_coordinate():
    op = KronOperator([Diagonal(Grid(-1, 1, 4).sample(lambda x: x))])
    assert np.allclose(op.factors[0].values, [-1.0, -0.5, 0.0, 0.5])


def test_diag_from_function_2d_ordering():
    # f(x1, x2) = x1 must vary slowest in the flattened order
    grid = Grid(-1, 1, 4, dims=2)
    op = KronOperator([Diagonal(grid.sample(lambda x1, x2: x1 + 0 * x2))])
    vals = op.factors[0].values.reshape(4, 4)
    assert np.allclose(vals, np.repeat(grid.axis()[:, None], 4, axis=1))


def test_diag_from_function_reports_bad_node():
    def f(x):
        out = np.ones_like(x)
        out[2] = np.inf
        return out

    with pytest.raises(ValueError, match="node"):
        KronOperator([Diagonal(Grid(-1, 1, 8).sample(f))])


def test_kron_apply_identity_factors():
    op = KronOperator([Identity(4), Identity(8)])
    v = np.random.default_rng(1).standard_normal(32)
    assert np.allclose(kron_apply(op, v), v)


def test_kron_apply_momentum_vs_dense():
    grid = Grid(-1, 1, 4)
    mu = grid.mu()
    rng = np.random.default_rng(2)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    op = KronOperator([Momentum(mu), Identity(4)])
    dense = op.dense()
    assert np.abs(kron_apply(op, v) - dense @ v).max() <= 1e-12 * max(1, np.abs(dense @ v).max())


def test_kron_apply_diag_momentum_vs_dense():
    grid = Grid(-1, 1, 4)
    rng = np.random.default_rng(3)
    d = rng.standard_normal(4)
    op = KronOperator([Diagonal(d), Momentum(grid.mu())], scale=1.5 - 0.5j)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    ref = op.dense() @ v
    assert np.abs(kron_apply(op, v) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_kron_apply_dimension_mismatch():
    op = KronOperator([Identity(4)])
    with pytest.raises(ValueError):
        kron_apply(op, np.ones(5))


@st.composite
def kron_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_factors = draw(st.integers(1, 3))
    factors = []
    for _ in range(n_factors):
        kind = draw(st.sampled_from(["identity", "diag", "momentum", "momentum2", "dense"]))
        dim = draw(st.sampled_from([2, 4]))
        if kind == "identity":
            factors.append(Identity(dim))
        elif kind == "diag":
            factors.append(Diagonal(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
        elif kind == "momentum":
            factors.append(Momentum(Grid(-1, 1, dim).mu()))
        elif kind == "momentum2":
            factors.append(Momentum(Grid(-1, 1, dim).mu(), 2))
        else:
            factors.append(Dense(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))))
    scale = complex(rng.standard_normal(), rng.standard_normal())
    op = KronOperator(factors, scale=scale)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    return op, v


@settings(max_examples=60, deadline=None)
@given(kron_cases())
def test_kron_apply_matches_dense_oracle(case):
    op, v = case
    ref = op.dense() @ v
    assert np.abs(kron_apply(op, v) - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


def test_flatten_unflatten_round_trip_exhaustive():
    for dims in (1, 2, 3):
        for points in (2, 4, 8):
            for flat in range(points**dims):
                multi = unflatten_index(flat, points, dims)
                assert np.ravel_multi_index(multi, (points,) * dims) == flat


def test_pgrid_warp_profile_and_index():
    pg = PGrid(left=-4, right=4, points=64, alpha_neg=7.0)
    p = pg.axis()
    prof = pg.warp_profile()
    assert np.allclose(prof[p >= 0], np.exp(-p[p >= 0]))
    assert np.allclose(prof[p < 0], np.exp(-7.0 * np.abs(p[p < 0])))
    j = pg.index_of(1.0)
    assert p[j] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pg.index_of(1.03)


def test_kron_apply_exhaustive_two_factor_combinations():
    # every pairing of factor kinds on small axes against the dense product
    rng = np.random.default_rng(17)

    def make(kind, dim):
        if kind == "identity":
            return Identity(dim)
        if kind == "diag":
            return Diagonal(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        if kind == "momentum":
            return Momentum(Grid(-1, 1, dim).mu())
        if kind == "momentum2":
            return Momentum(Grid(-1, 1, dim).mu(), 2)
        return Dense(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    kinds = ("identity", "diag", "momentum", "momentum2", "dense")
    for kind_a in kinds:
        for kind_b in kinds:
            for dims in ((2, 4), (4, 2), (8, 8)):
                op = KronOperator([make(kind_a, dims[0]), make(kind_b, dims[1])])
                v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
                ref = op.dense() @ v
                assert np.abs(kron_apply(op, v) - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize(
    "shape, axes", [((8, 16, 32), (0, 1)), ((4, 8, 16), (0, 1, 2)), ((4, 8, 16), (2, 0))]
)
def test_multi_axis_transform_matches_per_axis_loop(shape, axes):
    # one fftn over a tuple of axes must equal the per-axis loop bit for bit
    rng = np.random.default_rng(7)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fwd, back = v, v
    for axis in axes:
        fwd = to_modes(fwd, axis=axis)
        back = from_modes(back, axis=axis)
    assert np.array_equal(to_modes(v, axis=axes), fwd)
    assert np.array_equal(from_modes(v, axis=axes), back)
