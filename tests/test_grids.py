import numpy as np
import pytest

from schrodingerizer.grids import Grid, PGrid, fourier_matrix, from_modes, to_modes, unflatten_index
from schrodingerizer.models import _axis_momentum


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
    pmu = _axis_momentum(Grid(-1, 1, 16))
    assert np.abs(pmu @ np.ones(16)).max() <= 1e-12


def test_momentum_differentiates_resolved_mode():
    grid = Grid(-1, 1, 16)
    pmu = _axis_momentum(grid)
    x = grid.axis()
    got = pmu @ np.sin(np.pi * x)
    assert np.abs(got - (-1j) * np.pi * np.cos(np.pi * x)).max() <= 1e-10


def test_momentum_matrix_hermitian():
    for m in (4, 16, 64):
        grid = Grid(-1, 1, m)
        pmu = _axis_momentum(grid)
        assert np.abs(pmu - pmu.conj().T).max() <= 1e-12
        assert np.abs(grid.mu().imag).max() == 0


@pytest.mark.parametrize("points, dims", [(16, 1), (64, 1), (8, 2), (16, 2)])
def test_momentum_power_is_the_matrix_power(points, dims):
    # the square taken on the 1-D factor is the product of the momenta: the
    # dense builders take every axis's P_l^2 line block from it, on a lattice
    # of any dimension
    grid = Grid(-1, 1, points, dims)
    pmu = _axis_momentum(grid)
    square = pmu @ pmu
    got = _axis_momentum(grid, 2)
    assert np.linalg.norm(got - square) <= 1e-13 * np.linalg.norm(square)


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
    # a constant function broadcasts to every node: its diagonal is I
    assert np.array_equal(Grid(-1, 1, 8).sample(lambda x: 1.0), np.ones(8))


def test_diag_from_function_coordinate():
    assert np.allclose(Grid(-1, 1, 4).sample(lambda x: x), [-1.0, -0.5, 0.0, 0.5])


def test_diag_from_function_2d_ordering():
    # f(x1, x2) = x1 must vary slowest in the flattened order
    grid = Grid(-1, 1, 4, dims=2)
    vals = grid.sample(lambda x1, x2: x1 + 0 * x2).reshape(4, 4)
    assert np.allclose(vals, np.repeat(grid.axis()[:, None], 4, axis=1))


def test_diag_from_function_reports_bad_node():
    def f(x):
        out = np.ones_like(x)
        out[2] = np.inf
        return out

    with pytest.raises(ValueError, match="node"):
        Grid(-1, 1, 8).sample(f)


def test_flatten_unflatten_round_trip_exhaustive():
    for dims in (1, 2, 3):
        for points in (2, 4, 8):
            for flat in range(points**dims):
                multi = unflatten_index(flat, points, dims)
                assert np.ravel_multi_index(multi, (points,) * dims) == flat


def test_pgrid_warp_profile():
    pg = PGrid(left=-4, right=4, points=64, alpha_neg=7.0)
    p = pg.axis()
    prof = pg.warp_profile()
    assert np.allclose(prof[p >= 0], np.exp(-p[p >= 0]))
    assert np.allclose(prof[p < 0], np.exp(-7.0 * np.abs(p[p < 0])))


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
