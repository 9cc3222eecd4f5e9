import numpy as np
import pytest

from schrodingerizer.evolvers import EvolutionPlan
from schrodingerizer.grids import Grid, PGrid, _ifftn, to_modes
from schrodingerizer.models import (
    ConvectionModel,
    build_black_scholes,
    build_convection,
    build_fokker_planck,
    build_heat,
    build_liouville,
)
from schrodingerizer.ode import assemble_schrodingerised, hermitian_split
from schrodingerizer.warp import (
    IntegrateP,
    ModeFrameState,
    PointP,
    ProductState,
    WarpedState,
    _x_mode,
    containment_ratio,
    dominant_speed,
    estimate_domain,
    extend_initial,
    recover,
)

from oracles import (
    analytic_mode_solution,
    commuting_matrix,
    mode_frame_coeffs,
    peak_bytes,
    samples,
    samples_state,
)


def _node(pg, p):
    """Index of the p-grid node at p; fails for an off-grid p."""
    j = int(np.argmin(np.abs(pg.axis() - p)))
    assert abs(pg.axis()[j] - p) <= 1e-9 * pg.dp
    return j


def _point_weights(pg, j):
    """A point read at node j: e^{p_j} there and 0 elsewhere."""
    weights = np.zeros(pg.points)
    weights[j] = np.exp(pg.axis()[j])
    return weights


def test_extend_zero_data():
    pg = PGrid(-4, 4, 32)
    w = extend_initial(np.zeros(8), pg)
    assert np.all(samples(w) == 0)


def test_extend_symmetric_when_alpha_one():
    pg = PGrid(-4, 4, 64, alpha_neg=1.0)
    w = extend_initial(np.ones(1), pg)
    prof = samples(w).real
    p = pg.axis()
    for j, pj in enumerate(p):
        if pj > 0 and -pj >= pg.left:
            assert prof[j] == pytest.approx(prof[_node(pg, -pj)])


def test_extend_profile_value_at_one():
    pg = PGrid(-4, 4, 64, alpha_neg=23.0)
    w = extend_initial(np.ones(2), pg)
    assert samples(w)[_node(pg, 1.0)].real == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_integrate_recovery_of_exact_profile():
    # w(x, p) = exp(-p) u(x) on p > 0: the integral over p > 0 is u itself
    pg = PGrid(-4, 28, 4096)
    u = np.array([1.0, -2.0, 0.5 + 0.25j])
    vals = np.outer(u, np.exp(-np.abs(pg.axis()))).reshape(-1)
    w = samples_state(values=vals, pgrid=pg)
    got = recover(w, IntegrateP())
    assert np.abs(got - u).max() <= 1e-4


def test_point_recovery_consistent_across_nodes():
    pg = PGrid(-4, 4, 128)
    u = np.array([0.3, -1.0, 2.0j])
    profile = np.where(pg.axis() > 0, np.exp(-pg.axis()), 0.0)
    w = samples_state(values=np.outer(u, profile).reshape(-1), pgrid=pg)
    base = recover(w, PointP())
    for j in pg.positive_indices():
        got = w.contract_p(_point_weights(pg, j))
        assert np.abs(got - base).max() <= 1e-12
        assert np.abs(got - u).max() <= 1e-12


def test_point_recovery_validation():
    # the point node is the third above zero: a grid with one node above
    # zero has none
    pg = PGrid(-7, 1, 16)
    w = extend_initial(np.ones(2), pg)
    with pytest.raises(ValueError, match="fewer than three nodes above zero"):
        recover(w, PointP())


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
    return model, u0, model.evolve(w0, plan).states[-1]


def test_modewise_oracle_matches_analytic_solution():
    # every p node of the evolved mode profile agrees with the characteristic
    # solution up to the kink-limited spectral error
    t_star = 4.0 / np.pi**2
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    model, u0, w = _heat_run(16, t_star, pg)
    modes = to_modes(samples(w).reshape(-1, pg.points), axis=0)
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
            state = samples(w0).reshape(-1, pg.points)
        else:
            plan = EvolutionPlan("exact_diagonal", dt=t, t_final=t)
            state = samples(model.evolve(w0, plan).states[-1]).reshape(-1, pg.points)
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
    w = samples_state(values=np.zeros(4 * 32, dtype=complex), pgrid=pg)
    assert containment_ratio(w) == 0.0


def _exact_route_case(case):
    """(model, u0, snapshot times) for each model on the exact spectral route."""
    if case == "heat1d":
        grid = Grid(-1, 1, 16)
        model = build_heat(lambda x: 0 * x + 0.3, grid, PGrid(-4, 5, 256))
        times = (0.0, 0.02, 0.05)
    elif case == "heat2d":
        grid = Grid(-1, 1, 8, 2)
        model = build_heat(None, grid, PGrid(-4, 5, 128))
        times = (0.0, 0.02, 0.05)
    elif case == "black_scholes":
        grid = Grid(-1, 1, 32)
        model = build_black_scholes(0.05, 0.3, grid, PGrid(-2, 5, 256))
        times = (0.0, 0.5, 1.0)
    else:
        grid = Grid(-1, 1, 8, 2)
        model = build_convection(grid, p_points=32)
        times = (0.0, 0.2, 0.5)
    u0 = grid.sample(
        lambda *x: sum(
            (i + 1) * np.sin(np.pi * c) + 0.2 * np.cos((i + 3) * np.pi * c) for i, c in enumerate(x)
        )
    )
    return model, u0, times


def _assert_readouts_agree(model, state, ref):
    """state's norm, recoveries and x-mode profiles against those of ref,
    the same state as flat samples, to 1e-12 relative."""
    assert state.norm() == pytest.approx(ref.norm(), rel=1e-12)
    methods = [IntegrateP()]
    if not isinstance(model, ConvectionModel):  # its projection reads no p node
        methods += [PointP()]
    for method in methods:
        got, want = model.recover(state, method), model.recover(ref, method)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), method
    if not isinstance(model, ConvectionModel):  # a point read at the sixth node above zero
        weights = _point_weights(ref.pgrid, ref.pgrid.positive_indices()[5])
        got, want = state.contract_p(weights), ref.contract_p(weights)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    if state.grid is None:
        return
    if isinstance(state, ProductState):  # no profile readout: x mode l of its samples
        values = samples(state).reshape(state.grid.shape + (-1,))
        profile = lambda l: _x_mode(values, l, state.grid)  # noqa: E731
    else:
        profile = state.mode_profile
    # every mode, on the scale of the largest profile, since a mode the
    # data does not excite has a profile of rounding errors only
    modes = range(state.grid.size)
    got = np.array([profile(l) for l in modes])
    want = np.array([ref.mode_profile(l) for l in modes])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["heat1d", "heat2d", "black_scholes", "convection"])
def test_mode_frame_readouts_match_materialised_samples(case):
    # every snapshot of the exact route, the t = 0 one included, reads its
    # norm, recovery and profile from its coefficients; materialising the
    # samples and reading them as a WarpedState gives the same numbers
    model, u0, times = _exact_route_case(case)
    w0 = model.initial_state(u0)
    plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1], snapshot_times=times)
    traj = model.evolve(w0, plan)
    assert traj.times == list(times)
    for state in traj.states:
        assert isinstance(state, ModeFrameState)
        ref = samples_state(values=samples(state), pgrid=state.pgrid, grid=state.grid)
        _assert_readouts_agree(model, state, ref)
    # the t = 0 snapshot is the initial state itself
    assert np.abs(samples(traj.states[0]) - samples(w0)).max() <= 1e-14 * np.abs(samples(w0)).max()


@pytest.mark.parametrize(
    "case",
    [
        "heat1d", "heat2d", "black_scholes", "convection",
        "fokker_planck_conservation", "heat2d_varying_v", "heat_upwind",
    ],
)
def test_containment_ratio_reads_the_factors(case):
    # each mode's ratio is that of its transport row, read from one p
    # transform per row: the samples and the coefficients are never built.
    # On the x basis the samples read as a WarpedState give the same ratio;
    # on a dense basis the modes are its eigenmodes, basis^H times the
    # samples, read as a register with no grid.  The samples round each
    # mode by about 1e-16 of the largest, so a mode just above the 1e-8 cut
    # agrees to 1e-7 only (a fraction, so also compared absolutely: at
    # t = 0 both sides are rounding noise)
    if case in ("heat1d", "heat2d", "black_scholes", "convection"):
        model, u0, times = _exact_route_case(case)
        plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1], snapshot_times=times)
    else:
        model, u0, plan = _dense_basis_case(case)
    traj = model.evolve(model.initial_state(u0), plan)
    ratios = []
    for state in traj.states:
        got = containment_ratio(state)
        if state.basis is None:
            ref, rel = samples_state(values=samples(state), pgrid=state.pgrid, grid=state.grid), 1e-12
        else:
            eigenmodes = state.basis.conj().T @ samples(state).reshape(-1, state.pgrid.points)
            ref, rel = samples_state(values=eigenmodes.reshape(-1), pgrid=state.pgrid), 1e-7
        assert got == pytest.approx(containment_ratio(ref), rel=rel, abs=1e-12)
        ratios.append(got)
    assert max(ratios) > 1e-3  # some snapshot has mass on the left cells


@pytest.mark.parametrize(
    "case", ["heat2d", "black_scholes", "fokker_planck_conservation", "heat2d_varying_v", "heat_upwind"]
)
def test_containment_ratio_does_not_depend_on_the_scale_of_u0(case):
    # modes count relative to the largest, so u0 * 1e6 and u0 * 1e-6 read
    # the ratios of u0 at every snapshot (on the 8^2 heat lattice with a
    # cosine V an absolute cut read 7.34e-3, 5.91e-2 and 3.36e-3 at t = 1)
    if case in ("heat2d", "black_scholes"):
        model, u0, times = _exact_route_case(case)
        plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1], snapshot_times=times)
    else:
        model, u0, plan = _dense_basis_case(case)

    def ratios(scale):
        return [containment_ratio(s) for s in model.evolve(model.initial_state(scale * u0), plan).states]

    want = ratios(1.0)
    assert max(want) > 1e-3
    for scale in (1e6, 1e-6):
        assert ratios(scale) == pytest.approx(want, rel=1e-9, abs=1e-15)


def _ratio_of_the_samples(state):
    """The reference containment ratio: a ModeFrameState's transport table,
    or the (u entries, P) samples of the other two classes (in their x
    modes on a grid)."""
    if isinstance(state, ModeFrameState):
        table = (state.coarse[:, :, None] * state.fine[:, None, :]).reshape(len(state.coarse), -1)
        amp = np.abs(_ifftn(table * state.p_modes, (1,)))
        total = amp.sum(axis=1)
        rows, mass = state.rows, np.abs(state.amplitudes) * total[state.rows]
    else:
        modes = samples(state).reshape(-1, state.pgrid.points)
        if state.grid is not None:
            modes = modes.reshape(state.grid.shape + (state.pgrid.points,))
            modes = to_modes(modes, axis=tuple(range(state.grid.dims))).reshape(-1, state.pgrid.points)
        amp = np.abs(modes)
        total = mass = amp.sum(axis=1)
        rows = np.arange(total.size)
    rows = rows[mass > 1e-8 * mass.max()]
    return float((amp[rows, :2].sum(axis=1) / total[rows]).max())


@pytest.mark.parametrize(
    "case", ["product", "x_basis", "dense_basis", "half_spectrum", "full_spectrum", "no_grid"]
)
def test_containment_ratio_equals_the_ratio_of_the_samples(case):
    # containment_ratio builds what it reads from each class's fields; the
    # ratio is bit for bit the one read from the samples
    if case in ("product", "x_basis"):
        model, u0, times = _exact_route_case("heat2d")
        w0 = model.initial_state(u0)
        plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1])
        state = w0 if case == "product" else model.evolve(w0, plan).states[-1]
    elif case == "dense_basis":
        model, u0, plan = _dense_basis_case("fokker_planck_conservation")
        state = model.evolve(model.initial_state(u0), plan).states[-1]
        assert state.basis is not None
    elif case == "no_grid":
        rng = np.random.default_rng(41)
        c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        split = hermitian_split(-(c @ c.conj().T) / 6 + 0.3j * (c + c.conj().T))
        pg = PGrid(-6, 6, 64)
        plan = EvolutionPlan("exact_diagonal", dt=0.5, t_final=0.5)
        w0 = extend_initial(rng.standard_normal(6), pg)
        state = assemble_schrodingerised(split, pg).evolve(w0, plan).states[-1]
        assert isinstance(state, WarpedState) and state.grid is None
    else:
        grid = Grid(-1, 1, 16)
        model = build_heat(lambda x: np.cos(np.pi * x) - 1.0, grid, PGrid(-5, 5, 128))
        u0 = np.sin(np.pi * grid.axis()) + 0j
        if case == "full_spectrum":
            u0 += 0.5j * np.cos(np.pi * grid.axis())
        plan = EvolutionPlan("trotter", dt=0.01, t_final=0.4)
        state = model.evolve(model.initial_state(u0), plan).states[-1]
        width = 65 if case == "half_spectrum" else 128
        assert isinstance(state, WarpedState) and state.modes.shape[1] == width
    got = containment_ratio(state)
    assert got == _ratio_of_the_samples(state)
    assert 0 < got < 1


def _dense_basis_case(case):
    """(model, u0, plan) for each route that evolves in a dense eigenbasis:
    the shared one of H1 and H2 (heat with a cosine potential on an 8^2
    lattice among them), or that of the upwind transport matrix (a cosine
    potential, 200 and 600 steps at the CFL bound)."""
    times = (0.0, 0.4, 1.0)
    plan = EvolutionPlan("exact_diagonal", dt=times[-1], t_final=times[-1], snapshot_times=times)
    if case == "heat_upwind":
        grid = Grid(-1, 1, 16)
        model = build_heat(
            lambda x: np.cos(np.pi * x) - 1.0, grid,
            PGrid(-5, 5, 256, alpha_neg=10.0, left_support=-1.0),
        )
        dt = model.fd_transport().admissible_dt()
        plan = EvolutionPlan("upwind_fd", dt=dt, t_final=600 * dt, snapshot_times=(0.0, 200 * dt, 600 * dt))
        return model, np.sin(np.pi * grid.axis()) + 0.3 * np.cos(2 * np.pi * grid.axis()), plan
    if case == "heat2d_varying_v":
        grid = Grid(-1, 1, 8, dims=2)
        model = build_heat(
            lambda x, y: 0.5 * np.cos(np.pi * x), grid,
            PGrid(-5, 5, 128, alpha_neg=10.0, left_support=-1.0),
        )
        return model, grid.sample(lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y) + 0.2), plan
    if case.startswith("fokker_planck"):
        grid = Grid(-1, 1, 16)
        model = build_fokker_planck(
            lambda x: 0.5 * np.cos(np.pi * x), 0.2, grid,
            PGrid(-12, 8, 128, alpha_neg=10.0, left_support=-1.0),
            form=case.removeprefix("fokker_planck_"),
        )
        return model, np.exp(-4 * grid.axis() ** 2), plan
    if case == "liouville":
        grid = Grid(-1, 1, 64)
        lift = build_liouville(lambda x: -x, grid, 0.5, 0.1)
        a, u0 = lift.a_mat, lift.u0
    else:
        a, u0, grid = commuting_matrix(7, 6), np.linspace(1.0, -0.5, 6), None
    pg = PGrid(-4, 6, 128, alpha_neg=10.0, left_support=-1.0)
    model = assemble_schrodingerised(hermitian_split(a), pg, grid)
    return model, u0, plan


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")  # H1 = I/2 > 0
@pytest.mark.parametrize(
    "case",
    [
        "fokker_planck_conservation", "fokker_planck_heat_form", "liouville", "commuting_ode",
        "heat_upwind", "heat2d_varying_v",
    ],
)
def test_dense_basis_readouts_match_materialised_samples(case):
    # the shared-eigenbasis route and the upwind march keep every snapshot,
    # t = 0 included, as factors over the eigenbasis; its norm, recoveries
    # and (on a grid) x-mode profiles agree with those of the materialised
    # samples
    model, u0, plan = _dense_basis_case(case)
    w0 = model.initial_state(u0)
    traj = model.evolve(w0, plan)
    assert traj.times == list(plan.snapshot_times)
    for state in traj.states:
        assert isinstance(state, ModeFrameState) and state.basis is not None
        ref = samples_state(values=samples(state), pgrid=state.pgrid, grid=state.grid)
        _assert_readouts_agree(model, state, ref)
    assert np.abs(samples(traj.states[0]) - samples(w0)).max() <= 1e-13 * np.abs(samples(w0)).max()


@pytest.mark.parametrize("case", ["heat1d", "heat2d", "black_scholes", "convection"])
def test_product_state_readouts_and_mode_frame(case):
    # the initial state keeps its two factors: its readouts, and its
    # coefficients from two short transforms, agree with its outer product
    model, u0, _ = _exact_route_case(case)
    w0 = model.initial_state(u0)
    assert isinstance(w0, ProductState)
    ref = samples_state(values=samples(w0), pgrid=w0.pgrid, grid=w0.grid)
    _assert_readouts_agree(model, w0, ref)
    shape = model.grid.shape + (w0.pgrid.points,)
    full = np.fft.fftn(samples(w0).reshape(shape), norm="forward")
    coeffs = mode_frame_coeffs(w0.mode_frame())
    assert np.abs(coeffs - full).max() <= 1e-14 * np.abs(full).max()
    assert np.abs(samples(w0.mode_frame()) - samples(w0)).max() <= 1e-14 * np.abs(samples(w0)).max()


@pytest.mark.parametrize("dims", [1, 2])
def test_half_spectrum_state_reads_as_its_mirrored_full_spectrum(dims):
    # the P/2 + 1 p modes eta <= 0 of a spectrum whose column P/2 + k is the
    # conjugate of column P/2 - k, read as their own WarpedState, give the
    # norm, recoveries, profiles and samples of the whole spectrum.  The
    # spectrum is that of real samples, with an imaginary part added to the
    # p-Nyquist column (it has no partner, and the split step makes it
    # complex), so neither that column nor the eta = 0 one is zero
    grid = Grid(-1, 1, 8, dims)
    pg = PGrid(-4, 4, 32)
    half = pg.points // 2
    rng = np.random.default_rng(dims)
    kept = to_modes(rng.standard_normal((grid.size, pg.points)))[:, : half + 1]
    kept[:, 0] += 1j * rng.standard_normal(grid.size)
    assert np.abs(kept[:, 0].imag).min() > 0 and np.abs(kept[:, half]).min() > 0
    full = np.concatenate([kept, kept[:, half - 1 : 0 : -1].conj()], axis=1)
    got, want = (WarpedState(modes=m, pgrid=pg, grid=grid) for m in (kept, full))
    assert got.norm() == pytest.approx(want.norm(), rel=1e-14)
    for method in (IntegrateP(), PointP()):
        a, b = recover(got, method), recover(want, method)
        assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b), method
    a, b = (s.contract_p(_point_weights(pg, half + 7)) for s in (got, want))
    assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)
    profiles = [np.array([s.mode_profile(l) for l in range(grid.size)]) for s in (got, want)]
    assert np.abs(profiles[0] - profiles[1]).max() <= 1e-14 * np.abs(profiles[1]).max()
    assert np.abs(samples(got) - samples(want)).max() <= 1e-14 * np.abs(samples(want)).max()


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("spectrum", ["half", "full"])
def test_mode_profile_matches_x_mode_of_the_samples(dims, spectrum):
    # the profile contracted over the kept p-mode columns (the mirrored ones
    # read from the x mode of the opposite wavenumber) equals x mode l of
    # the samples, for every l, the Nyquist modes included
    grid = Grid(-1, 1, 8, dims)
    pg = PGrid(-4, 4, 32)
    rng = np.random.default_rng(10 + dims)
    modes = to_modes(rng.standard_normal((grid.size, pg.points)))
    if spectrum == "half":
        modes = modes[:, : pg.points // 2 + 1]
        modes[:, 0] += 1j * rng.standard_normal(grid.size)
    else:
        modes += 1j * to_modes(rng.standard_normal((grid.size, pg.points)))
    state = WarpedState(modes=modes, pgrid=pg, grid=grid)
    values = samples(state).reshape(grid.shape + (pg.points,))
    scale = np.abs(values).max()
    for l in range(grid.size):
        assert np.abs(state.mode_profile(l) - _x_mode(values, l, grid)).max() <= 1e-13 * scale, l


def test_half_spectrum_mode_profile_builds_no_samples():
    # a profile of a 16^2 x 1024 half spectrum allocates rows of P entries,
    # far below the 4 MiB of its samples
    grid = Grid(-1, 1, 16, 2)
    pg = PGrid(-4, 4, 1024)
    modes = np.ones((grid.size, pg.points // 2 + 1), dtype=complex)
    state = WarpedState(modes=modes, pgrid=pg, grid=grid)
    assert peak_bytes(lambda: state.mode_profile(grid.size // 2 + 3)) < grid.size * pg.points * 16 // 8


def test_extend_initial_rejects_wrong_size():
    with pytest.raises(ValueError, match="u0 has 3 entries, grid has 8 sites"):
        extend_initial(np.ones(3), PGrid(-2, 2, 16), grid=Grid(-1, 1, 8))
