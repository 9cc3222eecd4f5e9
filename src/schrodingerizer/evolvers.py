"""Time evolution engines.

Every engine takes its operator data, then ``w0``, the initial ``warp``
state, whose lattice and p-grid are the run's, then the ``EvolutionPlan``
or the snapshot times, the run's only times.  It returns a ``Trajectory``
of ``warp`` states, one per snapshot time: ``ModeFrameState``s on the
factored routes and ``WarpedState``s of p-mode coefficients on the others;
no engine transforms back over p.  The routes are:

* evolution in the mode frame of a basis, for every generator diagonal
  there: ``evolve_mode_frame`` is the one kernel.  It takes the initial
  ``warp.ProductState`` into the factored frame (register amplitudes, the
  p transform of the profile and a table of transport rows) and returns a
  ``warp.ModeFrameState`` per time, with the amplitudes multiplied by
  exp(t rate) and one transport row per distinct speed; nothing of size
  M^d x P is formed.  The heat, Black-Scholes and convection models run it
  exactly on the x Fourier basis (and the exact references transform their
  M^d-sized x state in and out around the same rates), the shared-basis
  branch of ``evolve_mode_blocks`` on a dense eigenbasis (Fokker-Planck,
  heat with a varying potential, and commuting linear systems, among them
  the Liouville lift of a linear field, whose scalar H1 takes one eigh of
  H2 and one transport row), and the
  upwind march on the eigenbasis of its transport matrix;
* first-order splitting that alternates two diagonal phases, the kinetic
  one in x modes and the potential one in x samples, on one state entered
  from the p transform of the profile; its real operators keep the p
  spectrum of a real u0 conjugate-symmetric, so for one only the p modes
  eta <= 0 are evolved and kept as the snapshots' half spectra, while a
  complex u0 steps all P.  Per p mode the kinetic phase is the
  Kronecker product of one circulant M x M block per axis, so on d >= 2
  axes of up to 32 (d - 1) points a step multiplies the state by that
  block along each axis, as one real product per axis; on small lattices with long gaps between snapshots each gap
  is one power of the M^d x M^d step matrix by repeated squaring; and
  otherwise (1-D, large M) the loop conjugates by the spatial transform
  (native order) twice per step;
* the split step over discrete ordinates of the linear Boltzmann model
  (``evolve_ordinate_split``): one n_ord x n_ord step block per (x mode,
  p mode), raised to each snapshot gap by repeated squaring, with each
  snapshot transformed back over the x axes only;
* the upwind finite-difference march for the p-transport form with a
  Hermitian transport matrix A, computed in closed form: its one-step matrix
  is block circulant in p, so after one eigh of A every step is a scalar
  factor per (A-mode, p-frequency) pair, a transport row of the mode frame;
* the p-frequency blocks of a generic split whose H1 and H2 share no
  eigenbasis (``evolve_mode_blocks``): one eigh per block, each snapshot
  keeping its (register, p mode) slice of one output array.

One budget, ``_CHUNK_BYTES``, bounds the chunks of the split step's
blocks, the Boltzmann march and the eigh stack, below the C allocator's
mmap threshold.

The stepped engines take each snapshot at its requested time, which the
plan has checked lies on a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .grids import PGrid, _fftn, _ifftn, from_modes, to_modes
from .warp import ProductState, WarpedState

__all__ = [
    "EvolutionPlan",
    "Trajectory",
    "FDTransport",
    "CFLError",
    "evolve_mode_frame",
    "evolve_trotter",
    "evolve_ordinate_split",
    "evolve_upwind_fd",
    "evolve_mode_blocks",
]

ENGINES = ("exact_diagonal", "trotter", "upwind_fd")
STEPPED_ENGINES = ("trotter", "upwind_fd")  # dt must divide every snapshot time


class CFLError(ValueError):
    """Raised when a step size violates the upwind stability bound."""

    def __init__(self, dt: float, admissible: float):
        self.admissible = admissible
        super().__init__(
            f"dt = {dt:g} violates the CFL bound; admissible dt <= {admissible:g}"
        )


@dataclass(frozen=True)
class EvolutionPlan:
    """Engine choice, step size and snapshot schedule on [0, t_final]."""

    engine: str
    dt: float
    t_final: float
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        snaps = tuple(sorted(float(t) for t in self.snapshot_times)) or (float(self.t_final),)
        if snaps[0] < 0 or snaps[-1] > self.t_final * (1 + 1e-12):
            raise ValueError("snapshot times must lie in [0, t_final]")
        object.__setattr__(self, "snapshot_times", snaps)
        if self.engine in STEPPED_ENGINES:
            ratio = self.t_final / self.dt
            if not _on_step(ratio):
                raise ValueError(
                    f"t_final/dt = {ratio!r} is not an integer number of steps"
                )
            for t in snaps:
                k = t / self.dt
                if not _on_step(k):
                    nearest = (math.floor(k) * self.dt, min(math.ceil(k), self.n_steps) * self.dt)
                    raise ValueError(
                        f"snapshot t = {t!r} is not a multiple of dt = {self.dt!r}; "
                        f"nearest admissible times are {nearest[0]!r} and {nearest[1]!r}"
                    )

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


def _on_step(ratio: float) -> bool:
    """Whether a time/dt ratio is a whole number of steps (1e-9 relative)."""
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


@dataclass
class Trajectory:
    """Snapshots of the evolution, one ``warp`` state per time in
    ``times``, the only time label: ``ModeFrameState`` on the routes of
    ``evolve_mode_frame`` (the exact spectral route, the shared-eigenbasis
    branch of ``evolve_mode_blocks`` and the upwind march), else
    ``WarpedState``.  The last snapshot is ``states[-1]``.

    ``x_transforms`` and ``p_transforms`` count the FFT calls over the x
    axes and over p that an engine makes while evolving, whatever the size
    of the array (readouts of the snapshots excluded); one call over the x
    axes and p together counts once in each.  ``evolve_mode_frame`` counts
    1 and 1 on the x basis, and 0 and 1 on a dense one (the shared-basis
    route and the upwind march), where it enters the basis by q^H u0, a
    product, not a transform, and transforms only the p profile.  The split
    step counts 1 over p, the P-sized profile's on entry; over x its step
    loop counts two per step up to the last snapshot, and its per-axis and
    power routes two in all (the M-wide identity's, from which they build
    the kinetic blocks).  The Boltzmann march counts 1 over p and 1 + K
    over x, K the number of snapshot steps, and the per-block eigh route 1
    over p and none over x.
    """

    times: list[float] = field(default_factory=list)
    states: list = field(default_factory=list)
    x_transforms: int = 0
    p_transforms: int = 0

    def add(self, times: float | Sequence[float], state: WarpedState) -> None:
        """Record ``state`` once for each time in ``times``."""
        for t in np.atleast_1d(times):
            self.times.append(float(t))
            self.states.append(state)


# Columns of the fine table of the p-transport phase (``_transport_phase``):
# with 64, the two tables of an 8192-point p axis hold 128 + 64 entries per
# transport speed instead of 8192.
_PHASE_BLOCK = 64


def _transport_phase(
    speed: np.ndarray, pgrid: PGrid, t: float, power: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """exp(i t speed_l eta_j**power) over (speeds, p modes in native FFT
    order), as the table pair (coarse, fine) of ``warp.ModeFrameState``:
    entry (l, b q + r) is coarse[l, q] * fine[l, r].

    Natively eta_j = d * j with j = 0, 1, ..., P/2 - 1, -P/2, ..., -1 and
    d = 2 pi / (right - left), so for power 1 the phase is geometric in j.
    Writing the native position as b q + r (0 <= r < b), it is the product
    of a coarse table over q, exp(i t speed_l d b q'), and a fine one over
    r, exp(i t speed_l d r): one complex exp per table entry.  q' is the
    signed block index, which needs every block on one side of P/2, hence
    b <= P/2.  Any other power is not geometric in j, and the fine table is
    the whole row (b = P).
    """
    points = pgrid.points
    if power != 1:
        eta = np.fft.ifftshift(pgrid.mu()) ** power
        return np.ones((speed.size, 1)), np.exp(1j * (speed[:, None] * eta) * t)
    block = min(_PHASE_BLOCK, points // 2)
    q = np.arange(points // block)
    q[q.size // 2:] -= q.size
    step = (t * 2.0 * np.pi / (pgrid.right - pgrid.left)) * speed[:, None]
    return np.exp(1j * block * step * q), np.exp(1j * step * np.arange(block))


def evolve_mode_frame(rate, speed, w0, times: Sequence[float], basis=None, rows=None) -> Trajectory:
    """Exact evolution of a generator diagonal in the mode frame of a basis,
    from ``w0``, a ``warp.ProductState``, which enters that frame by
    ``w0.mode_frame(basis)``: ``basis^H u0`` on a dense ``basis``, one x
    transform of u0 without one, and one p transform of the profile.

    ``rate`` and ``speed`` are given per register mode, flat in its order
    (native FFT order on the x basis): mode i grows or turns at rate_i, so
    its amplitude is multiplied by exp(t rate_i), while it is carried along
    p by its transport row.  The modes of one speed share one row, and
    ``rows(speeds, pgrid, t)`` builds the table of rows, one per distinct
    speed, as the pair (coarse, fine) of ``warp.ModeFrameState``, once per
    time; by default it is ``_transport_phase``, exp(i t speed_i eta_k).
    Returns one ``ModeFrameState`` per time; nothing is transformed back.
    """
    if not hasattr(w0, "mode_frame"):
        raise TypeError("the mode frame needs the initial state as a warp.ProductState")
    rows = _transport_phase if rows is None else rows
    frame = w0.mode_frame(basis)
    speeds, index = np.unique(np.asarray(speed, dtype=float).reshape(-1), return_inverse=True)
    rate = np.asarray(rate, dtype=complex)
    times = [float(t) for t in times]
    states = []
    for t in times:
        coarse, fine = rows(speeds, w0.pgrid, t)
        amplitudes = frame.amplitudes * np.exp(t * rate)
        states.append(replace(frame, amplitudes=amplitudes, coarse=coarse, fine=fine, rows=index))
    return Trajectory(times, states, x_transforms=int(basis is None), p_transforms=1)


def _snapshot_steps(plan: EvolutionPlan) -> dict[int, list[float]]:
    """The requested times on each step index, in step order (the plan has
    checked they are on-step); a time requested twice is listed twice."""
    steps: dict[int, list[float]] = {}
    for t in plan.snapshot_times:
        steps.setdefault(int(round(t / plan.dt)), []).append(t)
    return steps


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_m b_m for the n x n blocks a[:, :, m] and n x k blocks b[:, :, m],
    m over the trailing axes: n broadcast products, faster than einsum here."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, len(b)):
        out += a[:, j, None] * b[None, j]
    return out


def _apply_power(step: np.ndarray, gap: int, part: np.ndarray, product) -> np.ndarray:
    """step**gap applied to ``part`` by binary powering, for a stack of
    blocks multiplied by ``product(a, b)``: the running square is applied
    for each set bit of ``gap`` and squared while bits remain, so
    floor(log2 gap) squarings and popcount(gap) applications."""
    power = step
    while gap:
        if gap & 1:
            part = product(power, part)
        gap >>= 1
        if gap:
            power = product(power, power)
    return part


# The one budget, in bytes, of the blocks of a chunk of p modes built at once
# by every batched stage: the split step's powers (one n x n block per p
# mode, taken only while one fits) and per-axis steps (the larger of the
# state and the real 2M x 2M kinetic matrix, per p mode), the Boltzmann march (n_ord^2 per x and p
# mode, at least one p mode a chunk) and the per-block eigh stack (16 blocks
# a call at n = 32, one at n >= 128).  The C allocator raises its mmap
# threshold to the largest mapped block it frees, so a freed 2 MB stack would
# move later 1 MiB arrays from fresh pages to the heap, changing their speed
# and the peak RSS.  Small chunks cost no time: a four-ordinate 32^2 x 256
# Boltzmann march evolves in 372 ms against 474 ms with 8 MiB chunks.
_CHUNK_BYTES = 256 << 10


def _trotter_route(points: int, dims: int, gaps: Sequence[int]) -> str:
    """The split-step route for an M^d lattice (M = ``points``, d = ``dims``)
    and these snapshot gaps (in steps): "powers", "axes" or "loop".

    Per p mode, a step of the loop is two x transforms over the M^d sites;
    one of the per-axis route is d real products of the state with the
    2M x 2M matrix of a kinetic block.  That beats the strided transforms
    of d >= 2 axes up to M = 32 in 2-D and M = 64 in 3-D, where the
    transforms slow down more, so up to M = 32 (d - 1), and loses in 1-D.
    The powers build the M^d x M^d step block and per gap g square it
    floor(log2 g) times and apply a power to the state popcount(g) times.
    With n = M^d, a product costs about n^2 / 64 steps of either stepping
    route, in 2-D and 3-D alike, and an application about two.  So powers
    win when n^2 (1 + sum floor(log2 g)) < 64 sum (g - 2 popcount(g)),
    which snapshots one step apart never meet, and only while one block fits
    the chunk budget (n <= 128).  The forced-route timings the rule was
    checked against, with the cases on its wrong side, are
    ``rule_timings_ms`` in ``BENCH_interleaved_axis_kernel.json``.
    """
    n = points**dims
    gaps = [int(g) for g in gaps]
    products = 1 + sum(g.bit_length() - 1 for g in gaps if g)
    saved = sum(g - 2 * bin(g).count("1") for g in gaps)
    if 16 * n * n <= _CHUNK_BYTES and n * n * products < 64 * saved:
        return "powers"
    return "axes" if points <= 32 * (dims - 1) else "loop"


def _phase(rate, eta, dt: float) -> np.ndarray:
    """exp(i dt rate eta), with ``rate`` broadcast against ``eta``: the real
    product cast to complex, then times 1j and dt and exponentiated in
    place.  Every table of the split step is built so, and elementwise, so
    the rows of a chunk of p modes have the bits of the whole table."""
    table = np.multiply(rate, eta).astype(complex)
    np.multiply(1j, table, out=table)
    np.multiply(table, dt, out=table)
    return np.exp(table, out=table)


def _trotter_blocks(symbol, potential, eta, dt, s0, steps, out, powers: bool) -> None:
    """The split step s0 -> S s0 of ``evolve_trotter`` taken to each step of
    ``steps`` (increasing) on kinetic blocks: per p mode eta,
    K(eta) = F^-1 diag(exp(i dt eta symbol)) F, the M x M kinetic phase of
    one axis (the same on every axis), with the transform F and its inverse
    from one transform each of the M-wide identity.  The kinetic phase of
    the lattice is K (x) ... (x) K, so

    * with ``powers``, each gap is one power of the step block
      S(eta) = diag(exp(-i dt eta potential)) (K (x) ... (x) K), M^d x M^d
      (K itself in 1-D), by binary powering;
    * otherwise each step multiplies the state by K along each axis in turn
      (d real products per p mode, ``_step_axes``), then by the potential
      phase.

    s0 is (*shape, H), H the stepped p modes; the state at steps[i] is
    written into out[i], of the same shape, and out[-1] may be s0 itself.
    The p modes go a chunk at a time through every gap, and each chunk
    builds its own blocks and potential phases and reads its modes of s0
    before it writes any of them; a chunk holds _CHUNK_BYTES of its
    largest block per p mode: the step block, or the larger of the state
    and the real matrix of K (32 M^2 bytes).
    """
    shape, modes = potential.shape, s0.shape[-1]
    m, dims, n = shape[0], len(shape), potential.size
    eye = np.eye(m)
    fwd, inv = _fftn(eye, (0,)), _ifftn(eye, (0,))
    kinetic, rate = _phase(eta[:, None], symbol, dt), -potential.reshape(n)
    chunk = max(1, _CHUNK_BYTES // (16 * n * n if powers else max(16 * n, 32 * m * m)))
    # the axis order of orientation r: the lattice axes from r on, cyclically
    turns = [(0,) + tuple(1 + (r + a) % dims for a in range(dims)) for r in range(dims)]
    for lo in range(0, modes, chunk):
        part, done = np.s_[lo : min(lo + chunk, modes)], 0
        kin = inv @ (kinetic[part, :, None] * fwd)
        pos = _phase(eta[part, None], rate, dt)
        if powers:
            step = kin
            for _ in range(dims - 1):  # kron(step_j, K_j) for each p mode j
                step = (step[:, :, None, :, None] * kin[:, None, :, None, :]).reshape(len(kin), step.shape[1] * m, -1)
            step *= pos[..., None]
            vec = s0[..., part].reshape(n, -1).T[..., None]  # one column per p mode: (c, n, 1)
        else:
            real = _interleaved(kin)
            pos = pos.reshape((-1,) + shape)
            pos = [np.ascontiguousarray(pos.transpose(t)) for t in turns]
            vec = np.ascontiguousarray(np.moveaxis(s0[..., part], -1, 0))  # (c, *shape)
            buf = np.empty_like(vec)
        for i, k in enumerate(steps):
            if powers:
                vec = _apply_power(step, k - done, vec, np.matmul)
                values = vec[..., 0].T
            else:
                vec, buf = _step_axes(real, pos, vec, buf, done, k)
                # back from orientation k mod d to the lattice's axis order
                values = np.moveaxis(vec.transpose(np.argsort(turns[k % dims])), 0, -1)
            out[i][..., part] = values.reshape(shape + (-1,))
            done = k


def _interleaved(kin: np.ndarray) -> np.ndarray:
    """The real 2M x 2M matrices R with x.view(float) @ R[j] equal to
    (x @ kin[j].T).view(float) for complex rows x: entries (2l + s, 2k + t)
    hold Re K[k, l] where s = t, Im K[k, l] at (0, 1) and -Im K[k, l] at (1, 0)."""
    c, m = kin.shape[:2]
    real = np.empty((c, m, 2, m, 2))
    kt = kin.transpose(0, 2, 1)
    real[:, :, 0, :, 0] = real[:, :, 1, :, 1] = kt.real
    real[:, :, 0, :, 1] = kt.imag
    real[:, :, 1, :, 0] = -kt.imag
    return real.reshape(c, 2 * m, 2 * m)


def _step_axes(real, pos, vec, buf, done: int, k: int):
    """Take ``vec``, one state of the lattice's shape per p mode j, from
    step ``done`` to step ``k``: per step, the M x M block K_j along each
    axis, then the potential phase.  K_j acts on the last axis only, as one
    real product of the state's interleaved (re, im) view with real[j]
    (``_interleaved``); a copy then moves that axis to the front for the
    next product.  So a step makes d products and d - 1 such turns, and
    after step s the axes stand in orientation s mod d: pos[r] is the
    potential phase in orientation r.  ``buf``, a scratch array of vec's
    shape, swaps with it; returns (state, scratch)."""
    c, dims, width = len(vec), vec.ndim - 1, real.shape[-1]
    for s in range(done, k):
        for axis in range(dims):
            np.matmul(vec.view(float).reshape(c, -1, width), real, out=buf.view(float).reshape(c, -1, width))
            if axis < dims - 1:
                np.copyto(vec, np.moveaxis(buf, -1, 1))
            else:
                vec, buf = buf, vec
        vec *= pos[(s + 1) % dims]
    return vec, buf


def _trotter_loop(phase_freq, phase_pos, s, steps, out) -> None:
    """Step ``s``, (*shape, H), in place, one split step per dt, and at
    steps[i] (increasing) copy it into out[i], unless out[i] is ``s``."""
    x_axes, done = tuple(range(s.ndim - 1)), 0
    for k, dest in zip(steps, out):
        for _ in range(k - done):
            _fftn(s, x_axes, out=s)
            s *= phase_freq
            _ifftn(s, x_axes, out=s)
            s *= phase_pos
        done = k
        if dest is not s:
            np.copyto(dest, s)


def evolve_trotter(
    symbol: np.ndarray, potential: np.ndarray, w0: ProductState, plan: EvolutionPlan
) -> Trajectory:
    """First-order split step of d/dt w = i (symbol(D_x) - potential(x)) (x) P_mu
    from ``w0``, a ``warp.ProductState`` u0 (x) g(p) with a real profile g,
    on its lattice and p-grid, where ``symbol`` is given over the modes of
    one axis (monotone order) and the lattice symbol is its sum over the
    axes: per p mode eta, exp(i dt eta symbol) over the x modes, between
    the spatial transform (native order) and its inverse, then
    exp(-i dt eta potential).

    The state enters as u0 (x) (one transform of g), written into the array
    of the last snapshot step, where it is stepped; each earlier snapshot
    step copies it into an array of its own, and every snapshot is a
    ``warp.WarpedState`` of these p modes, with no transform back over p.
    With a real symbol and potential both factors are real operators on
    functions of (x, p) (conjugation maps p mode eta to -eta), so a real u0
    keeps w^(x, -eta) = conj w^(x, eta): only the p modes j = 0 ... P/2
    (eta_j <= 0) are stepped and kept, the half spectrum whose mirror the
    snapshot's readouts supply.  The Nyquist mode j = 0 has no partner: it
    is stepped and stays complex, so the samples are not an irfft, which
    would force it real.  A complex u0 has no such symmetry, and all P
    modes are stepped and kept.

    Three routes reach the snapshot steps, picked from M, d and the
    snapshot gaps alone (``_trotter_route``): the step loop, two x
    transforms of the lattice per step up to the last snapshot, for 1-D
    and large M; per-axis stepping, per step d real products of the
    state's interleaved (re, im) view with the 2M x 2M real form of an
    M x M kinetic block, for d >= 2 and M up to 32 (d - 1); and block powers, about 2 log2(gap)
    M^d x M^d block products per gap, for small lattices and long gaps.
    Both block routes (``_trotter_blocks``) make two x transforms in all,
    of the M-wide identity.  Every route makes one p transform, of g.
    """
    grid, pgrid = w0.grid, w0.pgrid
    # the x transform runs in native order: Phi D Phi^-1 = F ifftshift(D) F^-1
    symbol = np.fft.ifftshift(np.asarray(symbol, dtype=float))
    potential = np.reshape(potential, grid.shape)
    if np.any(np.imag(w0.profile)):
        raise ValueError("the split step needs a real p profile")
    u = w0.u.reshape(grid.shape)
    mirror = not np.any(u.imag)
    kept = pgrid.points // 2 + 1 if mirror else pgrid.points
    eta = pgrid.mu()[:kept]
    snapshots, traj = _snapshot_steps(plan), Trajectory()
    steps = list(snapshots)
    spectra = [np.empty(grid.shape + (kept,), dtype=complex) for _ in steps]
    g = to_modes(np.real(w0.profile))[:kept]
    s = np.multiply((u.real if mirror else u)[..., None], g, out=spectra[-1])
    route = _trotter_route(grid.points, grid.dims, np.diff(steps, prepend=0))
    if route == "loop":
        lattice = reduce(np.add.outer, [symbol] * grid.dims)[..., None]
        phases = [_phase(c, eta, plan.dt) for c in (lattice, -potential[..., None])]
        _trotter_loop(*phases, s, steps, spectra)
        traj.x_transforms = 2 * steps[-1]
    else:
        _trotter_blocks(symbol, potential, eta, plan.dt, s, steps, spectra, route == "powers")
        traj.x_transforms = 2
    for k, modes in zip(steps, spectra):
        traj.add(snapshots[k], WarpedState(modes=modes.reshape(-1, kept), pgrid=pgrid, grid=grid))
    traj.p_transforms = 1
    return traj


def evolve_ordinate_split(
    transport: np.ndarray,
    collision: np.ndarray,
    weights: np.ndarray,
    w0: ProductState,
    plan: EvolutionPlan,
) -> Trajectory:
    """First-order split step of transport plus collision over discrete
    ordinates from ``w0``, a ``warp.ProductState`` f0 (x) g(p) over
    (ordinate, x, p) in the physical frame, read once as its samples: the
    phase exp(i dt transport), ``transport`` over (ordinate, x modes), then
    the rotation exp(-i dt eta collision) over the ordinates per p mode eta,
    ``collision`` Hermitian and local in x.

    The state is conjugated by the square-root-weight similarity, which
    symmetrises the collision.  Collision commutes with the x transform, so
    in the (x mode (x) p mode) frame a step is one unitary n_ord x n_ord
    block per (x mode, p mode), and each snapshot gap is one power of the
    blocks by binary powering: about 2 log2(gap) block products, not one
    step per dt, for a chunk of p modes at a time.  A squaring doubles the
    error of its factor, so rounding still grows with the step count, as in
    a step-by-step march, and unitary blocks keep the powers bounded.  A
    snapshot is transformed back over the x axes only and kept as its p
    modes (``warp.WarpedState``).
    """
    n_ord, dims, points = len(weights), transport.ndim - 1, w0.pgrid.points
    shape = transport.shape + (points,)
    root = np.sqrt(weights).reshape((-1,) + (1,) * (dims + 1))
    x_axes = tuple(range(1, dims + 1))

    phase_transport = np.exp(1j * transport[..., None] * plan.dt)
    # collision per p mode k: Q diag(exp(-i eta_k lam dt)) Q^H over the
    # ordinates, shaped (n_ord, n_ord, 1..., P) to broadcast over x modes
    lam_c, q_c = np.linalg.eigh(collision)
    phase_collision = np.exp(-1j * np.outer(lam_c, w0.pgrid.mu()) * plan.dt)
    coll = np.einsum("ia,ak,ja->ijk", q_c, phase_collision, q_c.conj())
    coll = coll.reshape((n_ord, n_ord) + (1,) * dims + (points,))

    # the state as n_ord x 1 blocks; transport, then collision as one
    # n_ord x n_ord block per (x mode, p mode), for a chunk of p modes at a time
    state = to_modes(np.asarray(w0.values, dtype=complex).reshape(shape) * root, axis=x_axes + (-1,))
    state = state[:, None]
    width = max(1, _CHUNK_BYTES // (16 * n_ord**2 * math.prod(transport.shape[1:])))
    snapshots, done, traj = _snapshot_steps(plan), 0, Trajectory()
    for k, times in snapshots.items():
        for lo in range(0, points, width):
            chunk = np.s_[..., lo : lo + width]
            step = coll[chunk] * phase_transport[None]
            state[chunk] = _apply_power(step, k - done, state[chunk], _block_product)
        done = k
        modes = from_modes(state[:, 0], axis=x_axes)
        modes /= root
        traj.add(times, WarpedState(modes=modes.reshape(-1, points), pgrid=w0.pgrid))
    # the one transform in covers the x axes and p together
    traj.x_transforms, traj.p_transforms = 1 + len(snapshots), 1
    return traj


@dataclass(frozen=True)
class FDTransport:
    """Upwind march data for d/dt w + A d/dp w = 0.  The march runs on the
    p-grid of its initial state; ``pgrid`` serves ``admissible_dt`` only.

    A must be Hermitian with non-positive eigenvalues (waves move left, so
    the stencil looks right).  The one-step matrix is block circulant: row j
    updates w_j <- (I + A1) w_j - A1 w_{j+1 (mod N)} with A1 = (dt/dp) A;
    the closure row wraps the last node onto the first.  The one eigh of A,
    q diag(lam) q^H (read-only), serves every check, ``rho`` and the march.
    """

    a_mat: np.ndarray
    pgrid: PGrid
    lam: np.ndarray = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a_mat)  # a copy: freezing it leaves the caller's array writable
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transport matrix must be square")
        if np.abs(a - a.conj().T).max() > 1e-13 * max(1.0, np.abs(a).max()):
            raise ValueError("transport matrix must be Hermitian")
        lam, q = np.linalg.eigh(a)
        for name, value in (("a_mat", a), ("lam", lam), ("q", q)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if lam[-1] > 1e-9 * max(1.0, self.rho()):
            raise ValueError(
                "transport matrix has positive eigenvalues; upwind direction invalid"
            )

    def rho(self) -> float:
        """Spectral radius of A, exact from its eigenvalues."""
        return float(max(-self.lam[0], self.lam[-1]))

    def admissible_dt(self) -> float:
        """dp / rho(A), the largest stable step; any step is stable for A = 0."""
        return self.pgrid.dp / self.rho() if self.rho() else math.inf


def evolve_upwind_fd(fd: FDTransport, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
    """The upwind march, first order in both dt and dp, in closed form, from
    ``w0``, a ``warp.ProductState`` on the register of A (x) its p-grid.

    With A = q diag(lam) q^H, ``fd``'s one decomposition, the pair (A-mode
    i, p-frequency k) is multiplied by g_ik = 1 + (1 - exp(2 pi i k / N))
    (dt/dp) lam_i per step, so the march is ``evolve_mode_frame`` on the
    basis q, with the transport row g_i**s of step s shared by the modes of
    one lam_i.  Eigenvalues equal to 1e-12 of the largest |lam_i| are one
    lam_i, the smallest of them: the double eigenvalues of a periodic
    Laplacian, which eigh returns apart in the last bits, share a row.
    """
    rho, dp, npts = fd.rho(), w0.pgrid.dp, w0.pgrid.points
    if plan.dt * rho > dp * (1 + 1e-12):
        raise CFLError(plan.dt, dp / rho)
    lam = (plan.dt / dp) * fd.lam
    # ascending, so each group starts where the gap exceeds the tolerance
    starts = np.diff(lam, prepend=-np.inf) > 1e-12 * np.abs(lam).max(initial=0.0)
    lam = lam[starts][np.cumsum(starts) - 1]
    shift = 1 - np.exp(2j * np.pi * np.arange(npts) / npts)

    def gains(speeds, pgrid, t):
        return np.ones((speeds.size, 1)), (1 + speeds[:, None] * shift) ** round(t / plan.dt)

    return evolve_mode_frame(0.0, lam, w0, plan.snapshot_times, basis=fd.q, rows=gains)


# A basis is shared by H1 and H2 when both are diagonal in it to this
# fraction of their Frobenius norms: a few hundred times the rounding of one
# eigh at n = 128, so rounding passes and any real mixing does not.
_SHARED_BASIS_TOL = 1e-12
# Weight of H2 (after scaling both to unit norm) in the combination whose
# eigenvectors are tried as the shared basis; any irrational value makes an
# accidental degeneracy unlikely, and the residual check catches one anyway.
_MIX = 0.6180339887498949


def _shared_eigenbasis(h1, h2):
    """(l1, l2, q) with q^H H1 q = diag(l1) and q^H H2 q = diag(l2), or None.

    A scalar part c stands for c*I, diagonal in every basis, so one eigh of
    the other part gives q and its eigenvalues, with no commutator and no
    residual, and the scalar's are c repeated.  For two matrices, diagonal
    residuals at _SHARED_BASIS_TOL bound the commutator by about
    4 * _SHARED_BASIS_TOL * |H1| |H2|, so a commutator above twice that rules
    the basis out with two n x n products and no eigh.  Otherwise one eigh of
    H1/|H1| + _MIX * H2/|H2| supplies the candidate, kept only if both
    residuals pass.
    """
    if np.ndim(h1) == 0:
        l2, q = np.linalg.eigh(h2)
        return np.full(l2.size, float(h1)), l2, q
    if np.ndim(h2) == 0:
        l1, q = np.linalg.eigh(h1)
        return l1, np.full(l1.size, float(h2)), q
    n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
    if np.linalg.norm(h1 @ h2 - h2 @ h1) > 8 * _SHARED_BASIS_TOL * n1 * n2:
        return None
    _, q = np.linalg.eigh(h1 / (n1 or 1.0) + _MIX * h2 / (n2 or 1.0))
    diagonals = []
    for h, scale in ((h1, n1), (h2, n2)):
        d = q.conj().T @ h @ q
        diag = np.diagonal(d)
        if np.linalg.norm(d - np.diag(diag)) > _SHARED_BASIS_TOL * scale:
            return None
        diagonals.append(diag.real)
    return diagonals[0], diagonals[1], q


def _block_eigenbases(h1: np.ndarray, h2: np.ndarray, eta: np.ndarray):
    """Yield (part, lam, q): a slice of the blocks and, for each block k in
    it, q_k diag(lam_k) q_k^H = -eta_k*H1 + H2, in chunks of _CHUNK_BYTES
    built in one buffer; eigh factors each matrix on its own, so chunks
    return the bits of one call on the whole stack."""
    n, dtype = h1.shape[0], np.result_type(eta, h1, h2)
    chunk = max(1, _CHUNK_BYTES // (n * n * dtype.itemsize))
    buf = np.empty((min(chunk, eta.size), n, n), dtype=dtype)
    for start in range(0, eta.size, chunk):
        part = slice(start, start + chunk)
        stack = np.multiply(-eta[part, None, None], h1, out=buf[: eta[part].size])
        stack += h2
        yield (part, *np.linalg.eigh(stack))


def evolve_mode_blocks(h1, h2, w0, times: Sequence[float]) -> Trajectory:
    """Exact evolution of d/dt w = i(-(H1 (x) P_mu) + (H2 (x) I)) w.

    In the p-frequency frame the generator is block diagonal: frequency eta
    evolves by exp(i(-eta*H1 + H2)t).  When H1 and H2 commute, every block
    is diagonal in one shared eigenbasis q (``_shared_eigenbasis``), with
    H1 = q diag(l1) q^H and H2 = q diag(l2) q^H: mode i turns at rate l2_i
    and travels along p at speed -l1_i, so ``evolve_mode_frame`` serves
    every time from the factors of ``w0``, a ``warp.ProductState``, and
    the snapshots are ``warp.ModeFrameState``s.  Otherwise the blocks are
    built, decomposed and propagated a chunk at a time, and the snapshots
    are ``warp.WarpedState``s of their p modes on the p-grid and lattice of
    ``w0``, which may then be any ``warp`` state.  A scalar H1 or H2 (not
    both) stands for that multiple of the identity and shares the eigenbasis
    of the other part, one eigh of it; a scalar H1 = c sends every mode at
    speed -c, on one transport row.
    """
    h1 = np.asarray(h1)
    times = [float(t) for t in times]
    shared = _shared_eigenbasis(h1, h2)
    if shared is not None:
        l1, l2, q = shared
        return evolve_mode_frame(1j * l2, -l1, w0, times, basis=q)
    n = h1.shape[0]  # a scalar part always shares a basis, so both are matrices here
    pgrid, npts = w0.pgrid, w0.pgrid.points
    # (npts, n), one block per p frequency
    wt = to_modes(np.asarray(w0.values, dtype=complex).reshape(n, npts), axis=1).T
    # one (n, npts) slice per time, the p modes of its snapshot
    vt = np.empty((len(times), n, npts), dtype=complex)
    for part, lam, q in _block_eigenbases(h1, h2, pgrid.mu()):
        # y_k = q_k^H wt_k, without a conjugate copy of q
        y = (wt[part].conj()[:, None, :] @ q)[:, 0, :].conj()
        for i, t in enumerate(times):
            vt[i, :, part] = (q @ (np.exp(1j * lam * t) * y)[:, :, None])[:, :, 0].T
        del lam, q  # freed before the next chunk's eigh
    states = [WarpedState(modes=v, pgrid=pgrid, grid=w0.grid) for v in vt]
    return Trajectory(times, states, p_transforms=1)
