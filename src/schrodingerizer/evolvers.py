"""Time evolution engines.

Every engine takes its operator data, then ``w0``, the initial ``warp``
state, whose lattice and p-grid are the run's, then the ``EvolutionPlan``
or the snapshot times, the run's only times.  It returns a ``Trajectory``
of ``warp`` states, one per snapshot time: ``ModeFrameState``s on the
factored routes and ``WarpedState``s of samples on the others.  The routes
are:

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
* first-order splitting that alternates two diagonal phases, conjugating by
  the spatial transform (native order) twice per step; its real operators
  keep the p spectrum conjugate-symmetric, so only the p modes eta <= 0 are
  evolved, entered from the p transform of the profile and mirrored back
  to all P modes once per snapshot.  Per p mode the step is one M^d x M^d
  matrix, so on small grids with long gaps between snapshots each gap is
  one power of it by repeated squaring, and otherwise the loop steps;
* the split step over discrete ordinates of the linear Boltzmann model
  (``evolve_ordinate_split``): one n_ord x n_ord step block per (x mode,
  p mode), raised to each snapshot gap by repeated squaring;
* the upwind finite-difference march for the p-transport form with a
  Hermitian transport matrix A, computed in closed form: its one-step matrix
  is block circulant in p, so after one eigh of A every step is a scalar
  factor per (A-mode, p-frequency) pair, a transport row of the mode frame;
* the p-frequency blocks of a generic split whose H1 and H2 share no
  eigenbasis (``evolve_mode_blocks``): one eigh per block.

One budget, ``_CHUNK_BYTES``, bounds the chunks of the block powers, the
Boltzmann march and the eigh stack, below the C allocator's mmap threshold.

The stepped engines take each snapshot at its requested time, which the
plan has checked lies on a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
        if self.engine in ("trotter", "upwind_fd"):
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
    """Snapshots of the evolution, one state per time in ``times``, the
    only time label: a ``warp`` state
    (``ModeFrameState`` on the routes of ``evolve_mode_frame``: the exact
    spectral route, the shared-eigenbasis branch of ``evolve_mode_blocks``
    and the upwind march; else ``WarpedState``), or u itself for the
    unwarped direct convection model.

    ``x_transforms`` and ``p_transforms`` count the FFT calls over the x
    axes and over p that an engine makes while evolving, whatever the size
    of the array (readouts of the snapshots excluded); one call over the x
    axes and p together counts once in each.  ``evolve_mode_frame`` counts
    1 and 1 on the x basis, and 0 and 1 on a dense one (the shared-basis
    route and the upwind march), where it enters the basis by q^H u0, a
    product, not a transform, and transforms only the p profile.  The split
    step's entry transform is that of the P-sized profile only; over x its
    step loop counts two per step up to the last snapshot, and its power
    route two in all (the identity's, from which it builds the step
    blocks).
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

    @property
    def final(self):
        return self.states[-1]


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
# mode, taken only while one fits), the Boltzmann march (n_ord^2 per x and p
# mode, at least one p mode a chunk) and the per-block eigh stack (16 blocks
# a call at n = 32, one at n >= 128).  The C allocator raises its mmap
# threshold to the largest mapped block it frees, so a freed 2 MB stack would
# move later 1 MiB arrays from fresh pages to the heap, changing their speed
# and the peak RSS.  Small chunks cost no time: a four-ordinate 32^2 x 256
# Boltzmann march evolves in 372 ms against 474 ms with 8 MiB chunks.
_CHUNK_BYTES = 256 << 10


def _trotter_by_powers(n: int, gaps: Sequence[int]) -> bool:
    """Whether block powers beat the step loop for n x n split-step blocks
    and these snapshot gaps (in steps).

    Per p mode a step is two n-point x transforms, O(n log n) and mostly
    call overhead.  The powers build the step block (one n x n product),
    and per gap g square it floor(log2 g) times and apply a power to the
    state popcount(g) times; a product costs about n^2 / 64 steps and an
    application, one matrix-vector product per chunk of p modes, about
    two.  So powers win when
    n^2 (1 + sum floor(log2 g)) < 64 sum (g - 2 popcount(g)),
    which snapshots one step apart never meet, and only while one block
    fits the chunk budget (n <= 128).  The forced-route timings the rule
    was checked against, with the cases on its wrong side, are
    ``rule_timings_ms`` in ``BENCH_trotter_block_power.json``.
    """
    if 16 * n * n > _CHUNK_BYTES:
        return False
    gaps = [int(g) for g in gaps]
    products = 1 + sum(g.bit_length() - 1 for g in gaps if g)
    return n * n * products < 64 * sum(g - 2 * bin(g).count("1") for g in gaps)


def _trotter_powers(phase_freq, phase_pos, s0, steps, shape) -> np.ndarray:
    """The split step s0 -> S s0 of ``evolve_trotter`` taken to each step
    of ``steps`` (increasing) as block powers: S(eta) = diag(phase_pos)
    F^-1 diag(phase_freq) F per p mode eta, with the x transform F and its
    inverse from one transform each of the n-wide identity.

    s0 is (batch, *shape, H); returns (len(steps), batch, *shape, H).  The
    p modes go a chunk of _CHUNK_BYTES blocks at a time, each chunk
    through every gap, written into one preallocated output.
    """
    n, half = math.prod(shape), s0.shape[-1]
    eye = np.eye(n).reshape(shape + (n,))
    axes = tuple(range(len(shape)))
    fwd = _fftn(eye, axes).reshape(n, n)
    inv = _ifftn(eye, axes).reshape(n, n)
    freq = phase_freq.reshape(n, half).T[..., None]
    pos = phase_pos.reshape(n, half).T[..., None]
    state = s0.reshape(len(s0), n, half).T  # (H, n, batch)
    out = np.empty((len(steps), len(s0), n, half), dtype=complex)
    chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    for lo in range(0, half, chunk):
        part, done = np.s_[lo : lo + chunk], 0
        step, vec = inv @ (freq[part] * fwd), state[part]
        step *= pos[part]
        for i, k in enumerate(steps):
            vec = _apply_power(step, k - done, vec, np.matmul)
            out[i, ..., part], done = vec.T, k
    return out.reshape((len(steps), len(s0)) + shape + (half,))


def _trotter_loop(phase_freq, phase_pos, s, steps, x_axes):
    """Step ``s`` in place, one split step per dt, and yield it at each
    step of ``steps`` (increasing)."""
    done = 0
    for k in steps:
        for _ in range(k - done):
            _fftn(s, x_axes, out=s)
            s *= phase_freq
            _ifftn(s, x_axes, out=s)
            s *= phase_pos
        done = k
        yield s


def evolve_trotter(
    symbol: np.ndarray, potential: np.ndarray, w0: ProductState, plan: EvolutionPlan
) -> Trajectory:
    """First-order split step of d/dt w = i (symbol(D_x) - potential(x)) (x) P_mu
    from ``w0``, a ``warp.ProductState`` u0 (x) g(p) with a real profile g,
    on its lattice and p-grid: per p mode eta, the spatial transform (native
    order), exp(i dt eta symbol) over the x modes, the inverse and
    exp(-i dt eta potential).

    With a real symbol and potential both factors are real operators on
    functions of (x, p) (conjugation maps p mode eta to -eta), so real data
    keep w^(x, -eta) = conj w^(x, eta): only the p modes j = 0 ... P/2
    (eta_j <= 0) are stepped, entered from one transform of g, and the
    other P/2 - 1 are rebuilt as conjugates at the snapshot steps.  The
    Nyquist mode j = 0 has no partner: it is stepped and stays complex, so
    a snapshot is the full complex inverse p transform, in place, of the
    array the mirror is written into, not an irfft, which would force it
    real.  A complex u0 = a + i b is stepped as the batch [a, b] ([a] when
    b = 0) and read as W(a) + i W(b), each part transformed on its own so a
    snapshot holds one state.

    Two routes reach the snapshot steps, picked from the grid size n = M^d
    and the snapshot gaps alone (``_trotter_by_powers``): the step loop,
    two x transforms per step up to the last snapshot, and block powers
    (``_trotter_powers``), two x transforms in all and about 2 log2(gap)
    n x n block products per gap.  Both make one p transform of g and one
    per part of u0 per snapshot step.
    """
    grid, pgrid = w0.grid, w0.pgrid
    half = pgrid.points // 2
    eta = pgrid.mu()[: half + 1]
    x_axes = tuple(range(1, grid.dims + 1))
    # the x transform runs in native order: Phi D Phi^-1 = F ifftshift(D) F^-1
    symbol = np.fft.ifftshift(np.reshape(symbol, grid.shape))[..., None]
    # exp(1j * (c * eta) * dt) for c = symbol, -potential, in the tables themselves
    tables = np.empty((2,) + grid.shape + eta.shape, dtype=complex)
    np.multiply(np.stack([symbol, -np.reshape(potential, grid.shape)[..., None]]), eta, out=tables)
    np.multiply(1j, tables, out=tables)
    phase_freq, phase_pos = np.exp(np.multiply(tables, plan.dt, out=tables), out=tables)
    if np.any(np.imag(w0.profile)):
        raise ValueError("the split step needs a real p profile")
    u = w0.u.reshape(grid.shape)
    parts = np.stack([u.real, u.imag] if np.any(u.imag) else [u.real])
    profile = to_modes(np.real(w0.profile))[: half + 1]

    snapshots, traj = _snapshot_steps(plan), Trajectory()
    steps, s = list(snapshots), parts[..., None] * profile
    if _trotter_by_powers(grid.size, np.diff(steps, prepend=0)):
        halves = _trotter_powers(phase_freq, phase_pos, s, steps, grid.shape)
        traj.x_transforms = 2
    else:
        halves = _trotter_loop(phase_freq, phase_pos, s, steps, x_axes)
        traj.x_transforms = 2 * steps[-1]
    for k, h in zip(steps, halves):
        values = None
        for part in h:
            w = np.empty(part.shape[:-1] + (pgrid.points,), dtype=complex)
            w[..., : half + 1] = part
            np.conjugate(part[..., half - 1 : 0 : -1], out=w[..., half + 1 :])
            from_modes(w, axis=-1, out=w)
            if values is None:
                values = w
            else:  # W(a) + 1j W(b), in the array of W(a)
                values += np.multiply(w, 1j, out=w)
        traj.add(snapshots[k], WarpedState(values=values.reshape(-1), pgrid=pgrid, grid=grid))
    traj.p_transforms = 1 + len(parts) * len(snapshots)
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
    a step-by-step march, and unitary blocks keep the powers bounded.
    """
    n_ord, dims, points = len(weights), transport.ndim - 1, w0.pgrid.points
    shape = transport.shape + (points,)
    root = np.sqrt(weights).reshape((-1,) + (1,) * (dims + 1))
    mode_axes = tuple(range(1, dims + 1)) + (-1,)

    phase_transport = np.exp(1j * transport[..., None] * plan.dt)
    # collision per p mode k: Q diag(exp(-i eta_k lam dt)) Q^H over the
    # ordinates, shaped (n_ord, n_ord, 1..., P) to broadcast over x modes
    lam_c, q_c = np.linalg.eigh(collision)
    phase_collision = np.exp(-1j * np.outer(lam_c, w0.pgrid.mu()) * plan.dt)
    coll = np.einsum("ia,ak,ja->ijk", q_c, phase_collision, q_c.conj())
    coll = coll.reshape((n_ord, n_ord) + (1,) * dims + (points,))

    # the state as n_ord x 1 blocks; transport, then collision as one
    # n_ord x n_ord block per (x mode, p mode), for a chunk of p modes at a time
    state = to_modes(np.asarray(w0.values, dtype=complex).reshape(shape) * root, axis=mode_axes)
    state = state[:, None]
    width = max(1, _CHUNK_BYTES // (16 * n_ord**2 * math.prod(transport.shape[1:])))
    snapshots, done, traj = _snapshot_steps(plan), 0, Trajectory()
    for k, times in snapshots.items():
        for lo in range(0, points, width):
            chunk = np.s_[..., lo : lo + width]
            step = coll[chunk] * phase_transport[None]
            state[chunk] = _apply_power(step, k - done, state[chunk], _block_product)
        done = k
        values = (from_modes(state[:, 0], axis=mode_axes) / root).reshape(-1)
        traj.add(times, WarpedState(values=values, pgrid=w0.pgrid))
    # each transform covers the x axes and p together
    traj.x_transforms = traj.p_transforms = 1 + len(snapshots)
    return traj


@dataclass(frozen=True)
class FDTransport:
    """Upwind march data for d/dt w + A d/dp w = 0.  The march runs on the
    p-grid of its initial state; ``pgrid`` serves ``admissible_dt`` only.

    A must be Hermitian with non-positive eigenvalues (waves move left, so
    the stencil looks right).  The one-step matrix is block circulant: row j
    updates w_j <- (I + A1) w_j - A1 w_{j+1 (mod N)} with A1 = (dt/dp) A;
    the closure row wraps the last node onto the first.
    """

    a_mat: np.ndarray
    pgrid: PGrid

    def __post_init__(self):
        a = np.asarray(self.a_mat)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transport matrix must be square")
        object.__setattr__(self, "a_mat", a)
        a.setflags(write=False)
        if np.abs(a - a.conj().T).max() > 1e-13 * max(1.0, np.abs(a).max()):
            raise ValueError("transport matrix must be Hermitian")
        lam = np.linalg.eigvalsh(a)
        rho = float(np.abs(lam).max())
        if lam.max() > 1e-9 * max(1.0, rho):
            raise ValueError(
                "transport matrix has positive eigenvalues; upwind direction invalid"
            )
        object.__setattr__(self, "_rho", rho)

    def rho(self) -> float:
        """Spectral radius of A, exact from its eigenvalues."""
        return self._rho

    def admissible_dt(self) -> float:
        return self.pgrid.dp / self.rho()


def evolve_upwind_fd(fd: FDTransport, w0: ProductState, plan: EvolutionPlan) -> Trajectory:
    """The upwind march, first order in both dt and dp, in closed form, from
    ``w0``, a ``warp.ProductState`` on the register of A (x) its p-grid.

    With A1 = (dt/dp) A = q diag(lam) q^H, the pair (A-mode i, p-frequency k)
    is multiplied by g_ik = 1 + (1 - exp(2 pi i k / N)) lam_i per step, so
    the march is ``evolve_mode_frame`` on the basis q, with the transport
    row g_i**s of step s shared by the modes of one lam_i.  Eigenvalues
    equal to 1e-12 of the largest |lam_i| are one lam_i, the smallest of
    them: the double eigenvalues of a periodic Laplacian, which eigh
    returns apart in the last bits, share a row.
    """
    rho, dp, npts = fd.rho(), w0.pgrid.dp, w0.pgrid.points
    if plan.dt * rho > dp * (1 + 1e-12):
        raise CFLError(plan.dt, dp / rho)
    lam, q = np.linalg.eigh((plan.dt / dp) * fd.a_mat)
    # ascending, so each group starts where the gap exceeds the tolerance
    starts = np.diff(lam, prepend=-np.inf) > 1e-12 * np.abs(lam).max(initial=0.0)
    lam = lam[starts][np.cumsum(starts) - 1]
    shift = 1 - np.exp(2j * np.pi * np.arange(npts) / npts)

    def gains(speeds, pgrid, t):
        return np.ones((speeds.size, 1)), (1 + speeds[:, None] * shift) ** round(t / plan.dt)

    return evolve_mode_frame(0.0, lam, w0, plan.snapshot_times, basis=q, rows=gains)


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

    Diagonal residuals at _SHARED_BASIS_TOL bound the commutator by about
    4 * _SHARED_BASIS_TOL * |H1| |H2|, so a commutator above twice that rules
    the basis out with two n x n products and no eigh.  Otherwise one eigh of
    H1/|H1| + _MIX * H2/|H2| supplies the candidate, kept only if both
    residuals pass.  A scalar part c stands for c*I, diagonal in every
    basis: for a scalar H2, H1's eigenbasis serves, checked on H1 alone, and
    l2 = c; for a scalar H1, one eigh of H2 gives q and l2, with no
    commutator and no residual, and l1 = c.
    """
    if np.ndim(h1) == 0:
        l2, q = np.linalg.eigh(h2)
        return np.full(l2.size, float(h1)), l2, q
    n1 = np.linalg.norm(h1)
    scalar = np.ndim(h2) == 0
    if scalar:
        # + 0.0 keeps the bits of the combination with a zero matrix H2
        parts, combo = [(h1, n1)], h1 / (n1 or 1.0) + 0.0
    else:
        n2 = np.linalg.norm(h2)
        if np.linalg.norm(h1 @ h2 - h2 @ h1) > 8 * _SHARED_BASIS_TOL * n1 * n2:
            return None
        parts, combo = [(h1, n1), (h2, n2)], h1 / (n1 or 1.0) + _MIX * h2 / (n2 or 1.0)
    _, q = np.linalg.eigh(combo)
    diagonals = []
    for h, scale in parts:
        d = q.conj().T @ h @ q
        diag = np.diagonal(d)
        if np.linalg.norm(d - np.diag(diag)) > _SHARED_BASIS_TOL * scale:
            return None
        diagonals.append(diag.real)
    if scalar:
        diagonals.append(np.full(q.shape[0], float(h2)))
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
    are ``warp.WarpedState``s of samples on the p-grid and lattice of
    ``w0``, which may then be any ``warp`` state.  A scalar H1 or H2 (not
    both) stands for that multiple of the identity; a scalar H1 = c always
    shares the eigenbasis of H2, and every mode then travels at speed -c,
    on one transport row.
    """
    h1 = np.asarray(h1)
    times = [float(t) for t in times]
    shared = _shared_eigenbasis(h1, h2)
    if shared is not None:
        l1, l2, q = shared
        return evolve_mode_frame(1j * l2, -l1, w0, times, basis=q)
    n = np.shape(h2 if h1.ndim == 0 else h1)[0]
    h1, h2 = (h * np.eye(n) if np.ndim(h) == 0 else h for h in (h1, h2))
    pgrid, npts = w0.pgrid, w0.pgrid.points
    w = np.asarray(w0.values, dtype=complex).reshape(n, npts)
    wt = to_modes(w, axis=1).T  # (npts, n), one block per p frequency
    # one (n, npts) slice per time, transformed in place into its snapshot
    vt = np.empty((len(times), n, npts), dtype=complex)
    for part, lam, q in _block_eigenbases(h1, h2, pgrid.mu()):
        # y_k = q_k^H wt_k, without a conjugate copy of q
        y = (wt[part].conj()[:, None, :] @ q)[:, 0, :].conj()
        for i, t in enumerate(times):
            vt[i, :, part] = (q @ (np.exp(1j * lam * t) * y)[:, :, None])[:, :, 0].T
        del lam, q  # freed before the next chunk's eigh
    traj = Trajectory(times, [
        WarpedState(values=from_modes(v, axis=1, out=v).reshape(-1), pgrid=pgrid, grid=w0.grid)
        for v in vt
    ])
    traj.p_transforms = 1 + len(times)
    return traj
