"""Time evolution engines.

Four routes are provided:

* exact diagonal phase evolution for generators that are diagonal in the
  mode frame of a basis (error-free in time): ``evolve_mode_frame`` takes a
  factored ``warp.ModeFrameState`` (register amplitudes, the p transform of
  the profile and a table of transport rows) and returns one per time,
  with the amplitudes multiplied by exp(t rate) and one transport row per
  distinct speed, built from two short tables; nothing of size M^d x P is
  formed.  The heat, Black-Scholes and convection models run it on the x
  Fourier basis, and the exact references transform their M^d-sized x
  state in and out around the same rates;
* first-order splitting that alternates two diagonal phases, conjugating by
  the spatial transform (native order) twice per step and by the p
  transform once on entry and once per snapshot;
* the upwind finite-difference march for the p-transport form with a
  Hermitian transport matrix A, computed in closed form: its one-step matrix
  is block circulant in p, so one eigh of A and one p-FFT turn every step
  into a scalar factor per (A-mode, p-frequency) pair;
* a dense matrix-exponential oracle for (anti-)Hermitian generators, for
  cross-checks on small systems.

Per-mode block evolution (`evolve_mode_blocks`) handles the generic
ODE-derived Hamiltonians, which are block-diagonal over p frequencies: when
H1 and H2 share an eigenbasis it is ``evolve_mode_frame`` on that dense
basis, and otherwise one eigh per block, returning samples.

The stepped engines label each snapshot with its requested time, which the
plan has checked lies on a step; ``march`` is the one step-and-snapshot loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .grids import Grid, PGrid, from_modes, to_modes

__all__ = [
    "EvolutionPlan",
    "Trajectory",
    "FDTransport",
    "CFLError",
    "evolve_mode_frame",
    "evolve_trotter",
    "march",
    "evolve_upwind_fd",
    "dense_expm_oracle",
    "evolve_mode_blocks",
]

ENGINES = ("exact_diagonal", "trotter", "upwind_fd", "dense_expm")


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
    """Snapshots of the evolution: flat sample arrays, except on the
    factored routes (the exact spectral route and the shared-eigenbasis
    branch of ``evolve_mode_blocks``), whose snapshots are
    ``warp.ModeFrameState``.

    ``x_transforms`` and ``p_transforms`` count the FFT calls over the x
    axes and over p that an engine makes while evolving, whatever the size
    of the array (readouts of the snapshots excluded); one call over the x
    axes and p together counts once in each.  A product with a dense basis
    is not a transform: the factored dense-basis route counts 0 and 1 (it
    enters the eigenbasis by q^H u0 and transforms only the p profile), and
    the upwind march counts only its p transforms.  The dense oracle makes
    none.
    """

    times: list[float] = field(default_factory=list)
    states: list = field(default_factory=list)
    x_transforms: int = 0
    p_transforms: int = 0

    def add(self, times: float | Sequence[float], state: np.ndarray) -> None:
        """Record ``state`` once for each time in ``times``."""
        for t in np.atleast_1d(times):
            self.times.append(float(t))
            self.states.append(state)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _fftn(values: np.ndarray, axes: tuple, out=None) -> np.ndarray:
    """Forward-normalised FFT over ``axes`` in native order; numpy loads
    ``numpy.fft`` on first use, so importing the package does not."""
    return np.fft.fftn(values, axes=axes, norm="forward", out=out)


def _ifftn(coeffs: np.ndarray, axes: tuple, out=None) -> np.ndarray:
    """Inverse of ``_fftn``."""
    return np.fft.ifftn(coeffs, axes=axes, norm="forward", out=out)


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


def evolve_mode_frame(w0, times: Sequence[float], rate, speed, power: int = 1) -> list:
    """Exact evolution of a generator diagonal in the mode frame of
    ``w0``, a ``warp.ModeFrameState`` without transport yet (what
    ``ProductState.mode_frame`` returns).

    ``rate`` and ``speed`` are given per register mode of ``w0``, flat in
    its order (native FFT order on the x basis), and the diagonal over
    (register mode i, p mode k) is rate_i + i speed_i eta_k**power: mode i
    grows or turns at rate_i, so its amplitude is multiplied by
    exp(t rate_i), while it is carried along p at its own speed.  The
    modes of one speed share one row of the transport table
    (``_transport_phase``), built once per time.  Returns one
    ``ModeFrameState`` per time; nothing is transformed.
    """
    speeds, rows = np.unique(np.asarray(speed, dtype=float).reshape(-1), return_inverse=True)
    rate = np.asarray(rate, dtype=complex)
    out = []
    for t in times:
        coarse, fine = _transport_phase(speeds, w0.pgrid, t, power)
        amplitudes = w0.amplitudes * np.exp(t * rate)
        out.append(
            replace(w0, amplitudes=amplitudes, coarse=coarse, fine=fine, rows=rows, t=float(t))
        )
    return out


def _snapshot_steps(plan: EvolutionPlan) -> dict[int, list[float]]:
    """The requested times on each step index, in step order (the plan has
    checked they are on-step); a time requested twice is listed twice."""
    steps: dict[int, list[float]] = {}
    for t in plan.snapshot_times:
        steps.setdefault(int(round(t / plan.dt)), []).append(t)
    return steps


def march(plan: EvolutionPlan, state, step, emit) -> Trajectory:
    """Apply ``step`` ``plan.n_steps`` times, recording ``emit(state)`` at
    every snapshot step (step 0 is the initial state)."""
    snapshots = _snapshot_steps(plan)
    traj = Trajectory()
    for k in range(plan.n_steps + 1):
        state = step(state) if k else state
        if k in snapshots:
            traj.add(snapshots[k], emit(state))
    return traj


def evolve_trotter(
    freq_diag: np.ndarray,
    pos_diag: np.ndarray,
    grid: Grid,
    pgrid: PGrid,
    plan: EvolutionPlan,
    w0: np.ndarray,
) -> Trajectory:
    """First-order split step between two diagonal frames.

    ``freq_diag`` are the real phase rates in the fully transformed frame
    (x modes (x) p modes) and ``pos_diag`` the rates in the half frame
    (x samples (x) p modes); each step applies the spatial transform,
    exp(i*freq_diag*dt), the inverse transform and exp(i*pos_diag*dt).  The
    p axis is transformed once on entry and once per snapshot.
    """
    shape = grid.shape + (pgrid.points,)
    x_axes = tuple(range(grid.dims))
    # the x transform runs in native order: Phi D Phi^-1 = F ifftshift(D) F^-1
    phase_freq = np.fft.ifftshift(
        np.exp(1j * np.asarray(freq_diag, dtype=float).reshape(shape) * plan.dt), axes=x_axes
    )
    phase_pos = np.exp(1j * np.asarray(pos_diag, dtype=float).reshape(shape) * plan.dt)

    def step(s: np.ndarray) -> np.ndarray:
        _fftn(s, x_axes, out=s)
        s *= phase_freq
        _ifftn(s, x_axes, out=s)
        s *= phase_pos
        return s

    traj = march(
        plan,
        to_modes(np.asarray(w0, dtype=complex).reshape(shape), axis=-1),
        step,
        lambda s: from_modes(s, axis=-1).reshape(-1),
    )
    traj.x_transforms = 2 * plan.n_steps
    traj.p_transforms = 1 + len(_snapshot_steps(plan))
    return traj


@dataclass(frozen=True)
class FDTransport:
    """Upwind march data for d/dt w + A d/dp w = 0.

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


def evolve_upwind_fd(fd: FDTransport, plan: EvolutionPlan, w0: np.ndarray) -> Trajectory:
    """The upwind march, first order in both dt and dp, in closed form.

    With A1 = (dt/dp) A = q diag(lam) q^H, the pair (A-mode i, p-frequency k)
    is multiplied by g_ik = 1 + (1 - exp(2 pi i k / N)) lam_i per step, so
    step s of the march is q ifft(g**s * fft(q^H W)) over p, taken only at
    the snapshot steps.
    """
    rho = fd.rho()
    if plan.dt * rho > fd.pgrid.dp * (1 + 1e-12):
        raise CFLError(plan.dt, fd.pgrid.dp / rho)
    n = fd.a_mat.shape[0]
    npts = fd.pgrid.points
    lam, q = np.linalg.eigh((plan.dt / fd.pgrid.dp) * fd.a_mat)
    coef = np.fft.fft(q.conj().T @ np.asarray(w0, dtype=complex).reshape(n, npts), axis=1)
    gain = 1 + lam[:, None] * (1 - np.exp(2j * np.pi * np.arange(npts) / npts))
    traj = Trajectory()
    steps = _snapshot_steps(plan)
    for step, times in steps.items():
        traj.add(times, (q @ np.fft.ifft(gain**step * coef, axis=1)).reshape(-1))
    traj.p_transforms = 1 + len(steps)
    return traj


def dense_expm_oracle(mat: np.ndarray, v: np.ndarray, t: float, max_dim: int = 4096) -> np.ndarray:
    """Reference propagation exp(mat * t) @ v for small systems.

    Only Hermitian and anti-Hermitian generators are accepted, both through
    an eigendecomposition; any other matrix raises ValueError.
    """
    mat = np.asarray(mat)
    v = np.asarray(v, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != v.shape[0]:
        raise ValueError("matrix/vector shapes do not match")
    if mat.shape[0] > max_dim:
        raise ValueError(f"dimension {mat.shape[0]} exceeds the oracle guard {max_dim}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() <= 1e-13 * scale:
        lam, q = np.linalg.eigh(mat)
        return q @ (np.exp(lam * t) * (q.conj().T @ v))
    if np.abs(mat + mat.conj().T).max() <= 1e-13 * scale:
        lam, q = np.linalg.eigh(-1j * mat)  # mat = i * Hermitian
        return q @ (np.exp(1j * lam * t) * (q.conj().T @ v))
    raise ValueError("the dense oracle needs a Hermitian or anti-Hermitian generator")


# A basis is shared by H1 and H2 when both are diagonal in it to this
# fraction of their Frobenius norms: a few hundred times the rounding of one
# eigh at n = 128, so rounding passes and any real mixing does not.
_SHARED_BASIS_TOL = 1e-12
# Weight of H2 (after scaling both to unit norm) in the combination whose
# eigenvectors are tried as the shared basis; any irrational value makes an
# accidental degeneracy unlikely, and the residual check catches one anyway.
_MIX = 0.6180339887498949
# Bytes of the block stack built, decomposed and propagated at once on the
# per-block path: 32 blocks at n = 128 (complex), so neither the whole stack
# nor all its eigenvectors are ever held, while small blocks, where the fixed
# cost of an eigh call counts, still go in one call.  eigh factors each
# matrix of a batch on its own, so the chunks return the same bits as one call.
_EIGH_CHUNK_BYTES = 8 << 20


def _shared_eigenbasis(h1: np.ndarray, h2: np.ndarray):
    """(l1, l2, q) with q^H H1 q = diag(l1) and q^H H2 q = diag(l2), or None.

    Diagonal residuals at _SHARED_BASIS_TOL bound the commutator by about
    4 * _SHARED_BASIS_TOL * |H1| |H2|, so a commutator above twice that rules
    the basis out with two n x n products and no eigh.  Otherwise one eigh of
    H1/|H1| + _MIX * H2/|H2| supplies the candidate, kept only if both
    residuals pass.
    """
    n1 = np.linalg.norm(h1)
    n2 = np.linalg.norm(h2)
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
    it, q_k diag(lam_k) q_k^H = -eta_k*H1 + H2, in chunks of at most
    _EIGH_CHUNK_BYTES."""
    n = h1.shape[0]
    chunk = max(1, _EIGH_CHUNK_BYTES // (n * n * np.result_type(eta, h1, h2).itemsize))
    for start in range(0, eta.size, chunk):
        part = slice(start, start + chunk)
        lam, q = np.linalg.eigh(-eta[part, None, None] * h1 + h2)
        yield part, lam, q


def evolve_mode_blocks(
    h1: np.ndarray,
    h2: np.ndarray,
    pgrid: PGrid,
    w0,
    times: Sequence[float],
) -> Trajectory:
    """Exact evolution of d/dt w = i(-(H1 (x) P_mu) + (H2 (x) I)) w.

    In the p-frequency frame the generator is block diagonal: frequency eta
    evolves by exp(i(-eta*H1 + H2)t).  When H1 and H2 commute, every block
    is diagonal in one shared eigenbasis q (``_shared_eigenbasis``), with
    H1 = q diag(l1) q^H and H2 = q diag(l2) q^H: mode i turns at rate l2_i
    and travels along p at speed -l1_i, so ``evolve_mode_frame`` serves
    every time from the factors of ``w0``, a ``warp.ProductState``, and
    the snapshots are ``warp.ModeFrameState``s.  Otherwise the blocks are
    built, decomposed and propagated a chunk at a time, and the snapshots
    are flat samples; ``w0`` may then also be flat samples.
    """
    h1 = np.asarray(h1)
    h2 = np.asarray(h2)
    times = [float(t) for t in times]
    shared = _shared_eigenbasis(h1, h2)
    if shared is not None:
        if not hasattr(w0, "mode_frame"):
            raise TypeError("a shared eigenbasis needs the initial state as a warp.ProductState")
        l1, l2, q = shared
        traj = Trajectory(times, evolve_mode_frame(w0.mode_frame(q), times, 1j * l2, -l1))
        traj.p_transforms = 1
        return traj
    n = h1.shape[0]
    npts = pgrid.points
    w = np.asarray(getattr(w0, "values", w0), dtype=complex).reshape(n, npts)
    wt = to_modes(w, axis=1).T  # (npts, n), one block per p frequency
    vt = np.empty((len(times), npts, n), dtype=complex)
    for part, lam, q in _block_eigenbases(h1, h2, pgrid.mu()):
        # y_k = q_k^H wt_k, without a conjugate copy of q
        y = (wt[part].conj()[:, None, :] @ q)[:, 0, :].conj()
        for i, t in enumerate(times):
            vt[i, part] = (q @ (np.exp(1j * lam * t) * y)[:, :, None])[:, :, 0]
    traj = Trajectory(times, [from_modes(v.T, axis=1).reshape(-1) for v in vt])
    traj.p_transforms = 1 + len(times)
    return traj
