"""Unitary dilation of contraction semigroups with deferred post-selection.

The propagator exp((H1 + i H2) t) is approximated by first-order products of
a contraction exp(H1 dt) and a phase exp(i H2 dt).  Each contraction K embeds
as the top-left block of the unitary

    U~ = [[K, sqrt(I - K^2)], [sqrt(I - K^2), -K]]
       = (sigma_z (x) I) exp(i sigma_y (x) arccos(K)),

well defined whenever ||K|| <= 1.  Chaining steps on a ladder of fresh
ancilla slots lets all steps run unitarily with a single post-selection at
the end; the success probability compounds to ||final_top||^2/||psi0||^2.

``ladder_evolve`` runs the ladder as one matrix power; ``ladder_state`` runs
it slot by slot, keeping every slot: the register it is checked against.
Only the register reads the off-diagonal block sqrt(I - K^2), so a step
builds it from K's eigenpairs when it is first read, not with K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DilationStep",
    "DilationLadder",
    "build_dilation_step",
    "ladder_evolve",
    "arccos_hermitian",
]


def _hermitian(mat, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    adjoint = mat.conj().T
    if np.abs(mat - adjoint).max() > 1e-10 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"{name} must be Hermitian")
    return (mat + adjoint) / 2.0


def _from_eigenpairs(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The Hermitian matrix q diag(values) q^H."""
    return (q * values) @ q.conj().T


def arccos_hermitian(h: np.ndarray) -> np.ndarray:
    """arccos of a Hermitian matrix with spectrum in [-1, 1]."""
    lam, q = np.linalg.eigh(_hermitian(h, "argument"))
    if lam.min() < -1.0 - 1e-9 or lam.max() > 1.0 + 1e-9:
        raise ValueError("spectrum outside [-1, 1]; arccos undefined")
    return _from_eigenpairs(q, np.arccos(np.clip(lam, -1.0, 1.0)))


@dataclass(frozen=True)
class DilationStep:
    """One dilated time step: contraction block K = ``hdt`` and ``phase``,
    with K's eigenpairs (``q1``, ``k``), K = q1 diag(k) q1^H, from which
    ``off`` = sqrt(I - K^2) is built on first read: only the register of
    ``ladder_state`` reads it, and ``ladder_evolve`` never does."""

    hdt: np.ndarray
    phase: np.ndarray
    q1: np.ndarray
    k: np.ndarray

    @cached_property
    def off(self) -> np.ndarray:
        return _from_eigenpairs(self.q1, np.sqrt(1.0 - self.k * self.k))

    @property
    def dim(self) -> int:
        return self.hdt.shape[0]


def build_dilation_step(h1, h2, dt: float) -> DilationStep:
    """Build the dilated step for one dt > 0.

    Dilates the propagator K = exp(H1 dt), which needs H1 negative
    semi-definite so that ||K|| <= 1.  K and sqrt(I - K^2) are functions of
    H1, so they share one eigh of H1, whose eigenpairs the step keeps for
    the off block it builds on demand; the phase takes one eigh of H2.
    With the spectrum clamped to <= 0 and dt > 0, every k = exp(lam dt) is
    at most 1, so 1 - k^2 >= 0 in floating point as well.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    h1 = _hermitian(h1, "h1")
    h2 = _hermitian(h2, "h2")
    lam1, q1 = np.linalg.eigh(h1)
    if lam1.max() > 1e-10:
        raise ValueError(
            "H1 must be negative semi-definite for the exact-exponential "
            f"dilation (max eigenvalue {lam1.max():g})"
        )
    k = np.exp(np.minimum(lam1, 0.0) * dt)
    lam2, q2 = np.linalg.eigh(h2)
    return DilationStep(
        hdt=_from_eigenpairs(q1, k),
        phase=_from_eigenpairs(q2, np.exp(1j * lam2 * dt)),
        q1=q1,
        k=k,
    )


@dataclass
class DilationLadder:
    """Ladder register: slot 0 is live, slots 1..n_steps hold burned failures.

    Each step's unitary touches only slot 0 and one fresh slot, so the
    reachable subspace has (n_steps + 1) * n amplitudes even though the full
    ancilla space would be exponentially larger.
    """

    n_steps: int
    dim: int
    state: np.ndarray
    success_log: list[float] = field(default_factory=list)


def ladder_evolve(h1, h2, dt: float, n_steps: int, psi0: np.ndarray) -> tuple[np.ndarray, float]:
    """Run the dilation ladder and post-select once at the end.

    After step j, slot 0 holds (K exp(i H2 dt))^j psi0 with K the
    contraction block, so the final success probability equals the product
    of the per-step probabilities: ||final_top||^2 / ||psi0||^2.  Only slot
    0 is returned, so it is computed as one matrix power rather than by
    running the register (``ladder_state`` keeps every slot).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    step = build_dilation_step(h1, h2, dt)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    norm0 = float(np.linalg.norm(psi0)) ** 2
    if norm0 == 0.0:
        raise ValueError("psi0 must be nonzero")
    final_top = np.linalg.matrix_power(step.hdt @ step.phase, n_steps) @ psi0
    prob = float(np.linalg.norm(final_top)) ** 2 / norm0
    return final_top, prob


def ladder_state(step: DilationStep, n_steps: int, psi0: np.ndarray) -> DilationLadder:
    """Full ladder run keeping every burned slot and the per-step log."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    n = step.dim
    state = np.zeros((n_steps + 1) * n, dtype=complex)
    state[:n] = psi0
    ladder = DilationLadder(n_steps=n_steps, dim=n, state=state)
    for j in range(1, n_steps + 1):
        live = ladder.state[:n]
        rotated = step.phase @ live
        top = step.hdt @ rotated
        bottom = step.off @ rotated
        ladder.state[:n] = top
        ladder.state[j * n:(j + 1) * n] = bottom
        denom = float(np.linalg.norm(rotated)) ** 2
        ladder.success_log.append(
            float(np.linalg.norm(top)) ** 2 / denom if denom > 0 else 0.0
        )
    return ladder
