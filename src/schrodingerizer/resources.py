"""Leading-order gate and query counts for the simulation routes.

These are comparators, not wall-clock predictions: big-O expressions are
evaluated with unit constants and base-2 logarithms, and suppressed
polylogarithmic factors are reported separately as a multiplicative term
log2^{3.5}(tau/eps) / log2 log2(tau/eps) with tau = s * ||H||_max * T.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CostQuery", "EstimateResult", "estimate", "schr_vs_unitary_ratio", "METHODS"]

METHODS = (
    "schr_heat",
    "schr_convection",
    "schr_general",
    "schr_special",
    "unitarisation",
    "unitarisation_special",
    "hamiltonian_query",
    "boltzmann",
    "black_scholes_schr",
    "black_scholes_unitary",
)


@dataclass(frozen=True)
class CostQuery:
    """Inputs for one cost formula; only the fields the method uses are read.

    ``m`` and ``m_p`` are qubit counts for one spatial register and the
    auxiliary register; the total register m_H = d*m + m_p is derived.
    ``s_arccos`` defaults to the dense count 2^(d*m), since the arccos of a
    sparse matrix is generally dense.
    """

    method: str
    d: int = 1
    m: int = 1
    m_p: int = 1
    t_final: Optional[float] = None
    dt: Optional[float] = None
    dx: Optional[float] = None
    dp: Optional[float] = None
    sparsity: Optional[int] = None
    max_norm: Optional[float] = None
    n_ord: Optional[int] = None
    epsilon: Optional[float] = None
    s_arccos: Optional[float] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        # json reads true, 1.5, NaN and Infinity as numbers; no field takes them
        for name in ("d", "m", "m_p", "sparsity", "n_ord"):
            val = getattr(self, name)
            if val is None and name in ("sparsity", "n_ord"):
                continue
            if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
        for name in ("t_final", "dt", "dx", "dp", "max_norm", "epsilon", "s_arccos"):
            val = getattr(self, name)
            if val is None:
                continue
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or not 0 < val < math.inf:
                raise ValueError(f"{name} must be a positive finite number, got {val!r}")

    @property
    def m_h(self) -> int:
        return self.d * self.m + self.m_p


@dataclass(frozen=True)
class EstimateResult:
    method: str
    count: float
    formula: str
    polylog_factor: float = 1.0
    extras: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.count * self.polylog_factor


def _log2(x: float) -> float:
    return math.log2(x)


def _need(query: CostQuery, *names: str) -> list:
    out = []
    for name in names:
        val = getattr(query, name)
        if val is None:
            raise ValueError(f"method {query.method!r} requires field {name!r}")
        out.append(val)
    return out


def _polylog(tau: float, epsilon: Optional[float]) -> float:
    """Suppressed factor log^{3.5}(tau/eps)/loglog(tau/eps); 1 if eps omitted."""
    if epsilon is None:
        return 1.0
    ratio = tau / epsilon
    if ratio <= 2.0:
        raise ValueError("tau/epsilon must exceed 2 for the polylog factor")
    inner = _log2(ratio)
    return inner**3.5 / _log2(inner)


def estimate(query: CostQuery) -> EstimateResult:
    """Evaluate the leading-order count for the chosen route."""
    d, m, m_p = query.d, query.m, query.m_p
    if query.method in ("schr_heat", "schr_special"):
        t, dt = _need(query, "t_final", "dt")
        count = (t / dt) * (d * m * _log2(m) + m_p * _log2(m_p))
        return EstimateResult(
            query.method,
            count,
            "T/dt * (d*m*log2(m) + m_p*log2(m_p))",
        )
    if query.method == "schr_convection":
        count = (d + 1) * m * _log2(m)
        return EstimateResult(query.method, count, "(d+1)*m*log2(m)")
    if query.method == "schr_general":
        s, norm, dp, t = _need(query, "sparsity", "max_norm", "dp", "t_final")
        count = (d * m + m_p) * (s * norm / dp) + m_p * _log2(m_p)
        tau = s * norm / dp * t
        return EstimateResult(
            query.method,
            count,
            "(m_d + m_p)*(s(A)*||A||_max/dp) + m_p*log2(m_p)",
            polylog_factor=_polylog(tau, query.epsilon),
            extras={"tau": tau, "order_of_a": 2.0**(d * m)},
        )
    if query.method == "unitarisation":
        s, norm, t, dt = _need(query, "sparsity", "max_norm", "t_final", "dt")
        s_arccos = query.s_arccos if query.s_arccos is not None else 2.0**(d * m)
        count = (d * m) * ((t / dt) * s_arccos + s * norm)
        tau = s * norm * t
        return EstimateResult(
            query.method,
            count,
            "log2(N_A) * (T/dt * s(arccos(H1*dt)) + s(A)*||A||_max)",
            polylog_factor=_polylog(tau, query.epsilon),
            extras={"tau": tau, "s_arccos": s_arccos, "order_of_a": 2.0**(d * m)},
        )
    if query.method == "unitarisation_special":
        t, dt = _need(query, "t_final", "dt")
        count = (t / dt) * d * m * _log2(m)
        return EstimateResult(query.method, count, "T/dt * d*m*log2(m)")
    if query.method == "hamiltonian_query":
        s, norm, t, eps = _need(query, "sparsity", "max_norm", "t_final", "epsilon")
        tau = s * norm * t
        ratio = tau / eps
        if ratio <= 2.0:
            raise ValueError("tau/epsilon must exceed 2")
        inner = _log2(ratio)
        queries = tau * inner / _log2(inner)
        gates = tau * (query.m_h + inner**2.5) * inner / _log2(inner)
        return EstimateResult(
            query.method,
            gates,
            "tau*(m_H + log2^2.5(tau/eps))*log2(tau/eps)/log2log2(tau/eps)",
            extras={"tau": tau, "queries": queries},
        )
    if query.method == "boltzmann":
        n, dp, dx, t, dt = _need(query, "n_ord", "dp", "dx", "t_final", "dt")
        m_h = query.m_h
        count = (
            m_h * n**2 / dp
            + m_h / dx
            + (t / dt) * d * m * _log2(m)
            + m_p * _log2(m_p)
        )
        return EstimateResult(
            query.method,
            count,
            "m_H*N^2/dp + m_H/dx + T/dt*d*m*log2(m) + m_p*log2(m_p)",
        )
    if query.method == "black_scholes_schr":
        count = m * _log2(m) + m_p * _log2(m_p)
        return EstimateResult(query.method, count, "m*log2(m) + m_p*log2(m_p)")
    if query.method == "black_scholes_unitary":
        count = m * _log2(m)
        return EstimateResult(query.method, count, "m*log2(m)")
    raise ValueError(f"unknown method {query.method!r}")


def schr_vs_unitary_ratio(dx: float, ell: float, d: int, epsilon: float) -> tuple[float, str]:
    """Cost ratio of the warp route over the dilation route for diffusion.

    The dilation route needs dt ~ dx^2 while splitting tolerates dt ~ dx, so
    the ratio is dx * (1 + (ell/d) * log(1/eps)/log(d/eps)) for data with
    ell derivatives; small ell (rough data) favours the warp route.
    """
    if dx <= 0 or ell <= 0 or d < 1:
        raise ValueError("all ratio inputs must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    value = dx * (1.0 + (ell / d) * _log2(1.0 / epsilon) / _log2(d / epsilon))
    return value, "dx * (1 + (ell/d) * log2(1/eps)/log2(d/eps))"
