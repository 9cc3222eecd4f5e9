"""Seeded workload generator.

Each workload is a fixed list of cases whose sizes (grid points, p points,
matrix orders, step counts) never depend on the seed; the seed only picks
values: initial-data mode numbers and amplitudes, widths, potentials,
``r``/``sigma``, ``q0`` and the entries of random stable ODE matrices.  The
work per run is therefore the same for every seed.

A case is either a plain JSON config, which the runner feeds through
``parse_config`` and ``run_experiment`` exactly as ``schrodingerizer run``
would, or a library call (the dilation ladder plus its gate-count
estimates).  Every case carries a check that turns the run's output into
``error / tolerance`` (<= 1 passes) against a reference computed here, at
generation time, outside any timed region.  The references are built from
closed forms or from dense matrices assembled in this file, not from the
package's own solvers.

Tolerances follow ``tests/test_acceptance.py`` and ``tests/test_dilation.py``:
point recovery 2e-2 against exact solutions, ``0.5 * (dp + exp(-R))`` for
the generic ODE path, 5e-3 on the Liouville moment, 1e-10 relative mass
drift for Boltzmann, 5e-2 for the upwind march against the flow of the
matrix it discretises, and 2e-2 for the ladder against ``expm``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
import scipy.linalg

POINT_TOL = 2e-2
LIOUVILLE_TOL = 5e-3
MASS_DRIFT_TOL = 1e-10
UPWIND_TOL = 5e-2
LADDER_TOL = 2e-2
ESTIMATE_METHODS = ("schr_general", "unitarisation")


@dataclass
class Case:
    """One run of a workload.

    ``config`` cases go through the CLI path and are checked from the files
    they write; ``call`` cases are library calls checked from their return
    value.  ``known_defect`` marks runs that hit a documented open defect
    (constant-source ODEs, whose augmented Hermitian part is indefinite);
    they stay in the batch and count as failures when they miss their check.
    """

    name: str
    check: Callable[[Any], float]
    config: Optional[dict] = None
    call: Optional[Callable[[], Any]] = None
    known_defect: bool = False


class CheckError(Exception):
    """The output of a run is malformed or non-finite."""


# ---------------------------------------------------------------------------
# Reading what a CLI run wrote.
# ---------------------------------------------------------------------------


def read_snapshots(out_dir: str) -> list[np.ndarray]:
    """Complex values (re + i im) of every snapshot CSV, in file order."""
    names = sorted(n for n in os.listdir(out_dir) if n.startswith("snapshot_"))
    if not names:
        raise CheckError("no snapshot files written")
    out = []
    for name in names:
        data = np.loadtxt(os.path.join(out_dir, name), delimiter=",", skiprows=1, ndmin=2)
        if not np.all(np.isfinite(data)):
            raise CheckError(f"{name} holds non-finite values")
        out.append(data[:, -3] + 1j * data[:, -2])
    with open(os.path.join(out_dir, "diagnostics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(out) or not all(math.isfinite(float(r["norm2"])) for r in rows):
        raise CheckError("diagnostics.csv is incomplete or non-finite")
    if not os.path.exists(os.path.join(out_dir, "manifest.json")):
        raise CheckError("manifest.json missing")
    return out


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def _snapshot_check(refs: list[np.ndarray], tol: float) -> Callable[[str], float]:
    def check(out_dir: str) -> float:
        got = read_snapshots(out_dir)
        if len(got) != len(refs):
            raise CheckError(f"{len(got)} snapshots written, {len(refs)} requested")
        return max(_rel(g, r) for g, r in zip(got, refs)) / tol

    return check


# ---------------------------------------------------------------------------
# Independent reference operators (dense, spectral, periodic on [a, b)).
# ---------------------------------------------------------------------------


def _nodes(points: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    return a + (b - a) / points * np.arange(points)


def _mesh(points: int, dims: int) -> list[np.ndarray]:
    x = _nodes(points)
    return [m.reshape(-1) for m in np.meshgrid(*([x] * dims), indexing="ij")]


def _spectral_derivative(points: int, order: int, span: float = 2.0) -> np.ndarray:
    """Dense d^order/dx^order on a periodic lattice via the DFT of the identity."""
    mu = 2.0 * np.pi * np.fft.fftfreq(points, d=span / points)
    symbol = (1j * mu) ** order
    if order % 2:
        symbol[points // 2] = 0.0
    return np.real(np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(points), axis=0), axis=0))


def _laplacian(points: int, dims: int) -> np.ndarray:
    d2 = _spectral_derivative(points, 2)
    eye = np.eye(points)
    out = np.zeros((points**dims,) * 2)
    for axis in range(dims):
        mats = [d2 if i == axis else eye for i in range(dims)]
        term = mats[0]
        for m in mats[1:]:
            term = np.kron(term, m)
        out += term
    return out


def _expm_sym(mat: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    lam, q = np.linalg.eigh((mat + mat.T) / 2.0)
    return q @ (np.exp(lam * t) * (q.T @ v))


def _trig(kind: str, k: int, amp: float, coords: list[np.ndarray]) -> np.ndarray:
    base = np.sin if kind == "sine" else np.cos
    out = amp * np.ones_like(coords[0])
    for c in coords:
        out = out * base(k * np.pi * c)
    return out


# ---------------------------------------------------------------------------
# Config builders.
# ---------------------------------------------------------------------------


def _pgrid(left: float, right: float, points: int) -> dict:
    return {"left": left, "right": right, "points": points, "alpha_neg": 10.0, "left_support": -1.0}


def _config(model: dict, engine: dict, recovery: str, snapshots: list, diagnostics: dict) -> dict:
    return {
        "model": model,
        "engine": engine,
        "recovery": {"kind": recovery},
        "outputs": {"snapshots": snapshots, "diagnostics": diagnostics},
    }


def _heat_exact(rng, name: str, points: int, dims: int, p_points: int) -> Case:
    """Constant-potential heat on the exact diagonal route, point recovery."""
    k = int(rng.integers(1, 3))
    amp = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(-0.5, 0.5))
    kind = "sine" if rng.random() < 0.5 else "cosine"
    t_final = 0.05
    speed = dims * (k * np.pi) ** 2 - c
    times = [t_final / 2, t_final]
    cfg = _config(
        {
            "kind": "heat",
            "grid": {"a": -1.0, "b": 1.0, "points": points, "dims": dims},
            "pgrid": _pgrid(-1.0 - t_final * speed - 0.5, 5.0, p_points),
            "params": {
                "initial": {"type": kind, "k": k, "amplitude": amp},
                "potential": {"type": "constant", "value": c},
            },
        },
        {"kind": "exact_diagonal", "t_final": t_final},
        "point",
        times,
        {"norm": True, "error_vs_exact": True, "mode_profile": "dominant"},
    )
    u0 = _trig(kind, k, amp, _mesh(points, dims))
    refs = [u0 * math.exp(-speed * t) for t in times]
    return Case(name, _snapshot_check(refs, POINT_TOL), config=cfg)


def _heat_trotter(rng, name: str, points: int, dims: int, p_points: int, steps: int) -> Case:
    """Heat with a cosine potential on the split-step route, point recovery."""
    k = int(rng.integers(1, 3))
    amp = float(rng.uniform(0.5, 2.0))
    v_amp = float(rng.uniform(0.2, 1.0))
    t_final = 0.05
    dt = t_final / steps
    speed = dims * (k * np.pi) ** 2 + v_amp
    cfg = _config(
        {
            "kind": "heat",
            "grid": {"a": -1.0, "b": 1.0, "points": points, "dims": dims},
            "pgrid": _pgrid(-1.0 - t_final * speed - 0.5, 5.0, p_points),
            "params": {
                "initial": {"type": "sine", "k": k, "amplitude": amp},
                "potential": {"type": "cosine", "k": 1, "amplitude": v_amp},
            },
        },
        {"kind": "trotter", "dt": dt, "t_final": t_final},
        "point",
        [t_final],
        {"norm": True},
    )
    mesh = _mesh(points, dims)
    gen = _laplacian(points, dims) + np.diag(_trig("cosine", 1, v_amp, mesh))
    ref = _expm_sym(gen, _trig("sine", k, amp, mesh), t_final)
    return Case(name, _snapshot_check([ref], POINT_TOL), config=cfg)


def _black_scholes(rng, name: str, points: int, p_points: int) -> Case:
    k = int(rng.integers(1, 3))
    amp = float(rng.uniform(0.5, 2.0))
    r = float(rng.uniform(0.01, 0.1))
    sigma = float(rng.uniform(0.1, 0.5))
    t_final = 1.0
    rate = 0.5 * sigma**2 * (k * np.pi) ** 2 + r
    times = [t_final / 2, t_final]
    cfg = _config(
        {
            "kind": "black_scholes",
            "grid": {"a": -1.0, "b": 1.0, "points": points},
            "pgrid": _pgrid(-1.0 - t_final * rate - 0.5, 5.0, p_points),
            "params": {"initial": {"type": "sine", "k": k, "amplitude": amp}, "r": r, "sigma": sigma},
        },
        {"kind": "exact_diagonal", "t_final": t_final},
        "point",
        times,
        {"norm": True, "error_vs_exact": True, "mode_profile": "dominant"},
    )
    # V_t = (r - sigma^2/2) V_x + (sigma^2/2) V_xx - r V: translate and decay
    x = _nodes(points)
    drift = r - 0.5 * sigma**2
    refs = [amp * np.sin(k * np.pi * (x + drift * t)) * math.exp(-rate * t) for t in times]
    return Case(name, _snapshot_check(refs, POINT_TOL), config=cfg)


def _convection(rng, name: str, points: int, dims: int, p_points: int) -> Case:
    k = int(rng.integers(1, 4))
    amp = float(rng.uniform(0.5, 2.0))
    t_final = float(rng.uniform(0.2, 0.8))
    times = [t_final / 2, t_final]
    cfg = _config(
        {
            "kind": "convection",
            "grid": {"a": -1.0, "b": 1.0, "points": points, "dims": dims},
            "params": {"initial": {"type": "sine", "k": k, "amplitude": amp},
                       "variant": "sin_p", "p_points": p_points},
        },
        {"kind": "exact_diagonal", "t_final": t_final},
        "integrate",
        times,
        {"norm": True, "error_vs_exact": True},
    )
    mesh = _mesh(points, dims)
    refs = [_trig("sine", k, amp, [c - t for c in mesh]) for t in times]
    return Case(name, _snapshot_check(refs, POINT_TOL), config=cfg)


def _liouville(rng, name: str, points: int, p_points: int) -> Case:
    """Linear contracting flow dq/dt = -q lifted to density transport."""
    q0 = float(rng.uniform(0.3, 0.6))
    width = float(rng.uniform(3.0, 4.0)) * 2.0 / points  # resolved by the grid
    times = [0.25, 0.5, 0.75, 1.0]
    cfg = _config(
        {
            "kind": "liouville",
            "grid": {"a": -1.0, "b": 1.0, "points": points},
            "pgrid": _pgrid(-4.0, 6.0, p_points),
            "params": {"field": {"type": "linear", "rate": -1.0}, "q0": q0, "width": width},
        },
        {"kind": "exact_diagonal", "t_final": 1.0},
        "integrate",
        times,
        {"norm": True, "mass": True},
    )
    x = _nodes(points)

    def check(out_dir: str) -> float:
        got = read_snapshots(out_dir)
        if len(got) != len(times):
            raise CheckError(f"{len(got)} snapshots written, {len(times)} requested")
        errs = []
        for rho, t in zip(got, times):
            rho = rho.real
            errs.append(abs(float((x * rho).sum() / rho.sum()) - q0 * math.exp(-t)))
        return max(errs) / LIOUVILLE_TOL

    return Case(name, check, config=cfg)


def _fokker_planck(rng, name: str, points: int, p_points: int, form: str) -> Case:
    """Cosine potential; reference is expm of a dense spectral FP operator."""
    v_amp = float(rng.uniform(0.2, 0.6))
    sigma = float(rng.uniform(0.5, 1.0))
    width = float(rng.uniform(0.25, 0.4))
    t_final = 0.2
    times = [t_final / 2, t_final]
    cfg = _config(
        {
            "kind": "fokker_planck",
            "grid": {"a": -1.0, "b": 1.0, "points": points},
            # modes up to 4/width carry the data; the fastest of them, sigma*mu^2,
            # must not wrap around the periodic p axis by t_final
            "pgrid": _pgrid(-1.5 - t_final * sigma * (4.0 / width) ** 2, 6.0, p_points),
            "params": {
                "initial": {"type": "gaussian", "width": width},
                "potential": {"type": "cosine", "k": 1, "amplitude": v_amp},
                "sigma": sigma,
                "form": form,
            },
        },
        {"kind": "exact_diagonal", "t_final": t_final},
        "point",
        times,
        {"norm": True, "mass": True},
    )
    # d/dt f = d/dx(V' f) + sigma f_xx with V = v_amp cos(pi x)
    x = _nodes(points)
    d1 = _spectral_derivative(points, 1)
    dv = -v_amp * np.pi * np.sin(np.pi * x)
    gen = d1 @ np.diag(dv) + sigma * _spectral_derivative(points, 2)
    f0 = np.exp(-(x**2) / (2.0 * width**2))
    refs = [scipy.linalg.expm(gen * t) @ f0 for t in times]
    return Case(name, _snapshot_check(refs, POINT_TOL), config=cfg)


def _stable_matrix(rng, n: int) -> np.ndarray:
    """A = H1 + i H2 with H1 negative definite (as in the acceptance suite)."""
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = -(c @ c.conj().T) / n - 0.1 * np.eye(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return h1 + 1j * (m + m.conj().T) / 2


def _as_json(vec_or_mat: np.ndarray) -> list:
    arr = np.asarray(vec_or_mat)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [_as_json(row) for row in arr]


def _ode(rng, name: str, n: int, source: bool, recovery: str) -> Case:
    """Random stable ODE on the auto-sized p-grid (512 points, R = 10)."""
    a = _stable_matrix(rng, n)
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n) if source else None
    t_final = 1.0
    params = {"a": _as_json(a), "u0": _as_json(u0)}
    if source:
        params["b"] = _as_json(b)
    cfg = _config(
        {"kind": "ode", "params": params},
        {"kind": "exact_diagonal", "t_final": t_final},
        recovery,
        [t_final],
        {"norm": True},
    )
    # the unwarped (augmented) system and the p-grid default_pgrid chooses
    a_full, u_full = a, u0
    if source:
        a_full = np.block([[a, b[:, None]], [np.zeros((1, n + 1))]])
        u_full = np.concatenate([u0, [1.0]])
    h1 = (a_full + a_full.conj().T) / 2
    s_max = max(float(np.abs(np.linalg.eigvalsh(h1)).max()), 1e-12)
    left = min(-1.0 - t_final * s_max, -1.0 - 1e-6)
    dp = 10.0 / max(1, int(np.floor(512 * 10.0 / (10.0 - left))))
    ref = scipy.linalg.expm(a_full * t_final) @ u_full
    return Case(
        name,
        _snapshot_check([ref], 0.5 * (dp + math.exp(-10.0))),
        config=cfg,
        known_defect=source,
    )


def _boltzmann(rng, name: str, points: int, p_points: int, steps: int) -> Case:
    amp = float(rng.uniform(0.5, 2.0))
    width = float(rng.uniform(0.2, 0.4))
    t_final = 1.0
    cfg = _config(
        {
            "kind": "boltzmann",
            "grid": {"a": -1.0, "b": 1.0, "points": points},
            "pgrid": _pgrid(-3.0, 5.0, p_points),
            "params": {"initial": {"type": "gaussian", "width": width, "amplitude": amp}},
        },
        {"kind": "trotter", "dt": t_final / steps, "t_final": t_final},
        "point",
        [0.0, t_final / 2, t_final],
        {"norm": True, "mass": True},
    )

    def check(out_dir: str) -> float:
        got = read_snapshots(out_dir)
        if len(got) != 3:
            raise CheckError(f"{len(got)} snapshots written, 3 requested")
        # rows are (ordinate, index); the default rule weights both by 1/2
        masses = [0.5 * float(np.real(f.sum())) for f in got]
        return max(abs(m - masses[0]) / abs(masses[0]) for m in masses) / MASS_DRIFT_TOL

    return Case(name, check, config=cfg)


def _heat_upwind(rng, name: str, points: int, p_points: int) -> Case:
    """Upwind march at the CFL-limited step a user derives from admissible_dt().

    The mode number stays 1: the p-domain is fixed, so the step count (the
    work) depends on the seed only through the small potential shift.
    """
    from schrodingerizer.models import build_heat
    from schrodingerizer.grids import Grid, PGrid

    k = 1
    amp = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(-0.5, 0.0))
    t_final = 4.0 / np.pi**2
    pg = _pgrid(-5.0, 5.0, p_points)
    fd = build_heat(lambda x: c + 0.0 * x, Grid(-1.0, 1.0, points), PGrid(**pg)).fd_transport()
    steps = int(np.ceil(t_final / fd.admissible_dt()))
    cfg = _config(
        {
            "kind": "heat",
            "grid": {"a": -1.0, "b": 1.0, "points": points},
            "pgrid": pg,
            "params": {
                "initial": {"type": "sine", "k": k, "amplitude": amp},
                "potential": {"type": "constant", "value": c},
            },
        },
        {"kind": "upwind_fd", "dt": t_final / steps, "t_final": t_final},
        "point",
        [t_final],
        {"norm": True},
    )
    # exact flow of the central-difference system the march discretises
    dx = 2.0 / points
    lam = -(4.0 / dx**2) * math.sin(k * np.pi * dx / 2) ** 2 + c
    ref = amp * np.sin(k * np.pi * _nodes(points)) * math.exp(lam * t_final)
    return Case(name, _snapshot_check([ref], UPWIND_TOL), config=cfg)


def _ladder(rng, name: str, n: int, steps: int) -> Case:
    """Dilation ladder on a stable ODE plus both routes' gate counts."""
    import schrodingerizer.dilation as dilation
    import schrodingerizer.resources as resources

    a = _stable_matrix(rng, n)
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t_final = 1.0
    dt = t_final / steps
    h1 = (a + a.conj().T) / 2
    h2 = (a - a.conj().T) / 2j
    m = max(1, math.ceil(math.log2(n)))
    queries = [
        resources.CostQuery(
            method=method, d=1, m=m, m_p=9, t_final=t_final, dt=dt, dp=0.02,
            sparsity=n, max_norm=float(np.abs(a).max()), epsilon=1e-6,
        )
        for method in ESTIMATE_METHODS
    ]
    ref = scipy.linalg.expm(a * t_final) @ psi0

    def call():
        top, prob = dilation.ladder_evolve(h1, h2, dt, steps, psi0)
        return top, prob, [resources.estimate(q) for q in queries]

    def check(out) -> float:
        top, prob, estimates = out
        if not (np.all(np.isfinite(top)) and 0.0 < prob <= 1.0):
            raise CheckError("non-finite ladder state or success probability outside (0, 1]")
        if not all(math.isfinite(e.total) and e.total > 0 for e in estimates):
            raise CheckError("gate count not finite and positive")
        return _rel(top, ref) / LADDER_TOL

    return Case(name, check, call=call)


# ---------------------------------------------------------------------------
# The three workloads.
# ---------------------------------------------------------------------------


# Each workload has an odd number of cases, so the pooled median run time
# falls inside one case's cluster of samples instead of between two.


def spectral(rng) -> list[Case]:
    return [
        _heat_exact(rng, "heat1d_exact_P8192", 64, 1, 8192),
        _heat_exact(rng, "heat1d_exact_P4096", 128, 1, 4096),
        _heat_exact(rng, "heat2d_exact_32x32_P1024", 32, 2, 1024),
        _heat_trotter(rng, "heat2d_trotter_16x16_P1024", 16, 2, 1024, 32),
        _black_scholes(rng, "black_scholes_M256_P4096", 256, 4096),
        _black_scholes(rng, "black_scholes_M128_P8192", 128, 8192),
        _convection(rng, "convection2d_64x64_P64", 64, 2, 64),
    ]


def dense_blocks(rng) -> list[Case]:
    return [
        _liouville(rng, "liouville_n128_P512", 128, 512),
        _liouville(rng, "liouville_n64_P512", 64, 512),
        _fokker_planck(rng, "fokker_planck_cons_n64_P1024", 64, 1024, "conservation"),
        _fokker_planck(rng, "fokker_planck_cons_n32_P1024", 32, 1024, "conservation"),
        _fokker_planck(rng, "fokker_planck_heat_n32_P1024", 32, 1024, "heat_form"),
        _ode(rng, "ode_n32_integrate", 32, False, "integrate"),
        _ode(rng, "ode_n16_point", 16, False, "point"),
        _ode(rng, "ode_src_n8_integrate", 8, True, "integrate"),
        _ode(rng, "ode_src_n8_point", 8, True, "point"),
    ]


def march(rng) -> list[Case]:
    return [
        _heat_upwind(rng, "heat1d_upwind_M16_P512", 16, 512),
        _heat_trotter(rng, "heat1d_trotter_M32_P256", 32, 1, 256, 400),
        _boltzmann(rng, "boltzmann1d_M16_P256", 16, 256, 200),
        _boltzmann(rng, "boltzmann1d_M32_P256", 32, 256, 200),
        _ladder(rng, "ladder_n4_10k", 4, 10_000),
        _ladder(rng, "ladder_n8_10k", 8, 10_000),
        _ladder(rng, "ladder_n16_10k", 16, 10_000),
    ]


WORKLOADS = {"spectral": spectral, "dense_blocks": dense_blocks, "march": march}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for one seed (sizes fixed, values seeded)."""
    return WORKLOADS[workload](np.random.default_rng(seed))
