"""Classical emulation of Hamiltonian embeddings for linear PDEs and ODEs.

The core trick is the warped phase transformation: multiplying the state by
exp(-p) in an auxiliary variable turns dissipation into unitary transport,
so general linear dynamics become Hermitian and can be driven by the same
machinery as a Schrodinger equation.  The package also provides the
parity-dilating unitarisation alternative and leading-order gate-count
estimators for both routes.

``SCHRO_THREADS`` caps the numerical thread pools: it is exported to the
BLAS/OpenMP pool variables here, before the first numpy import, because the
pools size themselves when numpy loads.
"""

import os


def _cap_threads() -> None:
    cap = os.environ.get("SCHRO_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_threads()

from .grids import (
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
)
from .warp import (
    IntegrateP,
    ModeFrameState,
    PointP,
    ProductState,
    WarpedState,
    containment_ratio,
    dominant_mode,
    dominant_speed,
    estimate_domain,
    extend_initial,
    recover,
)
from .ode import (
    HermitianSplit,
    LinearSystem,
    SchrodingerisedSystem,
    StabilityWarning,
    assemble_schrodingerised,
    augment_inhomogeneous,
    default_pgrid,
    hermitian_split,
)
from .evolvers import (
    CFLError,
    EvolutionPlan,
    FDTransport,
    Trajectory,
    evolve_mode_blocks,
    evolve_mode_frame,
    evolve_ordinate_split,
    evolve_trotter,
    evolve_upwind_fd,
)
from .dilation import (
    DilationLadder,
    DilationStep,
    build_dilation_step,
    evolutionary_step,
    ladder_evolve,
    postselect,
)
from .models import (
    BlackScholesModel,
    BoltzmannModel,
    ConvectionModel,
    DirectConvectionModel,
    FokkerPlanckModel,
    HeatModel,
    QuadratureRule,
    build_black_scholes,
    build_boltzmann,
    build_convection,
    build_fokker_planck,
    build_heat,
    build_liouville,
    default_ordinates,
    exact_convection_solution,
    exact_heat_solution,
)
from .resources import CostQuery, EstimateResult, estimate, schr_vs_unitary_ratio

__version__ = "0.1.0"
