"""Thermal-operation entanglability of energy-incoherent multi-qubit states.

Decide whether populations can be entangled by thermal processes, construct
and measure the relevant convex sets, and simulate the dynamical protocols
(cavity preconditioning, partial thermalizations, catalytic activation).
"""

__version__ = "0.1.0"

from .core import (
    PI_STAR,
    BetaOrdering,
    GibbsContext,
    PopVector,
    make_context,
    pop_vector,
    two_qubit_context,
)
from .majorization import (
    ThermalCone,
    ThermoCurve,
    curve,
    extreme_point,
    future_cone,
    thermo_majorizes,
)
from .entangle import (
    CriticalTemps,
    WitnessReport,
    critical_temps_general,
    critical_temps_thermal,
    is_thermally_entanglable,
    max_negativity,
    tne_bruteforce,
    witness_f,
)
from .geometry import (
    BoundaryCloud,
    HullMesh,
    VolumeEstimate,
    convex_hull_export,
    sample_simplex_array,
    tne_boundary,
    volume_of,
)
from .dynamics import (
    DensityMatrix,
    JCConfig,
    JCResult,
    MtpSearchResult,
    ThermalizationSchedule,
    apply_schedule,
    apply_subspace_rotation,
    jc_protocol,
    mtp_entangle_search,
    verify_catalysis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
