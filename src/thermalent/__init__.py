"""Thermal-operation entanglability of energy-incoherent multi-qubit states.

Decide whether populations can be entangled by thermal processes, construct
and measure the relevant convex sets, and simulate the dynamical protocols
(cavity preconditioning, partial thermalizations, catalytic activation).

The ``dynamics`` submodule and the names it exports here load on their
first access (a module ``__getattr__``), so that importing the package, and
its CLI, does not pay for the protocols or for ``fractions``; ``__all__``
lists them all the same.
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

#: the names of ``dynamics`` exported here, loaded with it on first access
_DYNAMICS = (
    "DensityMatrix",
    "JCConfig",
    "JCResult",
    "MtpSearchResult",
    "ThermalizationSchedule",
    "apply_schedule",
    "apply_subspace_rotation",
    "jc_protocol",
    "mtp_entangle_search",
    "verify_catalysis",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_DYNAMICS, "dynamics"])


def __getattr__(name):
    if name == "dynamics" or name in _DYNAMICS:
        import importlib

        dynamics = importlib.import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
