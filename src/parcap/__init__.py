"""Parabolic capacity, equilibrium measures, and branching Brownian motion
experiments."""

__version__ = "0.1.0"

from . import runtime  # noqa: F401  (sets the allocator thresholds first)
from .heat_kernel import (  # noqa: F401
    SpaceTimePoint,
    bridge_weight,
    gaussian_product_reduce,
    heat_density,
)
from .region import (  # noqa: F401
    CellCloud,
    RegionUnion,
    SliceOf,
    SpaceTimeBox,
    SpatialAnnulus,
    SpatialBall,
    Thorn,
    TimeSliceBall,
    contains,
    discretize,
    region_from_dict,
    region_to_dict,
    sample_uniform,
)
from .energy_kernel import (  # noqa: F401
    CAP_PRIME,
    PARABOLIC,
    DiscreteMeasure,
    KernelKind,
    cap_prime_kernel,
    energy,
    energy_mc_paths,
    mutual_kernel,
    newtonian,
    newtonian_kernel,
)
from .capacity_solver import (  # noqa: F401
    CapacityResult,
    KernelMatrix,
    LatticeKernel,
    assemble_kernel_matrix,
    capacity,
    capacity_growth_profile,
    minimize_energy,
    translation_noninvariance_demo,
    verify_duality,
)
from .stochastic_sim import (  # noqa: F401
    BranchingConfig,
    HitEstimate,
    estimate_graph_hit,
    estimate_range_hit,
    estimate_support_hit,
    estimate_survival,
    simulate_branching,
    wilson_interval,
)
