"""Gaussian multi-bubble functionals over explicit partition families.

Core surfaces: Monte Carlo volumes/moments against the standard Gaussian
measure (``montecarlo``), exact volumes/moments of affine partitions with
at most four cells (``exact``), partition construction and calibration
(``partitions``), Gaussian perimeter by facet and collar estimators
(``perimeter``), noise stability and its small-noise limit (``noise``),
simplex-valued functions on product alphabets (``discrete``), and
derivative-free optimization of the bubble functionals (``optimize``).
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    CapacityError,
    ConfigError,
    ContractViolationError,
    DegenerateCellError,
    DegeneratePairError,
    DomainError,
    GaussBubblesError,
    PrecisionError,
    PreconditionError,
    UnsupportedGeometryError,
)
from .montecarlo import (
    MAX_CELL_MOMENT_NORM,
    DivergenceReport,
    IntegrationConfig,
    MomentReport,
    VolumeReport,
    divergence_identity_check,
    gaussian_density,
    mc_moments,
    mc_volumes,
    sample_correlated_pairs,
    sample_standard_normal,
)
from .partitions import (
    AffinePartition,
    AlignmentResult,
    PartitionCell,
    RegularSimplexVertices,
    RoundCylinder,
    align_rotation,
    calibrate_offsets_to_volumes,
    half_space_pair,
    perturb,
    propeller_partition,
    regular_simplex,
    simplicial_cone_partition,
)
from .perimeter import (
    InterfaceFacet,
    MinkowskiReport,
    PerimeterReport,
    SymmetricScanResult,
    TailReport,
    cylinder_closed_forms,
    facet_perimeter,
    interface_facets,
    minkowski_partition_perimeter,
    minkowski_perimeter,
    symmetric_scan,
    tail_perimeter_check,
)
from .noise import (
    NoiseCertificate,
    NoiseLimitReport,
    NoiseStabilityReport,
    noise_stability_certificate,
    noise_stability_partition,
    noise_stability_set,
    perimeter_from_noise_limit,
)
from .discrete import (
    CltCrosscheckResult,
    DiscreteFunction,
    DiscreteStabilityResult,
    NoiseKernel,
    apply_noise_kernel,
    clt_crosscheck,
    discrete_noise_stability,
    influences,
    plurality_function,
    plurality_noise_stability,
)
from .optimize import (
    OptimizeConfig,
    OptimizeResult,
    StabilityCertificate,
    minimize_penalized_perimeter,
    moment_objective,
    optimize_propeller,
    stability_margin,
)
