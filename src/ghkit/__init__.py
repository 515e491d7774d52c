"""Exact Gromov-Hausdorff machinery on finite metric spaces.

Spaces carry rational distance matrices; the distance between spaces is half
the minimum distortion over correspondences, computed exactly.  Gluings
realize correspondences as ambient embeddings, hedgehogs supply a rigid
isometry theory with quantitative center location, and chains of
correspondences produce certified finite limits.
"""

from .correspondences import (
    Correspondence,
    distortion,
    enumerate_correspondences,
    enumerate_pair_sets,
    full_correspondence,
    identity_correspondence,
    min_distortion_by_enumeration,
)
from .dynamics import (
    CenterIterate,
    LambdaProbe,
    StabilizerReport,
    ThreadChain,
    ThreadLimitResult,
    center_iterate,
    d_lambda,
    d_lambda_probe,
    stabilizer_finite,
    thread_limit,
)
from .errors import (
    BucketMismatch,
    DifferentAmbientSpaces,
    DistortionBudgetExceeded,
    GhkitError,
    IndexOutOfRange,
    MetricValidationError,
    NonpositiveScale,
    NotATree,
    PremiseViolated,
    ThreadCapExceeded,
    TooLarge,
    ZeroDistortion,
)
from .gluing import GluedSpace, GluingTree, glue_pair, glue_star, glue_tree
from .hedgehogs import (
    CenterLocationReport,
    HedgehogSpec,
    bucket_correspondence,
    check_center_location,
    compile_hedgehog,
    hedgehog_isometric,
)
from .solver import (
    GHResult,
    are_isometric,
    gh_exact,
    gh_lower_bound,
    gh_upper_from,
    isometry_cells,
)
from .spaces import (
    PSEUDO,
    STRICT,
    FiniteMetricSpace,
    SubsetRef,
    diameter,
    hausdorff,
    one_point_space,
    scale,
    subset,
    validate,
    whole,
)
from .tuzhilin import (
    TuzhilinConfig,
    TuzhilinEmbedding,
    needle_set_hausdorff,
    tuzhilin_isometry,
    tuzhilin_spaces,
)
from .verification import CheckResult, SuiteReport, run_check, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
