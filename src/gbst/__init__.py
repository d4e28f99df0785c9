"""Graph-based separable transforms from two-parameter line graphs."""

from .graph import (
    GraphFamily,
    GraphParams,
    LineGraphLaplacian,
    build_ggl,
    dense_form,
)
from .spectral import (
    TransformMatrix,
    apply_separable,
    derive_gbt,
    gbt_dump,
    inverse_separable,
)
from .trig import TrigTransformKind, oracle_check, trig_matrix
from .dataset import ResidualDataset, make_dataset, read_gbsr, write_gbsr
from .estimation import (
    MLSolution,
    RefinedParam,
    SampleCovariance,
    ml_gradient,
    ml_objective,
    refine,
    residual_covariances,
    solve_ml,
)
from .coding import (
    CodingMetrics,
    IntTransformMatrix,
    alpha_sweep,
    evaluate_metrics,
    integerize,
    model_covariance,
    quantize_roundtrip_distortion,
    sample_covariance,
    sample_gmrf,
    sample_gmrf_blocks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
