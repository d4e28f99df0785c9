"""Graph-based separable transforms from two-parameter line graphs.

Names load lazily (PEP 562): a bare ``import gbst`` imports no numpy, and
each public name imports its submodule on first access, so the ``gbst``
command can set its BLAS thread count before numpy loads.  Values are not
cached here, so every access reads the submodule's current binding.
"""

import importlib

_SUBMODULE_NAMES = {
    "graph": ("GraphFamily", "GraphParams", "LineGraphLaplacian", "build_ggl", "dense_form"),
    "spectral": ("TransformMatrix", "apply_separable", "derive_gbt", "gbt_dump", "inverse_separable"),
    "trig": ("TrigTransformKind", "oracle_check", "trig_matrix"),
    "dataset": ("ResidualDataset", "make_dataset", "read_gbsr", "write_gbsr"),
    "estimation": (
        "MLSolution", "RefinedParam", "SampleCovariance", "ml_gradient", "ml_objective",
        "refine", "residual_covariances", "solve_ml",
    ),
    "coding": (
        "CodingMetrics", "IntTransformMatrix", "alpha_sweep", "evaluate_metrics", "integerize",
        "model_covariance", "quantize_roundtrip_distortion", "sample_covariance",
        "sample_gmrf", "sample_gmrf_blocks",
    ),
    "errors": (),
}
# public name -> submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE_NAMES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
