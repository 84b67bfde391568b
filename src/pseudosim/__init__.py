"""Pseudo-similarity transforms of Hermitian matrices and the interlacing
properties of their compressed spectra, with seeded verification suites.

The short version: for Hermitian P (N x N) and any N x K matrix H of rank L,
the K x K product pinv(H) P H generally loses Hermiticity and may even be
bigger than P, but it keeps a real spectrum whose L nonzero values interlace
the eigenvalues of P.  Compressions through oblique projections enjoy no
such protection, and this package can hunt down explicit counterexamples.
"""

from .eigen import (
    eigvals_general,
    eigvals_hermitian,
    match_distance,
    sort_eigenvalues,
)
from .ensembles import (
    EnsembleSpec,
    draw_spectrum,
    hermitian_with_spectrum,
    random_full_column_rank,
    random_invertible_nonunitary,
    random_rank_l,
    random_unitary,
)
from .errors import (
    ClassificationError,
    ContractViolation,
    DimensionError,
    NumericalError,
    RealnessViolation,
)
from .experiments import (
    SUITES,
    ExperimentConfig,
    Tolerances,
    TrialRecord,
    counterexample_search,
    run_suite,
    run_trial,
    trial_seed,
)
from .interlace import (
    InterlacingReport,
    check_interlacing,
    classify_real,
    extract_nonzero,
)
from .linalg import (
    SvdFactors,
    adjoint,
    is_hermitian,
    numerical_rank,
    penrose_residuals,
    pseudo_inverse,
    spectral_scale,
    svd,
)
from .oracles import characteristic_polynomial, charpoly_eigenvalues, polynomial_roots
from .reports import parse_json_lines, render
from .rng import SplitMix64, derive_seed
from .transforms import (
    TransformResult,
    build_rank_deficient,
    inflate_transform,
    oblique_transform,
    pseudo_similarity,
    unitary_compression,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationError",
    "ContractViolation",
    "DimensionError",
    "EnsembleSpec",
    "ExperimentConfig",
    "InterlacingReport",
    "NumericalError",
    "RealnessViolation",
    "SUITES",
    "SplitMix64",
    "SvdFactors",
    "Tolerances",
    "TransformResult",
    "TrialRecord",
    "adjoint",
    "build_rank_deficient",
    "characteristic_polynomial",
    "charpoly_eigenvalues",
    "check_interlacing",
    "classify_real",
    "counterexample_search",
    "derive_seed",
    "draw_spectrum",
    "eigvals_general",
    "eigvals_hermitian",
    "extract_nonzero",
    "hermitian_with_spectrum",
    "inflate_transform",
    "is_hermitian",
    "match_distance",
    "numerical_rank",
    "oblique_transform",
    "parse_json_lines",
    "penrose_residuals",
    "polynomial_roots",
    "pseudo_inverse",
    "pseudo_similarity",
    "random_full_column_rank",
    "random_invertible_nonunitary",
    "random_rank_l",
    "random_unitary",
    "render",
    "run_suite",
    "run_trial",
    "sort_eigenvalues",
    "spectral_scale",
    "svd",
    "trial_seed",
    "unitary_compression",
]
