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
)
from .ensembles import (
    EnsembleSpec,
    draw_full_column_rank,
    draw_hermitian,
    draw_spectrum,
    draw_unitary,
)
from .errors import (
    ClassificationError,
    ContractViolation,
    NumericalError,
    RealnessViolation,
)
from .experiments import (
    SUITES,
    ExperimentConfig,
    Tolerances,
    counterexample_search,
    run_suite,
    run_trial,
)
from .interlace import (
    check_interlacing,
    classify_real,
    extract_nonzero,
)
from .linalg import (
    penrose_residuals,
    pseudo_inverse,
    svd,
)
from .oracles import characteristic_polynomial, polynomial_roots
from .reports import parse_json_lines, render
from .rng import SplitMix64, derive_seed
from .transforms import (
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
    "EnsembleSpec",
    "ExperimentConfig",
    "NumericalError",
    "RealnessViolation",
    "SUITES",
    "SplitMix64",
    "Tolerances",
    "build_rank_deficient",
    "characteristic_polynomial",
    "check_interlacing",
    "classify_real",
    "counterexample_search",
    "derive_seed",
    "draw_full_column_rank",
    "draw_hermitian",
    "draw_spectrum",
    "draw_unitary",
    "eigvals_general",
    "eigvals_hermitian",
    "extract_nonzero",
    "inflate_transform",
    "match_distance",
    "oblique_transform",
    "parse_json_lines",
    "penrose_residuals",
    "polynomial_roots",
    "pseudo_inverse",
    "pseudo_similarity",
    "render",
    "run_suite",
    "run_trial",
    "svd",
    "unitary_compression",
]
