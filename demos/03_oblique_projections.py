"""
Where interlacing breaks: oblique compressions
==============================================

Conjugating by an invertible X and keeping a principal block looks similar
to the pseudo-inverse construction but is not the same thing.  Unless X is
unitary the compressed block can have complex eigenvalues, or real ones
that escape the interlacing window.  This script hunts for a concrete
counterexample and then shows the two control arms where the failure
cannot happen.
"""
import numpy as np

from pseudosim import (
    EnsembleSpec,
    ExperimentConfig,
    RealnessViolation,
    SplitMix64,
    check_interlacing,
    classify_real,
    counterexample_search,
    draw_hermitian,
    eigvals_hermitian,
    oblique_transform,
)

# documented search: 3 x 3 matrices, condition numbers up to 100, seed 7
config = ExperimentConfig(
    suites=("oblique-counterexample",),
    ensemble=EnsembleSpec(seed=7, n=3, condition_cap=100.0),
    trials=1000,
)
witness = counterexample_search(config)
print("witness found:", witness is not None)
print("  trial", witness.trial_index, "| seed", witness.seed)
print(" ", witness.notes)

# the same search restricted to unitary X finds nothing, ever
print("unitary control arm:", counterexample_search(config, control="unitary"))
print("identity control arm:", counterexample_search(config, control="identity"))

# a fully explicit 3 x 3 violation, no search required
rng = SplitMix64(99)
lam = np.array([0.0, 1.0, 4.0])
p = draw_hermitian(rng, lam).built()
x = np.array([[1.0, 0.0, 0.0],
              [0.0, 1.0, 0.0],
              [8.0, 0.0, 1.0]])  # a strong shear
block = oblique_transform(p, x, (0, 1))
vals = np.linalg.eigvals(block)
print("sheared 2 x 2 block eigenvalues:", np.round(np.sort_complex(vals), 5))
try:
    eta = classify_real(vals, 1e-8)  # the runner's realness tolerance
except RealnessViolation:
    print("  -> complex spectrum: interlacing is not even well posed")
else:
    print("  -> real spectrum, interlacing holds:", check_interlacing(lam, eta).passed)

# undo the shear and the same selection behaves
block_id = oblique_transform(p, np.eye(3), (0, 1))
eta = classify_real(eigvals_hermitian(block_id))
print("identity-frame block interlaces:", check_interlacing(lam, eta).passed)
