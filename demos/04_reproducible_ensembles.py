"""
Seeded ensembles and standalone trial replay
============================================

Every random object in this package comes from splitmix64 streams with
explicit splitting, so any trial from any run can be regenerated from the
seed printed in its report row.  No global state, no platform dependence.
"""
import numpy as np

from pseudosim import (
    EnsembleSpec,
    ExperimentConfig,
    SplitMix64,
    SUITES,
    derive_seed,
    draw_hermitian,
    draw_spectrum,
    render,
    run_suite,
    run_trial,
)

# two independent streams from the same master seed never collide
master = 12345
child_a = SplitMix64(derive_seed(master, 0))
child_b = SplitMix64(derive_seed(master, 1))
print("child stream 0:", [hex(child_a.next_uint64()) for _ in range(3)])
print("child stream 1:", [hex(child_b.next_uint64()) for _ in range(3)])

# the same seed always draws the same matrix, bit for bit
m1 = draw_hermitian(SplitMix64(master), np.arange(1.0, 6.0)).built()
m2 = draw_hermitian(SplitMix64(master), np.arange(1.0, 6.0)).built()
print("bit-identical redraws:", np.array_equal(m1, m2))

# run a small experiment and pick out one row
config = ExperimentConfig(
    suites=("interlace-full-rank",),
    ensemble=EnsembleSpec(seed=master),
    trials=5,
)
records = run_suite(config)
print()
print(render(records, "table"))

# replay trial 3 on its own: its seed is derive_seed(suite_seed, 3), and the
# suite seed is split from the master by the suite's fixed position
row = records[3]
suite_seed = derive_seed(master, SUITES.index("interlace-full-rank"))
assert row.seed == derive_seed(suite_seed, 3)
replay = run_trial(config.ensemble, "interlace-full-rank", 3)
assert replay == row, "replay must match the row"
print(f"replayed trial 3 from bare seed {row.seed}: (n, k, l) = "
      f"({replay.n}, {replay.k}, {replay.l}) as recorded, cond(H) = {replay.cond_h:.1f}")

# spectrum laws keep eigenvalues away from zero: signed-uniform avoids
# the open interval (-0.1, 0.1) entirely
gap_spec = EnsembleSpec(seed=4, spectrum_law="signed-uniform")
draws = draw_spectrum(SplitMix64(4), gap_spec, 2000)
print("smallest |eigenvalue| over 2000 signed-uniform draws:",
      f"{np.abs(draws).min():.4f} (never below 0.1)")
