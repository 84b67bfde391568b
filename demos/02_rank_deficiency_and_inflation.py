"""
Rank-deficient maps, inflated dimensions, and structural zeros
==============================================================

When the map H is K x N... actually the interesting direction is N -> K with
K larger than N: the compressed matrix lives in a BIGGER space than P did.
Factor H as (full-rank core) @ V^H with V orthonormal; the K x K result has
exactly K - L eigenvalues pinned at zero and the L survivors still interlace.
"""
import numpy as np

from pseudosim import (
    SplitMix64,
    build_rank_deficient,
    check_interlacing,
    classify_real,
    draw_full_column_rank,
    draw_hermitian,
    draw_unitary,
    eigvals_general,
    extract_nonzero,
    inflate_transform,
    pseudo_similarity,
)

rng = SplitMix64(7)

n, k, l = 4, 9, 2  # 4 x 4 input, 9 x 9 output, rank 2
lam = np.array([-1.5, -0.2, 0.8, 2.4])
p = draw_hermitian(rng, lam).built()

core = draw_full_column_rank(rng, n, l, condition_cap=50.0).built()
v = draw_unitary(rng, k, l).built()
h = build_rank_deficient(core, v)
print(f"map shape {h.shape}, rank {l}: inflating a {n}-dim problem into {k} dims")

# the library computes the transform twice, by unrelated routes, and refuses
# to answer if they disagree; route_deviation is the measured gap
result = inflate_transform(p, core, v)
print(f"cross-route deviation: {result.route_deviation:.3e}")

spectrum = eigvals_general(result.transformed)
real = classify_real(spectrum)
eta, zero_count = extract_nonzero(real, result.input_rank)
print(f"eigenvalues: {zero_count} structural zeros + {len(eta)} genuine")
print("nonzero part:", np.round(eta, 8))

report = check_interlacing(lam, eta)
print("interlacing on the nonzero part:", report.passed)

# same answer through the generic entry point, no factorization supplied
direct = pseudo_similarity(p, h)
gap = np.abs(direct.transformed - result.transformed).max()
print(f"factored and direct construction agree to {gap:.3e}")

# a tiny hand-checkable case: p = diag(1, 3) pushed through a rank-1 map
# into 2 dims leaves eigenvalues {0, eta} with 1 <= eta <= 3
p2 = np.diag([1.0, 3.0])
core2 = np.array([[1.0], [1.0]])
v2 = np.array([[1.0], [0.0]])
r2 = inflate_transform(p2, core2, v2)
vals = np.sort_complex(np.linalg.eigvals(r2.transformed)).real
print("hand case spectrum:", vals, "(eta = 2 is the average of 1 and 3)")
