"""
Compressing a Hermitian matrix and watching its eigenvalues interlace
=====================================================================

A Hermitian matrix P of size N and a full-column-rank map H with L columns
give a compressed L x L matrix T = pinv(H) @ P @ H.  The L eigenvalues of T
are real and each one is pinched between eigenvalues of P:

    lam[i] <= eta[i] <= lam[N - L + i]

This holds even when H is far from orthonormal, which is the part worth
seeing with actual numbers.
"""
import numpy as np

from pseudosim import (
    SplitMix64,
    check_interlacing,
    classify_real,
    draw_full_column_rank,
    draw_hermitian,
    eigvals_general,
    eigvals_hermitian,
    extract_nonzero,
    pseudo_similarity,
)

rng = SplitMix64(2024)

# a 6 x 6 Hermitian matrix with a spectrum we pick up front
lam = np.array([-2.0, -0.7, 0.3, 1.1, 1.8, 3.0])
p = draw_hermitian(rng, lam).built()
print("input spectrum:", lam)

# a deliberately ill-conditioned 6 x 3 map (condition number up to 1e3)
h = draw_full_column_rank(rng, 6, 3, condition_cap=1e3).built()
result = pseudo_similarity(p, h)
print("compressed matrix is Hermitian:", result.hermitian)

# the compressed matrix is NOT Hermitian, yet its spectrum is real
spectrum = eigvals_general(result.transformed)
eta, _ = extract_nonzero(classify_real(spectrum), result.input_rank)
print("compressed spectrum:", np.round(eta, 6))

report = check_interlacing(lam, eta)
print("interlacing holds:", report.passed)
shift = lam.size - eta.size
for i in range(eta.size):
    print(f"  lam[{i}] = {lam[i]:+.4f} <= eta = {eta[i]:+.4f} <= lam[{i + shift}] = "
          f"{lam[i + shift]:+.4f}   margins {report.lower_margins[i]:.4f}, "
          f"{report.upper_margins[i]:.4f}")

# sanity: an orthonormal H reduces to the classical compression, where the
# same bound is the textbook Cauchy statement
q, _ = np.linalg.qr(h)
classical = q.conj().T @ p @ q
eta_classical = classify_real(eigvals_hermitian(classical))
print("orthonormal-frame compression interlaces too:",
      check_interlacing(lam, eta_classical).passed)
