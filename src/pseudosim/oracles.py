"""Spot-check oracles that avoid the QR-iteration eigensolvers entirely.

Small-matrix spectra are recomputed here as roots of the explicitly expanded
characteristic polynomial: closed forms up to degree 2, simultaneous
Weierstrass (Durand-Kerner) iteration above that.  Coefficients come from the
Faddeev-LeVerrier trace recurrence, so no factorization is shared with the
solvers under test.  Intended for desk sizes (n <= 6 or so); the recurrence
loses accuracy quickly beyond that.

Both functions take one input or a stack of them along the leading axes
(same-size matrices, or polynomials of one degree), validate it once, and
return plain arrays under the stack's leading axes; the runner calls
:func:`_characteristic_polynomial`, the body that takes a validated stack.
The Weierstrass iteration corrects every polynomial of the stack together
and freezes each one as its correction settles, so each polynomial gets the
roots it gets alone, bit for bit.  That needs one rule: the products over ``j != i`` run
on a C-contiguous array.  Masking the stacked differences gives an array
whose factors lie a whole stack apart; numpy then multiplies them with its
vectorised complex multiply across the stack, which rounds differently from
its product along a contiguous row.
"""
from __future__ import annotations

import numpy as np

from .eigen import sort_eigenvalues
from .errors import ContractViolation, NumericalError
from .linalg import _as_square_stack, spectral_scale


def characteristic_polynomial(m) -> np.ndarray:
    """Monic coefficients of det(t I - m), highest degree first; a row per
    matrix of a stack.

    Faddeev-LeVerrier: with N_0 = I, repeatedly M_k = m N_{k-1},
    c_k = -trace(M_k)/k, N_k = M_k + c_k I.
    """
    return _characteristic_polynomial(_as_square_stack(m))


def _characteristic_polynomial(m: np.ndarray) -> np.ndarray:
    """:func:`characteristic_polynomial` of a validated stack."""
    n = m.shape[-1]
    coeffs = np.zeros(m.shape[:-2] + (n + 1,), dtype=np.complex128)
    coeffs[..., 0] = 1.0
    eye = np.eye(n)
    nk = np.broadcast_to(eye, m.shape).astype(np.complex128)
    for k in range(1, n + 1):
        mk = m @ nk
        c = -np.trace(mk, axis1=-2, axis2=-1) / k
        coeffs[..., k] = c
        nk = mk + c[..., np.newaxis, np.newaxis] * eye
    return coeffs


def _quadratic_roots(b, c) -> np.ndarray:
    """Roots of t^2 + b t + c, one row per entry of the arrays b and c, with
    the cancellation-safe branch choice.

    b^2 and the moduli are formed as numpy's scalar arithmetic forms them:
    its vectorised complex square and absolute value round differently.
    """
    b_sq = np.empty_like(b)
    b_sq.real = b.real * b.real - b.imag * b.imag
    b_sq.imag = 2.0 * (b.real * b.imag)
    s = np.sqrt(b_sq - 4.0 * c)
    minus, plus = b - s, b + s
    s = np.where(np.hypot(minus.real, minus.imag) > np.hypot(plus.real, plus.imag), -s, s)
    q = -(b + s) / 2.0
    roots = np.stack([q, c / np.where(q == 0, 1.0, q)], axis=-1)
    roots[q == 0] = 0.0
    return roots


@np.errstate(all="ignore")  # a root that overflows is refused, not warned of
def polynomial_roots(coeffs) -> np.ndarray:
    """All complex roots of a polynomial (coefficients highest first, leading
    one nonzero), sorted by (real, imag); a row per polynomial of a stack.

    Degree 1 and 2 use closed forms; higher degrees run the Weierstrass
    simultaneous-correction iteration from staggered starting points inside
    the Cauchy root bound, until a correction is within 1e-14 of the roots'
    scale.  Accuracy degrades near multiple roots (as for any polynomial
    method): a polynomial whose last of 500 corrections is still within
    1e-10 of that scale keeps its roots, any other one raises
    :class:`NumericalError`, as does a polynomial whose roots are not all
    finite.  Distinct-root inputs converge to near machine level.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim < 1 or c.shape[-1] < 2:
        raise ContractViolation("need a polynomial of degree >= 1")
    if not (np.isfinite(c).all() and c[..., 0].all()):
        raise ContractViolation("coefficients must be finite with a nonzero leading term")
    shape, n = c.shape[:-1], c.shape[-1] - 1
    c = c.reshape(-1, n + 1)
    rescale = c[:, 0] != 1.0
    if rescale.any():
        c = c.copy()
        c[rescale] /= c[rescale, :1]
    if n <= 2:
        roots = -c[:, 1:] if n == 1 else sort_eigenvalues(_quadratic_roots(c[:, 1], c[:, 2]))
        if not np.isfinite(roots).all():  # above degree 2 such a root never settles
            raise NumericalError(f"a root of a degree-{n} polynomial is not finite")
        return roots.reshape(shape + (n,))

    radius = 1.0 + np.abs(c[:, 1:]).max(axis=1)  # Cauchy bound on |root|
    z = radius[:, np.newaxis] * (0.4 + 0.9j) ** np.arange(1, n + 1)
    off = ~np.eye(n, dtype=bool)
    active = np.arange(len(c))  # rows still iterating
    close = np.zeros(len(c), dtype=bool)  # rows whose last correction is within 1e-10
    for _ in range(500):
        za, ca = z[active], c[active]
        p = np.zeros_like(za)  # Horner's rule, as np.polyval(c, z) evaluates it
        for j in range(n + 1):
            p = p * za + ca[:, j:j + 1]
        diffs = np.ascontiguousarray((za[:, :, np.newaxis] - za[:, np.newaxis, :])[:, off])
        step = p / diffs.reshape(-1, n, n - 1).prod(axis=2)  # prod_{j != i} (z_i - z_j)
        za = za - step
        z[active] = za
        size, scale = np.abs(step).max(axis=1), spectral_scale(za, axis=1)
        close[active] = size <= 1e-10 * scale
        active = active[~(size <= 1e-14 * scale)]
        if not active.size:
            break
    else:
        if not close[active].all():
            raise NumericalError(f"root iteration did not settle for degree {n}")
    return sort_eigenvalues(z).reshape(shape + (n,))

