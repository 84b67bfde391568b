import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudosim.eigen import eigvals_general
from pseudosim.errors import (
    ClassificationError,
    ContractViolation,
    RealnessViolation,
)
from pseudosim.interlace import check_interlacing, classify_real, extract_nonzero
from pseudosim.transforms import pseudo_similarity


def test_interlacing_selection_case():
    report = check_interlacing([1.0, 2.0, 3.0], [1.0, 2.0])
    assert report.passed
    assert_array_equal(report.lower_margins, [0.0, 0.0])  # eta - lam[:2]
    assert_array_equal(report.upper_margins, [1.0, 1.0])  # lam[1:] - eta


def test_interlacing_middle_value():
    assert check_interlacing([1.0, 3.0], [2.0]).passed


def test_interlacing_violation():
    report = check_interlacing([1.0, 2.0, 3.0], [5.0])
    assert not report.passed
    lo, hi = report.min_margins()
    assert hi == pytest.approx(-2.0)


def test_interlacing_identity_case():
    # eta = lambda passes with zero margins at both ends
    lam = [-1.0, 0.5, 2.0]
    report = check_interlacing(lam, lam)
    assert report.passed
    assert_array_equal(report.lower_margins, [0.0, 0.0, 0.0])
    assert_array_equal(report.upper_margins, [0.0, 0.0, 0.0])
    assert report.min_margins() == (0.0, 0.0)


def test_interlacing_vacuous():
    report = check_interlacing([1.0, 2.0], [])
    assert report.passed and report.vacuous
    assert report.lower_margins.size == report.upper_margins.size == 0
    assert report.min_margins() == (np.inf, np.inf)


def test_interlacing_input_guards():
    with pytest.raises(ContractViolation):
        check_interlacing([2.0, 1.0], [1.5])
    with pytest.raises(ContractViolation):
        check_interlacing([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ContractViolation, match="compressed spectrum longer than reference: 2 > 1"):
        check_interlacing([1.0], [0.5, 1.5])
    # a stack of spectra is refused, not flattened into one
    with pytest.raises(ContractViolation, match=r"lam must be one spectrum, 1-D; got shape \(2, 2\)"):
        check_interlacing([[1, 2], [3, 4]], [1.5])
    with pytest.raises(ContractViolation, match=r"eta must be one spectrum, 1-D; got shape \(1, 1\)"):
        check_interlacing([1, 2], [[1.5]])


def test_interlacing_tolerance():
    lam = [1.0, 2.0]
    assert not check_interlacing(lam, [2.1], tol=1e-3).passed
    assert check_interlacing(lam, [2.1], tol=0.2).passed


def test_extract_nonzero_examples():
    nonzero, zeros = extract_nonzero([0.0, 1.0, 0.0, 2.0], 2)
    assert_allclose(nonzero, [1.0, 2.0])
    assert zeros == 2

    nonzero, zeros = extract_nonzero([1.0, 0.0], 1)
    assert_allclose(nonzero, [1.0])
    assert zeros == 1

    nonzero, zeros = extract_nonzero([-3.0, 0.0, 4.0], 2)
    assert_allclose(nonzero, [-3.0, 4.0])  # signed values retained
    assert zeros == 1


def test_extract_nonzero_misfit_rank():
    # forcing a genuine eigenvalue into the zero bucket is surfaced
    with pytest.raises(ClassificationError):
        extract_nonzero([0.5, 1e-15, 2.0], 1)
    with pytest.raises(ContractViolation, match=r"expected rank 2 outside \[0, 1\]"):
        extract_nonzero([1.0], 2)
    # True would read as rank 1; an out-of-range int rank keeps its range message
    for rank in (True, 1.0):
        with pytest.raises(ContractViolation, match="expected_l must be an int"):
            extract_nonzero([0.0, 1.0], rank)


def test_extract_nonzero_spectrum_input():
    # a solver's spectrum reaches the zero split through the realness
    # verdict, never around it
    s = eigvals_general(np.array([[2.0 + 1e-15j, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        extract_nonzero(s, 1)
    nonzero, zeros = extract_nonzero(classify_real(s), 1)
    assert_allclose(nonzero, [2.0])
    assert zeros == 1
    # the solvers give a stack one row per matrix: each verdict takes one row
    stack = eigvals_general(np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    with pytest.raises(ContractViolation, match=r"spectrum must be one spectrum, 1-D; got shape \(2, 2\)"):
        classify_real(stack)
    with pytest.raises(ContractViolation, match=r"spectrum must be one spectrum, 1-D; got shape \(2, 2\)"):
        extract_nonzero(stack.real, 2)


def test_rank_underestimate_is_surfaced():
    # the transform is computed at full precision (both eigenvalues genuine),
    # but a deliberately coarse rank threshold claims rank 1; the classifier
    # must refuse to absorb the second eigenvalue as a structural zero
    from pseudosim.linalg import svd

    p = np.diag([1.0, 3.0]).astype(complex)
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    h = u @ np.diag([1.0, 1e-3]) @ u.T
    result = pseudo_similarity(p, h)
    assert result.input_rank == 2
    coarse_rank = svd(h, rank_tol=1e-2).rank
    assert coarse_rank == 1
    values = classify_real(eigvals_general(result.transformed), 1e-6)
    with pytest.raises(ClassificationError):
        extract_nonzero(values, coarse_rank)


def test_classify_real():
    assert_allclose(classify_real([3 + 1e-14j, 1 - 2e-15j], 1e-10), [1.0, 3.0])
    assert classify_real([]).size == 0
    with pytest.raises(RealnessViolation) as err:
        classify_real([1j, -1j], 1e-10)
    assert len(err.value.offenders) == 2


def test_classify_real_tolerance_scaling():
    # tolerance is relative to max(1, largest magnitude)
    assert_allclose(classify_real([1e6 + 0.5j], 1e-6), [1e6])
    with pytest.raises(RealnessViolation):
        classify_real([1.0 + 0.5j], 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, True, "1"])
@pytest.mark.parametrize("gate, name", [
    (lambda tol: check_interlacing([1.0, 2.0, 3.0], [5.0], tol=tol), "tol"),
    (lambda tol: classify_real([1 + 1j, 2 - 1j], tol), "realness_tol"),
    (lambda tol: extract_nonzero([0.9, 1.0, 2.0], 1, tol), "zero_tol"),
], ids=["check_interlacing", "classify_real", "extract_nonzero"])
def test_verdict_gates_reject_unusable_tolerance(gate, name, bad):
    # a NaN, infinite or negative gate would decide every verdict alike, and
    # True would read as a gate of 1
    with pytest.raises(ContractViolation, match=f"{name} must be finite and >= 0"):
        gate(bad)


@pytest.mark.parametrize("lam, eta", [([1.0, 2.0], [np.nan]), ([np.nan, 2.0], [1.5]),
                                      ([1.0, np.nan], [1.5])])
def test_nan_fails_interlacing(lam, eta):
    # a NaN margin is no margin: every comparison with it is false
    assert not check_interlacing(lam, eta).passed
    assert not check_interlacing(lam, eta, tol=1e-7).passed


def test_nan_is_neither_real_nor_zero():
    with pytest.raises(RealnessViolation):
        classify_real([1.0, complex(2.0, np.nan)])
    with pytest.raises(ClassificationError):
        extract_nonzero([0.0, np.nan, 1.0], 2)
