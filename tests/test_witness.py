"""Witness lower-bound dispatch and oracle tests."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seuclid.covering import CoverCertificate, Verdict, certify_euclidean
from seuclid.disks import EXCEPTIONAL_PAIRS
from seuclid.exact import SSet, squarefree
from seuclid.field import KElement, make_field, s_norm
from seuclid.witness import (
    CaseTag,
    OracleReport,
    WitnessCertificate,
    certify_non_euclidean,
    oracle_min_snorm,
    witness_bound,
)


def test_dispatch_two_generic():
    tag, xi0, bound = witness_bound(17, 2)
    assert tag == CaseTag.TWO_GENERIC
    assert xi0 == KElement(1, 1, 3, make_field(17))
    assert bound == 1
    cert = certify_non_euclidean(17, 2)
    assert isinstance(cert, WitnessCertificate)


def test_dispatch_thirteen_special():
    tag, xi0, bound = witness_bound(13, 2)
    assert tag == CaseTag.THIRTEEN_SPECIAL
    assert xi0 == KElement(0, 1, 3, make_field(13))
    assert bound == Fraction(11, 9)
    assert isinstance(certify_non_euclidean(13, 2), WitnessCertificate)


def test_dispatch_two_even_d():
    tag, _xi0, bound = witness_bound(14, 2)
    assert tag == CaseTag.TWO_EVEN_D
    assert bound == 1
    # d = 10 falls below the threshold: no witness (it is Euclidean)
    out = certify_non_euclidean(10, 2)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
    assert witness_bound(10, 2)[2] == Fraction(14, 18)


def test_dispatch_two_mod8():
    tag, _xi0, bound = witness_bound(35, 2)
    assert tag == CaseTag.TWO_GENERIC
    assert bound == 1
    for d in (15, 7):
        out = witness_bound(d, 2)
        assert isinstance(out, Verdict) and out.certificate is None and out.kind == "not-applicable"


def test_dispatch_odd_inert():
    tag, xi0, bound = witness_bound(5, 11)
    assert tag == CaseTag.ODD_INERT_23
    assert xi0 == KElement(1, 1, 2, make_field(5))
    assert bound == Fraction(6, 4)
    assert isinstance(certify_non_euclidean(5, 11), WitnessCertificate)
    out = witness_bound(7, 11)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "not-applicable"


def test_dispatch_odd_ramified():
    tag, _xi0, bound = witness_bound(5, 5)
    assert tag == CaseTag.ODD_RAMIFIED_23
    assert bound == min(Fraction(6, 4), Fraction(30, 20))
    tag, _xi0, bound = witness_bound(35, 5)
    assert tag == CaseTag.ODD_RAMIFIED_1MOD4
    assert bound == Fraction(60, 80)
    out = certify_non_euclidean(35, 5)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"


def test_dispatch_odd_inert_half_basis():
    tag, _xi0, bound = witness_bound(15, 7)
    assert tag == CaseTag.ODD_INERT_1MOD4
    assert bound == 1
    assert isinstance(certify_non_euclidean(15, 7), WitnessCertificate)


def test_certify_input_validation():
    with pytest.raises(ValueError):
        certify_non_euclidean(12, 2)
    with pytest.raises(ValueError):
        certify_non_euclidean(0, 2)
    with pytest.raises(ValueError):
        certify_non_euclidean(4, 3)
    with pytest.raises(ValueError):
        certify_non_euclidean(5, 4)


def test_positive_and_negative_certificates_exclusive():
    for d in range(1, 61):
        if not squarefree(d):
            continue
        for p in (2, 3, 5, 7):
            if isinstance(certify_non_euclidean(d, p), WitnessCertificate):
                assert not isinstance(
                    certify_euclidean(make_field(d), SSet.of(p)), CoverCertificate
                )


def test_witness_bound_holds_on_sample_grid():
    """The analytic lower bound really bounds N_S(xi0 - alpha) on a
    brute-force sample of O_S."""
    for d, p in ((17, 2), (13, 2), (5, 11), (23, 5)):
        tag, xi0, bound = witness_bound(d, p)
        fld = xi0.field
        s = SSet.of(p)
        for n in (1, p, p * p):
            for a in range(-8, 9):
                for b in range(-8, 9):
                    alpha = KElement(a, b, n, fld)
                    if alpha == xi0:
                        continue
                    assert s_norm(xi0 - alpha, s) >= bound


def test_oracle_min_snorm():
    fld17 = make_field(17)
    rep = oracle_min_snorm(17, 2, KElement(1, 1, 3, fld17), 4, 40)
    assert rep.min_snorm_found >= 1
    fld5 = make_field(5)
    rep = oracle_min_snorm(5, 2, KElement(1, 1, 3, fld5), 4, 40)
    assert rep.min_snorm_found < 1
    assert s_norm(KElement(1, 1, 3, fld5) - rep.argmin, SSet.of(2)) == rep.min_snorm_found


def test_oracle_skips_xi0_itself():
    fld = make_field(17)
    xi0 = KElement(1, 1, 2, fld)  # lies on the n=1 grid
    rep = oracle_min_snorm(17, 2, xi0, 2, 10)
    assert rep.min_snorm_found > 0
    with pytest.raises(ValueError):
        oracle_min_snorm(17, 2, xi0, -1, 10)


def _oracle_grid_reference(d, p, xi0, n_max, coeff_max):
    """The unpruned scan of every grid point alpha = (a + b*w)/p^n, in
    (n, a, b) order, replacing the best only on a strict improvement."""
    fld = xi0.field
    h, e = fld.h, fld.e
    a0, b0, c0 = xi0.a, xi0.b, xi0.c
    best_num = best_den = 0
    best_alpha = None
    rng = range(-coeff_max, coeff_max + 1)
    for n in range(n_max + 1):
        pn = p**n
        den = c0 * c0 * pn * pn
        sden = den
        while sden % p == 0:
            sden //= p
        for a in rng:
            ap = a0 * pn - a * c0
            ap2, hap = ap * ap, h * ap
            for b in rng:
                bp = b0 * pn - b * c0
                if ap == 0 and bp == 0:
                    continue  # alpha equals xi0
                num = ap2 + bp * (hap + e * bp)
                while num % p == 0:
                    num //= p
                if best_alpha is None or num * best_den < best_num * sden:
                    best_num, best_den = num, sden
                    best_alpha = (a, b, pn)
    a, b, pn = best_alpha
    return OracleReport(
        min_snorm_found=Fraction(best_num, best_den),
        argmin=KElement(a, b, pn, fld),
        search_bounds=(n_max, coeff_max),
    )


def test_oracle_rejects_bad_inputs():
    xi0 = KElement(1, 1, 3, make_field(17))
    for p in (1, 0, -2, 4, 15):  # stripping factors p = 1 would never end
        with pytest.raises(ValueError, match="prime"):
            oracle_min_snorm(17, p, xi0, 1, 2)
    # xi0 of Q(sqrt(-17)) with d = 5: no silent report for d = 17
    with pytest.raises(ValueError, match="sqrt"):
        oracle_min_snorm(5, 2, xi0, 1, 2)
    with pytest.raises(ValueError):
        oracle_min_snorm(17, 2, xi0, 1, 0)


_ORACLE_D = [d for d in range(1, 60) if squarefree(d)]  # d = 1, 3 give D = 4, 3


@st.composite
def _oracle_inputs(draw):
    d = draw(st.sampled_from(_ORACLE_D))
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))  # split primes included
    n_max = draw(st.integers(0, 3))
    coeff_max = draw(st.integers(1, 8))
    fld = make_field(d)
    if draw(st.booleans()):  # xi0 on the grid
        coeff = st.integers(-coeff_max, coeff_max)
        xi0 = KElement(draw(coeff), draw(coeff), p ** draw(st.integers(0, n_max)), fld)
    else:
        coeff = st.integers(-30, 30)
        xi0 = KElement(draw(coeff), draw(coeff), draw(st.integers(1, 12)), fld)
    return d, p, xi0, n_max, coeff_max


@settings(max_examples=400, deadline=None)
@given(_oracle_inputs())
@example((1, 5, KElement(1, 1, 2, make_field(1)), 3, 8))  # 5 splits, D = 4
@example((3, 7, KElement(2, 1, 3, make_field(3)), 3, 8))  # 7 splits, D = 3
@example((7, 2, KElement(1, 1, 6, make_field(7)), 3, 8))  # 2 splits and divides c
@example((17, 2, KElement(1, 1, 2, make_field(17)), 2, 5))  # xi0 on the n = 1 grid
@example((15, 3, KElement(5, -4, 9, make_field(15)), 3, 8))  # 3 ramifies, 9 | c
@example((1, 3, KElement(1, 1, 3, make_field(1)), 3, 8))  # 3 inert and divides c: classes kept
@example((11, 2, KElement(1, 1, 3, make_field(11)), 3, 8))  # 2 inert
@example((10, 5, KElement(1, 1, 2, make_field(10)), 3, 8))  # 5 ramifies and divides e
@example((13, 2, KElement(1, 1, 3, make_field(13)), 3, 8))  # 2 ramifies, d odd
@example((14, 2, KElement(1, 1, 3, make_field(14)), 3, 8))  # 2 ramifies, d even
@example((7, 2, KElement(1, 1, 3, make_field(7)), 3, 8))  # 2 splits, prime to c
@example((17, 13, KElement(1, 1, 2, make_field(17)), 2, 3))  # coeff_max < p
@example((1, 3, KElement(1, 1, 3, make_field(1)), 4, 10))  # 3 divides c: one table for n >= 1
@example((13, 13, KElement(1, 1, 2, make_field(13)), 3, 20))  # 13 ramifies, coeff_max > p
def test_oracle_equals_full_grid_scan(args):
    assert oracle_min_snorm(*args) == _oracle_grid_reference(*args)


def test_oracle_equals_full_grid_scan_on_witnesses():
    # paper_survey witnesses, every case tag among them
    pairs = ((13, 2), (14, 2), (17, 2), (6, 3), (19, 3), (39, 3),
             (5, 5), (23, 5), (15, 7), (22, 11), (37, 13), (35, 2), (43, 2))
    for d, p in pairs:
        cert = certify_non_euclidean(d, p)
        assert isinstance(cert, WitnessCertificate)
        assert oracle_min_snorm(d, p, cert.xi0, 4, 60) == _oracle_grid_reference(d, p, cert.xi0, 4, 60)


def test_oracle_reports_first_minimizer():
    """With several minimizing alpha, the first in (n, a, b) order wins."""
    fld = make_field(1)
    xi0 = KElement(1, 1, 2, fld)
    s = SSet.of(3)
    values = {
        (n, a, b): s_norm(xi0 - KElement(a, b, 3**n, fld), s)
        for n in range(2) for a in range(-2, 3) for b in range(-2, 3)
    }
    least = min(values.values())
    minimizers = sorted(key for key, value in values.items() if value == least)
    assert least == Fraction(1, 2) and len(minimizers) == 13
    n, a, b = minimizers[0]
    assert (n, a, b) == (0, -1, -1)  # also (0, -1, 2), (0, 0, 0), ... and n = 1 points
    report = oracle_min_snorm(1, 3, xi0, 1, 2)
    assert report == _oracle_grid_reference(1, 3, xi0, 1, 2)
    assert report.min_snorm_found == least
    assert report.argmin == KElement(a, b, 3**n, fld)


def test_exceptional_pairs_note():
    for d, p in sorted(EXCEPTIONAL_PAIRS):
        out = certify_non_euclidean(d, p)
        assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
        assert out.reason == f"lower bound {witness_bound(d, p)[2]} < 1 (exceptional pair, resolved by certify_exceptional)"
