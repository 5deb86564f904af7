"""Witness lower-bound dispatch and brute-force oracle tests."""
from fractions import Fraction

import pytest

from seuclid.covering import CoverCertificate, Verdict, certify_euclidean
from seuclid.disks import EXCEPTIONAL_PAIRS
from seuclid.exact import SSet, squarefree
from seuclid.field import KElement, make_field, s_norm
from seuclid.witness import (
    CaseTag,
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


def test_exceptional_pairs_note():
    for d, p in sorted(EXCEPTIONAL_PAIRS):
        out = certify_non_euclidean(d, p)
        assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
        assert out.reason == f"lower bound {witness_bound(d, p)[2]} < 1 (exceptional pair, resolved by certify_exceptional)"
