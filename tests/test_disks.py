"""Disk-cover verification and gap-line certificate tests."""
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from seuclid.covering import Verdict
from seuclid.disks import (
    Disk,
    DiskCertificate,
    ExceptionalBundle,
    PointPiece,
    boost_radius,
    certify_exceptional,
    find_uncovered_cell,
    gap_line_certificate,
    table_disk_centers,
    table_disk_certificate,
    verify_disk_cert,
    verify_exceptional_bundle,
    verify_gap_line,
)
from seuclid.field import KElement, make_field, s_norm
from seuclid.exact import QuadSurd, SSet

F35 = make_field(35)
S5 = SSet.of(5)
S7 = SSet.of(7)


def test_boost_radius_examples():
    assert boost_radius(F35, S5, KElement(2, 1, 5, F35)) == Fraction(5, 25)
    assert boost_radius(F35, S5, KElement(1, 2, 5, F35)) == Fraction(1, 25)
    assert boost_radius(F35, S7, KElement(3, 1, 7, F35)) == Fraction(7, 49)
    assert boost_radius(F35, S5, KElement(0, 0, 1, F35)) == 1
    with pytest.raises(ValueError):
        boost_radius(F35, S5, KElement(1, 1, 3, F35))


def test_boost_radius_requires_all_conditions():
    # integer-basis field: no boost even with the congruences satisfied
    f10 = make_field(10)
    assert boost_radius(f10, S5, KElement(2, 1, 5, f10)) == Fraction(1, 25)
    # b = 0 mod p kills the boost
    assert boost_radius(F35, S5, KElement(0, 5, 5, F35)) == 1  # reduces to w
    assert boost_radius(F35, S5, KElement(5, 10, 25, F35)) == Fraction(1, 25)


def test_table_certificates_verify():
    cert_a = table_disk_certificate(5)
    assert len(cert_a.disks) == 14
    assert verify_disk_cert(cert_a)
    # p=7 has a thin seam near (0.29, 0.30); subdivision coarser than
    # ~1/2000 after refinement cannot resolve it, so keep the default 125
    cert_b = table_disk_certificate(7)
    assert len(cert_b.disks) == 20
    assert verify_disk_cert(cert_b)
    assert sum(d.boosted for d in cert_a.disks) == 6
    assert sum(d.boosted for d in cert_b.disks) == 8


def test_table_radius_partition():
    for p in (5, 7):
        rows = table_disk_centers(p)
        s = SSet.of(p)
        for a, b, c in rows["unit"]:
            assert boost_radius(F35, s, KElement(a, b, c, F35)) == 1
        for a, b, c in rows["plain"]:
            assert boost_radius(F35, s, KElement(a, b, c, F35)) == Fraction(1, p * p)
        for a, b, c in rows["boosted"]:
            assert boost_radius(F35, s, KElement(a, b, c, F35)) == Fraction(1, p)


def test_unit_disks_alone_do_not_cover():
    disks = tuple(
        Disk(center=KElement(a, b, 1, F35), r_squared=Fraction(1), boosted=False)
        for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    cert = DiskCertificate(d=35, s=S5, disks=disks, subdivision_depth=20)
    assert not verify_disk_cert(cert)
    assert find_uncovered_cell(cert) is not None


def test_verify_monotone_in_disks():
    cert = table_disk_certificate(5, subdivision_depth=40)
    extra = Disk(center=KElement(0, 0, 1, F35), r_squared=Fraction(1, 4), boosted=False)
    bigger = DiskCertificate(
        d=35, s=S5, disks=cert.disks + (extra,), subdivision_depth=40
    )
    assert verify_disk_cert(cert)
    assert verify_disk_cert(bigger)


def test_corner_soundness():
    """Random points inside a corner-verified cell are inside the disk."""
    rng = random.Random(7)
    disk = Disk(center=KElement(2, 1, 5, F35), r_squared=Fraction(1, 5), boosted=True)
    n = 50
    fld = F35
    from seuclid.disks import _corner_inside

    cells = [
        (iu, iv)
        for iu in range(n)
        for iv in range(n)
        if all(_corner_inside(fld, disk, iu + du, iv + dv, n) for du in (0, 1) for dv in (0, 1))
    ]
    assert cells
    for _ in range(500):
        iu, iv = rng.choice(cells)
        u = Fraction(iu, n) + Fraction(rng.randrange(1000), 1000 * n)
        v = Fraction(iv, n) + Fraction(rng.randrange(1000), 1000 * n)
        # squared distance via the norm form of the difference
        diff = KElement(
            u.numerator * v.denominator * disk.center.c - disk.center.a * u.denominator * v.denominator,
            v.numerator * u.denominator * disk.center.c - disk.center.b * u.denominator * v.denominator,
            u.denominator * v.denominator * disk.center.c,
            fld,
        )
        assert diff.norm() < disk.r_squared


def test_gap_line_certificates_verify():
    assert verify_gap_line(make_field(10), SSet.of(2), gap_line_certificate(10, 2))
    assert verify_gap_line(make_field(15), SSet.of(3), gap_line_certificate(15, 3))
    assert verify_gap_line(make_field(15), SSet.of(5), gap_line_certificate(15, 5))


@pytest.mark.parametrize("d, p", [(10, 2), (15, 3), (15, 5)])
def test_gap_line_verifies_in_any_piece_order(d, p):
    fld, s = make_field(d), SSet.of(p)
    cert = gap_line_certificate(d, p)
    for pieces in itertools.permutations(cert.pieces):
        assert verify_gap_line(fld, s, replace(cert, pieces=pieces))


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_gap_line_rejects_missing_point_piece(x):
    cert = gap_line_certificate(15, 3)
    pieces = tuple(pc for pc in cert.pieces if not (isinstance(pc, PointPiece) and pc.x == x))
    assert len(pieces) == len(cert.pieces) - 1
    assert not verify_gap_line(make_field(15), SSet.of(3), replace(cert, pieces=pieces))


def test_gap_line_ignores_pieces_beyond_one():
    # a valid convex piece on (11/10, 6/5), past the end of [0, 1]
    cert = gap_line_certificate(10, 2)
    beyond = replace(
        cert.pieces[1],
        lo=QuadSurd(Fraction(11, 10)), hi=QuadSurd(Fraction(6, 5)), lo_closed=False, hi_closed=False,
    )
    assert verify_gap_line(make_field(10), SSet.of(2), replace(cert, pieces=cert.pieces + (beyond,)))


def test_gap_line_point_checks_are_tight():
    # the d=15 line points have S-norm exactly 1/2 after stripping
    for p in (3, 5):
        fld = make_field(15)
        s = SSet.of(p)
        cert = gap_line_certificate(15, p)
        from seuclid.disks import PointPiece, _line_point

        points = [pc for pc in cert.pieces if isinstance(pc, PointPiece)]
        assert len(points) == 3
        for pc in points:
            xi = _line_point(fld, pc.x, cert.y0)
            assert s_norm(xi - pc.alpha, s) == Fraction(1, 2)


def test_gap_line_rejects_tampering():
    from dataclasses import replace

    fld = make_field(10)
    s = SSet.of(2)
    cert = gap_line_certificate(10, 2)
    assert not verify_gap_line(fld, s, replace(cert, pieces=()))
    # shrink one interval so coverage breaks
    first = cert.pieces[0]
    shrunk = replace(first, hi=first.hi * Fraction(1, 2))
    assert not verify_gap_line(fld, s, replace(cert, pieces=(shrunk,) + cert.pieces[1:]))
    # y0 with denominator sharing a factor with S
    assert not verify_gap_line(fld, s, replace(cert, y0=Fraction(1, 2)))
    # negative-leading-coefficient bound is rejected outright
    bad = replace(first, a2=Fraction(-2))
    assert not verify_gap_line(fld, s, replace(cert, pieces=(bad,) + cert.pieces[1:]))


def test_certify_exceptional_dispatch():
    out = certify_exceptional(6, 2)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
    bundle = certify_exceptional(10, 2)
    assert isinstance(bundle, ExceptionalBundle)
    assert bundle.gap_rationals == (Fraction(1, 3), Fraction(2, 3))
    assert len(bundle.gaps.gaps) == 2
    cert = certify_exceptional(35, 7)
    assert isinstance(cert, DiskCertificate)
    assert len(cert.disks) == 20


def test_exceptional_bundle_rejects_tampering():
    from dataclasses import replace

    bundle = certify_exceptional(15, 3)
    assert isinstance(bundle, ExceptionalBundle)
    assert verify_exceptional_bundle(bundle)
    assert not verify_exceptional_bundle(replace(bundle, gap_rationals=(Fraction(1, 3),)))
    assert not verify_exceptional_bundle(replace(bundle, gap_lines=()))
    assert not verify_exceptional_bundle(replace(bundle, k_max=bundle.k_max // 3))
