"""Disk-cover verification and gap-line certificate tests."""
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seuclid import disks
from seuclid.covering import Residual, Verdict, residual
from seuclid.disks import (
    Disk,
    DiskCertificate,
    ExceptionalBundle,
    PointPiece,
    _orbit_keeps_gaps_apart,
    _line_point,
    _piece_bound,
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
from seuclid.exact import SSet, SurdValue, primes_below, s_part_strip, squarefree

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


def _damaged(p, drop=None, shrink=None, depth=125):
    cert = table_disk_certificate(p, subdivision_depth=depth)
    disks = cert.disks
    if drop is not None:
        disks = disks[:drop] + disks[drop + 1:]
    if shrink is not None:
        disks = tuple(replace(disk, r_squared=disk.r_squared * shrink) for disk in disks)
    return replace(cert, disks=disks)


# first uncovered cells of damaged table certificates, recorded with the
# earlier scan that precomputed every disk's corner grid
@pytest.mark.parametrize("p, drop, shrink, cell", [
    (5, 1, None, (99, 31, 125)),
    (5, None, Fraction(9, 10), (32, 57, 125)),
    (7, 4, None, (36, 37, 125)),
    (7, 9, None, (15, 73, 125)),
    (7, None, Fraction(9, 10), (0, 64, 125)),
    (7, 12, None, None),
])
def test_first_uncovered_cell_pinned(p, drop, shrink, cell):
    assert find_uncovered_cell(_damaged(p, drop, shrink)) == cell


@pytest.mark.parametrize("p, drop", [(5, 3), (7, 10)])
def test_first_uncovered_cell_is_the_first_in_scan_order(p, drop):
    from seuclid.disks import MAX_REFINE, _cell_covered

    cert = _damaged(p, drop, depth=30)
    n = cert.subdivision_depth
    first = next(
        (iu, iv, n)
        for iu in range(n)
        for iv in range(n)
        if not _cell_covered(F35, cert.disks, iu, iv, n, MAX_REFINE)
    )
    assert find_uncovered_cell(cert) == first


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


def test_cell_inside_needs_all_four_corners():
    from seuclid.disks import _cell_inside, _corner_inside

    n = 40
    for disk in table_disk_certificate(7).disks[4:8]:
        seen = set()
        for iu in range(n):
            for iv in range(n):
                corners = [_corner_inside(F35, disk, iu + du, iv + dv, n) for du in (0, 1) for dv in (0, 1)]
                assert _cell_inside(F35, disk, iu, iv, n) == all(corners)
                seen.add(sum(corners))
        assert 3 in seen  # some cells have exactly three corners inside


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
        lo=SurdValue.rational(Fraction(11, 10)), hi=SurdValue.rational(Fraction(6, 5)), lo_closed=False, hi_closed=False,
    )
    assert verify_gap_line(make_field(10), SSet.of(2), replace(cert, pieces=cert.pieces + (beyond,)))


# the paper's bounds: 2x^2+5/9, 2(1-x)^2+5/9, 8(x-1/2)^2+5/9 for (10, 2),
# (x-1/4)^2+15/16 and (x-3/4)^2+15/16 for (15, 3) and (15, 5)
PAPER_BOUNDS = {
    (10, 2): [
        (Fraction(2), Fraction(0), Fraction(5, 9)),
        (Fraction(2), Fraction(-4), Fraction(2) + Fraction(5, 9)),
        (Fraction(8), Fraction(-8), Fraction(2) + Fraction(5, 9)),
    ],
    (15, 3): [
        (Fraction(1), Fraction(-1, 2), Fraction(1, 16) + Fraction(15, 16)),
        (Fraction(1), Fraction(-3, 2), Fraction(9, 16) + Fraction(15, 16)),
    ],
}
PAPER_BOUNDS[(15, 5)] = PAPER_BOUNDS[(15, 3)]


@pytest.mark.parametrize("d, p", sorted(PAPER_BOUNDS))
def test_derived_bounds_are_the_papers(d, p):
    fld, s = make_field(d), SSet.of(p)
    cert = gap_line_certificate(d, p)
    derived = [
        _piece_bound(fld, s, cert.y0, pc.alpha) for pc in cert.pieces if not isinstance(pc, PointPiece)
    ]
    assert derived == PAPER_BOUNDS[(d, p)]


def test_derived_bound_of_zero_alpha():
    # the bound a forged alpha = 0 piece gets: at least 1 at x = 0
    assert _piece_bound(make_field(10), SSet.of(2), Fraction(1, 3), KElement(0, 0, 1, make_field(10))) == (
        Fraction(1), Fraction(0), Fraction(10, 9),
    )
    for p in (3, 5):
        fld = make_field(15)
        assert _piece_bound(fld, SSet.of(p), Fraction(1, 2), fld.zero) == (
            Fraction(1), Fraction(1, 2), Fraction(1),
        )


def _coprime_to(s):
    return st.integers(min_value=1, max_value=60).filter(lambda n: s_part_strip(n, s) == n)


@st.composite
def _bound_cases(draw):
    d = draw(st.sampled_from([d for d in range(1, 101) if squarefree(d)]))
    s = SSet.from_iterable(draw(st.sets(st.sampled_from(primes_below(14)), min_size=1, max_size=2)))
    y0 = Fraction(draw(st.integers(min_value=0, max_value=60)), draw(_coprime_to(s)))
    c = 1
    for q in s:
        c *= q ** draw(st.integers(min_value=0, max_value=3))
    ints = st.integers(min_value=-40, max_value=40)
    x = Fraction(draw(ints), draw(_coprime_to(s)))
    return make_field(d), s, y0, KElement(draw(ints), draw(ints), c, make_field(d)), x


@settings(max_examples=400, deadline=None)
@given(_bound_cases())
def test_derived_bound_is_sound(case):
    """N_S(x + y0*w - alpha) never exceeds the derived quadratic at x
    when the denominators of x and y0 are coprime to S."""
    fld, s, y0, alpha, x = case
    a2, a1, a0 = _piece_bound(fld, s, y0, alpha)
    assert a2 > 0
    assert s_norm(_line_point(fld, x, y0) - alpha, s) <= a2 * x * x + a1 * x + a0


def test_gap_line_rejects_alpha_outside_o_s():
    fld, s = make_field(10), SSet.of(2)
    cert = gap_line_certificate(10, 2)
    # a bound piece whose alpha has a denominator prime to S
    bad = replace(cert.pieces[0], alpha=KElement(0, 1, 3, fld))
    assert not verify_gap_line(fld, s, replace(cert, pieces=(bad,) + cert.pieces[1:]))
    # a point piece whose alpha is the line point itself (S-norm 0)
    fld15, s3 = make_field(15), SSet.of(3)
    cert15 = gap_line_certificate(15, 3)
    pieces = tuple(
        replace(pc, alpha=_line_point(fld15, pc.x, cert15.y0)) if isinstance(pc, PointPiece) else pc
        for pc in cert15.pieces
    )
    assert not verify_gap_line(fld15, s3, replace(cert15, pieces=pieces))


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


def test_certify_exceptional_dispatch():
    out = certify_exceptional(6, 2)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
    bundle = certify_exceptional(10, 2)
    assert isinstance(bundle, ExceptionalBundle)
    assert bundle.gap_rationals == (Fraction(1, 3), Fraction(2, 3))
    assert len(residual(make_field(10), SSet.of(2), bundle.k_max).gaps) == 2
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
    # any k_max whose residual gaps each hold one gap rational is a proof
    assert verify_exceptional_bundle(replace(bundle, k_max=27))
    # at k_max 1 one gap of (10, 2) holds both 1/3 and 2/3
    bundle10 = certify_exceptional(10, 2)
    assert len(residual(make_field(10), SSet.of(2), 1).gaps) == 1
    assert not verify_exceptional_bundle(replace(bundle10, k_max=1))


@pytest.mark.parametrize(
    "d, p, k_maxes",
    [(10, 2, [2**i for i in range(1, 8)]), (15, 3, [3**i for i in range(1, 5)]), (15, 5, [5, 25, 125])],
)
def test_built_in_bundles_pass_the_orbit_check(d, p, k_maxes):
    bundle = certify_exceptional(d, p)
    assert verify_exceptional_bundle(bundle)
    for k_max in k_maxes:
        assert verify_exceptional_bundle(replace(bundle, k_max=k_max)), k_max


def _surd_gaps(gaps):
    return {r: (SurdValue.rational(lo), SurdValue.rational(hi)) for r, (lo, hi) in gaps.items()}


def test_orbit_check_rejects_an_image_meeting_a_second_gap():
    third, two_thirds, eps = Fraction(1, 3), Fraction(2, 3), Fraction(1, 100)
    narrow = {third: (third - eps, third + eps), two_thirds: (two_thirds - eps, two_thirds + eps)}
    assert _orbit_keeps_gaps_apart(2, _surd_gaps(narrow))
    # the gap [5/24, 11/24] around 1/3 maps onto 2/3 + 2*(G - 1/3) =
    # [5/12, 11/12], which meets that gap again
    wide = {third: (Fraction(5, 24), Fraction(11, 24)), two_thirds: narrow[two_thirds]}
    assert not _orbit_keeps_gaps_apart(2, _surd_gaps(wide))
    # p = 3 and one gap around 1/2: [1/4, 3/4] maps onto [-1/4, 5/4], which
    # meets the gap shifted by -1 and by +1 (closed ends touch)
    half = Fraction(1, 2)
    assert _orbit_keeps_gaps_apart(3, _surd_gaps({half: (Fraction(3, 10), Fraction(7, 10))}))
    assert not _orbit_keeps_gaps_apart(3, _surd_gaps({half: (Fraction(1, 4), Fraction(3, 4))}))


def test_bundle_rejects_residual_gaps_whose_image_meets_another(monkeypatch):
    bundle = certify_exceptional(15, 3)
    for (lo, hi), accepted in (((Fraction(3, 10), Fraction(7, 10)), True), ((Fraction(1, 4), Fraction(3, 4)), False)):
        gaps = Residual(((SurdValue.rational(lo), SurdValue.rational(hi)),))
        monkeypatch.setattr(disks, "residual", lambda fld, s, k_max, gaps=gaps: gaps)
        assert verify_exceptional_bundle(bundle) is accepted
