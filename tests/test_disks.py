"""Disk-cover verification and gap-line certificate tests."""
import functools
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seuclid import disks
from seuclid.covering import (
    Residual,
    Verdict,
    certify_euclidean,
    covers_unit,
    intervals,
    replay_chain,
    residual,
    theorem2_bound,
)
from seuclid.disks import (
    MAX_REFINE,
    BoundPiece,
    Disk,
    DiskCertificate,
    ExceptionalBundle,
    GapLineCert,
    PointPiece,
    _corner_inside,
    _corner_range,
    _outside_cells,
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
from seuclid.exact import SSet, SurdValue, primes_below, s_part_strip, squarefree, surd_sign
from surd_reference import MIXED_COVER, _mp_gap_line, _piece_span, _sweep_gap_line

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
        Disk(center=KElement(a, b, 1, F35), r_squared=Fraction(1))
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


# the brute-force reference, corner by corner through _corner_inside


def _cell_inside(fld, disk, iu, iv, den):
    return all(_corner_inside(fld, disk, iu + du, iv + dv, den) for du in (0, 1) for dv in (0, 1))


def _cell_covered(fld, cert_disks, iu, iv, den, depth, tally):
    """Is the cell inside one disk, or (splitting it four ways up to
    depth times) is every piece?  Each call appends den to tally."""
    tally.append(den)
    if any(_cell_inside(fld, disk, iu, iv, den) for disk in cert_disks):
        return True
    return depth > 0 and all(
        _cell_covered(fld, cert_disks, 2 * iu + du, 2 * iv + dv, 2 * den, depth - 1, tally)
        for du in (0, 1)
        for dv in (0, 1)
    )


def _first_uncovered_by_brute_force(cert, tally=None):
    """The first cell in (iu, iv) order that is not covered; tally counts
    the _cell_covered calls on the cells no single disk holds."""
    tally = [] if tally is None else tally
    n = cert.subdivision_depth
    fld = make_field(cert.d)
    return next(
        (
            (iu, iv, n)
            for iu in range(n)
            for iv in range(n)
            if not any(_cell_inside(fld, disk, iu, iv, n) for disk in cert.disks)
            and not _cell_covered(fld, cert.disks, iu, iv, n, MAX_REFINE, tally)
        ),
        None,
    )


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
    cert = _damaged(p, drop, depth=30)
    first = _first_uncovered_by_brute_force(cert)
    assert first is not None
    assert find_uncovered_cell(cert) == first


# the table covers at depths where refinement goes several levels deep:
# the reference calls _cell_covered `split` times, and _holds is asked
# about `refined` cells, the finest on the grid `finest`
@pytest.mark.parametrize("p, depth, cell, split, refined, finest", [
    (7, 10, (2, 3, 10), 85, 23, 160),
    (5, 10, None, 292, 68, 40),
    (5, 40, None, 100, 20, 40),
    (7, 40, None, 280, 62, 320),
])
def test_table_refinement_pinned(monkeypatch, p, depth, cell, split, refined, finest):
    cert = table_disk_certificate(p, depth)
    grids = []
    holds = disks._holds

    def counted(fld, cert_disks, iu, iv, n, levels):
        grids.append(n)
        return holds(fld, cert_disks, iu, iv, n, levels)

    monkeypatch.setattr(disks, "_holds", counted)
    assert find_uncovered_cell(cert) == cell
    assert (len(grids), max(grids)) == (refined, finest)
    tally = []
    assert _first_uncovered_by_brute_force(cert, tally) == cell
    assert len(tally) == split


# fields with the half basis w = (1 + sqrt(-d))/2 and with w = sqrt(-d)
PROPERTY_FIELDS = [3, 7, 11, 15, 35, 43, 91, 1, 2, 5, 6, 10, 13]


@st.composite
def _disk_certs(draw):
    fld = make_field(draw(st.sampled_from(PROPERTY_FIELDS)))
    disks = []
    if draw(st.booleans()):
        # unit disks at the corners of F leave holes for the others to fill
        disks += [
            Disk(center=KElement(a, b, 1, fld), r_squared=Fraction(1)) for a in (0, 1) for b in (0, 1)
        ]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        c = draw(st.integers(min_value=1, max_value=8))
        # centers up to three units outside F; small radii there miss F
        coord = st.integers(min_value=-3 * c, max_value=4 * c)
        center = KElement(draw(coord), draw(coord), c, fld)
        r_squared = Fraction(draw(st.integers(min_value=0, max_value=40)), draw(st.integers(min_value=1, max_value=80)))
        disks.append(Disk(center=center, r_squared=r_squared))
    depth = draw(st.integers(min_value=1, max_value=30))
    return DiskCertificate(d=fld.d, s=SSet.of(2), disks=tuple(draw(st.permutations(disks))), subdivision_depth=depth)


@settings(max_examples=300, deadline=None)
@given(_disk_certs())
def test_column_ranges_find_the_brute_force_cell(cert):
    assert find_uncovered_cell(cert) == _first_uncovered_by_brute_force(cert)


@settings(max_examples=300, deadline=None)
@given(_disk_certs(), st.data())
def test_corner_range_is_the_corners_inside(cert, data):
    fld = make_field(cert.d)
    # the scan's grid or one of the refined grids n*2^r
    n = cert.subdivision_depth << data.draw(st.integers(min_value=0, max_value=MAX_REFINE))
    iu = data.draw(st.integers(min_value=0, max_value=n))
    for disk in cert.disks:
        lo, hi = _corner_range(fld, disk, iu, n)
        assert list(range(lo, hi + 1)) == [iv for iv in range(n + 1) if _corner_inside(fld, disk, iu, iv, n)]


@settings(max_examples=300, deadline=None)
@given(_disk_certs(), st.data())
def test_outside_cells_of_a_window(cert, data):
    fld, n = make_field(cert.d), cert.subdivision_depth
    width = data.draw(st.integers(min_value=1, max_value=n))
    iu0 = data.draw(st.integers(min_value=0, max_value=n - width))
    iv0 = data.draw(st.integers(min_value=0, max_value=n - width))
    assert list(_outside_cells(fld, cert.disks, n, iu0, iv0, width)) == [
        (iu, iv)
        for iu in range(iu0, iu0 + width)
        for iv in range(iv0, iv0 + width)
        if not any(_cell_inside(fld, disk, iu, iv, n) for disk in cert.disks)
    ]


def test_verify_monotone_in_disks():
    cert = table_disk_certificate(5, subdivision_depth=40)
    extra = Disk(center=KElement(0, 0, 1, F35), r_squared=Fraction(1, 4))
    bigger = DiskCertificate(
        d=35, s=S5, disks=cert.disks + (extra,), subdivision_depth=40
    )
    assert verify_disk_cert(cert)
    assert verify_disk_cert(bigger)


def test_corner_soundness():
    """Random points inside a corner-verified cell are inside the disk."""
    rng = random.Random(7)
    disk = Disk(center=KElement(2, 1, 5, F35), r_squared=Fraction(1, 5))
    n = 50
    fld = F35
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
    n = 40
    for disk in table_disk_certificate(7).disks[4:8]:
        outside = set(_outside_cells(F35, (disk,), n, 0, 0, n))
        seen = set()
        for iu in range(n):
            for iv in range(n):
                corners = [_corner_inside(F35, disk, iu + du, iv + dv, n) for du in (0, 1) for dv in (0, 1)]
                assert ((iu, iv) in outside) == (not all(corners))
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


def test_gap_line_rejects_spans_that_only_touch_a_gap():
    # on y0 = 1/2 of d = 15, w covers (0, 1/2) and 1 + w covers (1, 3/2):
    # with the point pieces at 0, 1/2 and 1 each end is covered, but the
    # span ending at 1/2 covers only its left side, so (1/2, 1) is open
    fld, s, cert = make_field(15), SSet.of(3), gap_line_certificate(15, 3)
    touching = BoundPiece(KElement(1, 1, 1, fld))
    assert _piece_span(fld, s, cert.y0, touching.alpha) == (1, Fraction(3, 2))
    pieces = (cert.pieces[0], touching) + cert.pieces[2:]
    assert not verify_gap_line(fld, s, replace(cert, pieces=pieces))
    assert verify_gap_line(fld, s, replace(cert, pieces=cert.pieces + (touching,)))


def test_gap_line_ignores_pieces_beyond_one():
    # alpha = (4 + w)/2 covers |x - 2| < sqrt(2)/3, past the end of [0, 1]
    fld = make_field(10)
    cert = gap_line_certificate(10, 2)
    beyond = BoundPiece(KElement(4, 1, 2, fld))
    assert _piece_span(fld, SSet.of(2), cert.y0, beyond.alpha)[0] > 1
    assert verify_gap_line(fld, SSet.of(2), replace(cert, pieces=cert.pieces + (beyond,)))


@functools.cache
def _mixed_line():
    """A line of d = 10, S = {2} at y0 = 1/5 whose span ends lie in
    sqrt(10) and sqrt(15): every S-integer alpha = (a + b*w)/c with
    c in {1, 2, 4, 8}, -c - 1 <= a <= 2c + 1 and |b| <= 3c whose span
    meets [0, 1]: the pieces of MIXED_COVER."""
    fld, s, y0 = make_field(10), SSet.of(2), Fraction(1, 5)
    alphas = {
        KElement(a, b, c, fld)
        for c in (1, 2, 4, 8) for a in range(-c - 1, 2 * c + 2) for b in range(-3 * c, 3 * c + 1)
    }
    spans = {alpha: _piece_span(fld, s, y0, alpha) for alpha in alphas}
    pieces = sorted(
        (BoundPiece(alpha) for alpha, span in spans.items() if span and span[1] > 0 and span[0] < 1),
        key=lambda piece: (piece.alpha.c, piece.alpha.a, piece.alpha.b),
    )
    return fld, s, GapLineCert(y0=y0, pieces=tuple(pieces))


def test_mixed_radicand_line_verifies():
    fld, s, cert = _mixed_line()
    assert [(pc.alpha.a, pc.alpha.b, pc.alpha.c) for pc in cert.pieces] == MIXED_COVER
    radicands = {x.m for piece in cert.pieces for x in _piece_span(fld, s, cert.y0, piece.alpha)}
    assert {min(m // (f * f) for f in range(1, 40) if m % (f * f) == 0) for m in radicands} == {10, 15}
    assert _sweep_gap_line(fld, s, cert) is None  # the surd sweep cannot order these ends
    assert _mp_gap_line(fld, s, cert) is True
    assert verify_gap_line(fld, s, cert)
    # without w/4 and (4 + w)/4 the line still covers, and then the ends
    # near 0 and 1 rest on alpha = 0 and 1, whose span ends lie in sqrt(15)
    both = replace(cert, pieces=cert.pieces[:2] + cert.pieces[3:6])
    assert verify_gap_line(fld, s, both) and _mp_gap_line(fld, s, both)
    for i in (0, 1):
        without = replace(both, pieces=both.pieces[:i] + both.pieces[i + 1:])
        assert not verify_gap_line(fld, s, without) and not _mp_gap_line(fld, s, without)


def test_long_gap_line_verifies_fast():
    # the two outer (10, 2) pieces repeated to 255, and the middle piece,
    # which completes the cover, last: 514 ends against 256 pieces
    fld, s, cert = make_field(10), SSet.of(2), gap_line_certificate(10, 2)
    pieces = (cert.pieces[:2] * 128)[:255] + cert.pieces[2:]
    assert len(pieces) == 256
    start = time.perf_counter()
    assert verify_gap_line(fld, s, replace(cert, pieces=pieces))
    assert time.perf_counter() - start < 1.0
    assert not verify_gap_line(fld, s, replace(cert, pieces=pieces[:-1]))


def test_repeated_pieces_add_no_sign_tests(monkeypatch):
    """The 256-piece line above has 3 distinct quadratics, so it costs no
    more sign tests than the 3-piece line."""
    fld, s, cert = make_field(10), SSet.of(2), gap_line_certificate(10, 2)
    pieces = (cert.pieces[:2] * 128)[:255] + cert.pieces[2:]
    calls = []

    def counting(*args):
        calls.append(args)
        return surd_sign(*args)

    monkeypatch.setattr(disks, "surd_sign", counting)
    assert verify_gap_line(fld, s, cert)
    distinct = len(calls)
    calls.clear()
    assert verify_gap_line(fld, s, replace(cert, pieces=pieces))
    assert 0 < len(calls) <= distinct


def _extra_alphas(fld, p):
    return st.builds(
        lambda e, a, b: KElement(a, b, p**e, fld),
        st.integers(min_value=0, max_value=3), st.integers(min_value=-30, max_value=60),
        st.integers(min_value=-30, max_value=30),
    )


@st.composite
def _edited_lines(draw):
    """A built-in gap line with each piece dropped, kept or doubled, a few
    extra bound pieces with c in {1, p, p^2, p^3}, in any order."""
    d, p = draw(st.sampled_from([(10, 2), (15, 3), (15, 5)]))
    fld, s, cert = make_field(d), SSet.of(p), gap_line_certificate(d, p)
    pieces = [pc for pc in cert.pieces for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    pieces += [BoundPiece(alpha) for alpha in draw(st.lists(_extra_alphas(fld, p), max_size=3))]
    return fld, s, replace(cert, pieces=tuple(draw(st.permutations(pieces))))


@settings(max_examples=400, deadline=None)
@given(_edited_lines())
def test_gap_line_matches_the_surd_sweep(case):
    """On lines whose span ends share one radicand up to a square, the
    end-by-end check agrees with the sort-and-sweep over surd spans."""
    fld, s, cert = case
    expected = _sweep_gap_line(fld, s, cert)
    assume(expected is not None)
    assert verify_gap_line(fld, s, cert) == expected


@st.composite
def _mixed_lines(draw):
    """The mixed-radicand line of d = 10 at y0 = 1/5 with pieces dropped,
    doubled and added, in any order."""
    fld, s, cert = _mixed_line()
    pieces = [pc for pc in cert.pieces for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2])))]
    pieces += [BoundPiece(alpha) for alpha in draw(st.lists(_extra_alphas(fld, 2), max_size=3))]
    return fld, s, replace(cert, pieces=tuple(draw(st.permutations(pieces))))


@settings(max_examples=300, deadline=None)
@given(_mixed_lines())
def test_mixed_radicand_gap_line_matches_mpmath(case):
    fld, s, cert = case
    assert verify_gap_line(fld, s, cert) == _mp_gap_line(fld, s, cert)


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
def test_piece_span_is_where_the_bound_is_below_one(case):
    """No span iff the bound's minimum is at least 1; else the bound is
    exactly 1 at both ends and below 1 at the midpoint."""
    fld, s, y0, alpha, _ = case
    a2, a1, a0 = _piece_bound(fld, s, y0, alpha)
    span = _piece_span(fld, s, y0, alpha)
    assert (span is None) == (a0 - a1 * a1 / (4 * a2) >= 1)
    if span is not None:
        lo, hi = span
        assert lo < hi
        for x in (lo, hi):
            assert x * x * a2 + x * a1 + a0 == 1
        mid = -a1 / (2 * a2)
        assert (lo + hi) * Fraction(1, 2) == mid and mid * mid * a2 + mid * a1 + a0 < 1


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
    fld = make_field(10)
    s = SSet.of(2)
    cert = gap_line_certificate(10, 2)
    assert not verify_gap_line(fld, s, replace(cert, pieces=()))
    # without the middle piece, (sqrt(2)/3, 1 - sqrt(2)/3) is uncovered
    assert not verify_gap_line(fld, s, replace(cert, pieces=cert.pieces[::2]))
    # alpha = (4 + w)/2 in place of w/2 leaves x = 0 uncovered
    moved = BoundPiece(KElement(4, 1, 2, fld))
    assert not verify_gap_line(fld, s, replace(cert, pieces=(moved,) + cert.pieces[1:]))
    # a piece whose bound is nowhere below 1 (the span of (1 + w)/2 is empty)
    empty = BoundPiece(KElement(1, 1, 2, fld))
    assert _piece_span(fld, s, cert.y0, empty.alpha) is None
    assert not verify_gap_line(fld, s, replace(cert, pieces=cert.pieces + (empty,)))
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


def _chain_disks(fld, s, chain):
    """The disks of a cover chain: link (j, k) stands for the radius-1/k
    disks at (i + j*w)/k, -1 <= i <= k + 1, whose rows hold the points of
    F with w-coordinate in I_j^k."""
    disks = tuple(Disk(KElement(i, j, k, fld), Fraction(1, k * k)) for j, k in chain for i in range(-1, k + 2))
    return DiskCertificate(d=fld.d, s=s, disks=disks, subdivision_depth=10)


def _theorem2_chain(d):
    fld = make_field(d)
    s = SSet.from_iterable(primes_below(theorem2_bound(fld)))
    return fld, s, list(certify_euclidean(fld, s).chain)


@pytest.mark.parametrize("d", [d for d in range(1, 31) if squarefree(d)])
def test_cover_chain_disks_cover_the_domain(d):
    # the interval sweep and the disk-cell scan agree on a cover chain
    fld, s, chain = _theorem2_chain(d)
    assert find_uncovered_cell(_chain_disks(fld, s, chain)) is None


def _rejected_chains_leave_cells(fld, s, chain) -> int:
    """Check that each one-link-shorter chain that replay_chain rejects
    leaves a cell that no disk of its own holds; returns how many."""
    rejected = 0
    for i in range(len(chain)):
        short = chain[:i] + chain[i + 1:]
        if not replay_chain(fld.D, short):
            rejected += 1
            assert find_uncovered_cell(_chain_disks(fld, s, short)) is not None, (fld.d, chain[i])
    return rejected


@pytest.mark.parametrize("d", [5, 10, 13])
def test_rejected_chain_disks_leave_a_cell(d):
    assert _rejected_chains_leave_cells(*_theorem2_chain(d))


@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
def test_cover_chain_disks_agree_over_other_s(primes):
    """For each squarefree d <= 30 with a cover over S, the disks of the
    covers_unit chain of the S-smooth k <= 12 leave no cell, and each
    one-link-shorter chain that replay_chain rejects leaves one.  It
    rejects all of them: the chain is F_k0, and h/k with k <= k0 lies in
    no interval but I_h^k."""
    s = SSet.of(*primes)
    covers = 0
    for d in range(1, 31):
        if not squarefree(d):
            continue
        fld = make_field(d)
        cert = covers_unit(intervals(fld, s, 12), d=d, s=s)
        if isinstance(cert, Verdict):
            continue
        covers += 1
        chain = list(cert.chain)
        assert replay_chain(fld.D, chain)
        assert find_uncovered_cell(_chain_disks(fld, s, chain)) is None, d
        assert _rejected_chains_leave_cells(fld, s, chain) == len(chain)
    assert covers >= 10
