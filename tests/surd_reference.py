"""References for the covering, gap-line, bundle and disk properties.

`_sweep` is the exact sort-and-sweep over `SurdValue` ends that once
served both `residual` and `verify_gap_line`; `_piece_bound` is a bound
piece's quadratic as `Fraction`s and `_line_point` a point of the line
as a `KElement`, which `verify_gap_line` once used for bound and point
pieces before it read both off one integral form; `_piece_span` derives
a bound piece's span as `SurdValue`s.  The library now computes residual
gaps from the integer cover keys as integer ends (a, b, c) =
(a + b*sqrt(3/D))/c and checks gap lines end by end with `surd_sign`;
the properties compare both against these references (`surd_gaps` maps
ends to `SurdValue`s), and lines whose span ends mix radicands against a
60-digit mpmath sweep.  `MIXED_COVER` is such a line.  `_orbit_reference`
is the bundle's orbit check by its definition, and `_corner_inside` the
corner-by-corner reference for the disk scan's corner ranges.
"""
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath

from seuclid.disks import PointPiece
from seuclid.exact import SurdValue, s_part_strip, surd_cmp, surd_sign
from seuclid.field import KElement, s_norm

_ZERO, _ONE = SurdValue.rational(0), SurdValue.rational(1)

# the bound pieces alpha = (a + b*w)/c, as (a, b, c), of a line that
# covers y0 = 1/5 of d = 10 for S = {2}: the span ends of 0 and 1 lie in
# sqrt(15), those of w/4, ..., (4 + w)/4 in sqrt(10)
MIXED_COVER = [(0, 0, 1), (1, 0, 1), (0, 1, 4), (1, 1, 4), (2, 1, 4), (3, 1, 4), (4, 1, 4)]


class _Span(NamedTuple):
    """Part of [0, 1] that one item covers, as `_sweep` reads it."""

    lo: SurdValue
    hi: SurdValue
    lo_closed: bool
    hi_closed: bool


def _open(ivs):
    """Interval objects as open spans."""
    return [_Span(iv.lo, iv.hi, False, False) for iv in ivs]


def _sweep(items):
    """One left-to-right pass deciding which parts of [0, 1] the items
    cover.

    Items carry `SurdValue` ends `lo`, `hi` and flags `lo_closed`,
    `hi_closed`; `surd_cmp` orders the ends.  The covered prefix is
    [0, reach), plus the point reach when `covered`.  An item that meets
    the prefix extends it, in any order; one that does not opens a gap
    and starts a new prefix.  In order of left end (closed before open on
    ties) the gaps are exactly the maximal uncovered pieces of [0, 1],
    each a (start, end) pair whose endpoints belong to it unless an item
    covers them.  Returns the gaps.
    """
    gaps = []
    reach, covered = _ZERO, False
    for item in items:
        c = surd_cmp(item.lo, reach)
        if c > 0 or (c == 0 and not (covered or item.lo_closed)):
            if surd_cmp(item.lo, _ONE) > 0:
                break
            gaps.append((reach, item.lo))
        c = surd_cmp(item.hi, reach)
        if c > 0:
            reach, covered = item.hi, item.hi_closed
        elif c == 0 and item.hi_closed:
            covered = True
    c = surd_cmp(reach, _ONE)
    if c < 0 or (c == 0 and not covered):
        gaps.append((reach, _ONE))
    return gaps


def _line_point(fld, x, y0):
    """The point x + y0*w of K."""
    den = x.denominator * y0.denominator
    return KElement(x.numerator * y0.denominator, y0.numerator * x.denominator, den, fld)


def _piece_bound(fld, s, y0, alpha):
    """(a2, a1, a0) with N_S(x + y0*w - alpha) <= a2*x^2 + a1*x + a0 for
    every x whose denominator is coprime to S: m*N(x - x0 + tau*w) with
    x0 = a/c, tau = y0 - b/c and m = c^2*s_part_strip(g, S)/g, where g is
    the content of the integral norm form along the line."""
    a, b, c = alpha.a, alpha.b, alpha.c
    u, v = y0.numerator, y0.denominator
    h, e = fld.h, fld.e
    beta = c * u - b * v
    g = math.gcd(v * v * c * c, v * c * (h * beta - 2 * v * a), v * v * a * a - h * v * a * beta + e * beta * beta)
    m = Fraction(c * c * s_part_strip(g, s), g)
    x0, tau = Fraction(a, c), y0 - Fraction(b, c)
    # N(X + tau*w) = X^2 + h*tau*X + e*tau^2 at X = x - x0
    return m, m * (h * tau - 2 * x0), m * (x0 * x0 - h * tau * x0 + e * tau * tau)


def _piece_span(fld, s, y0, alpha):
    """The open interval of x where the derived bound a2*x^2 + a1*x + a0
    (_piece_bound) is below 1, between the roots (-a1 -/+ sqrt(disc))/(2*a2)
    of bound = 1, disc = a1^2 - 4*a2*(a0 - 1); None when disc <= 0, as
    the bound (a2 > 0) is then nowhere below 1."""
    a2, a1, a0 = _piece_bound(fld, s, y0, alpha)
    disc = a1 * a1 - 4 * a2 * (a0 - 1)
    if disc <= 0:
        return None
    # sqrt(disc) = sqrt(m)/e, and (-a1 -/+ sqrt(m)/e)/(2*a2) is
    # (P -/+ t*sqrt(m))/M times a1.denominator*a2.denominator
    e = disc.denominator
    m, t = disc.numerator * e, a1.denominator * a2.denominator
    P, M = -a1.numerator * e * a2.denominator, 2 * a2.numerator * e * a1.denominator
    return SurdValue(P=P, Q=-t, m=m, M=M), SurdValue(P=P, Q=t, m=m, M=M)


def _pieces_checked(fld, s, cert):
    """False when a piece fails on its own (y0 or alpha not S-integral, a
    point piece's S-norm not below 1); else True."""
    if s_part_strip(cert.y0.denominator, s) != cert.y0.denominator:
        return False
    for piece in cert.pieces:
        if s_part_strip(piece.alpha.c, s) != 1:
            return False
        if isinstance(piece, PointPiece) and s_norm(_line_point(fld, piece.x, cert.y0) - piece.alpha, s) >= 1:
            return False
    return True


def _sweep_gap_line(fld, s, cert):
    """The gap-line verdict by `_sweep` over the spans sorted by left
    end, closed before open on ties; None when two span ends do not share
    a radicand up to a square, so `surd_cmp` cannot order them."""
    if not cert.pieces or not _pieces_checked(fld, s, cert):
        return False
    spans = []
    for piece in cert.pieces:
        if isinstance(piece, PointPiece):
            x = SurdValue.rational(piece.x)
            spans.append(_Span(x, x, True, True))
            continue
        span = _piece_span(fld, s, cert.y0, piece.alpha)
        if span is None:
            return False
        spans.append(_Span(*span, False, False))
    radicands = {x.m for span in spans for x in (span.lo, span.hi)} - {0}
    m0 = min(radicands, default=0)
    if any(math.isqrt(m0 * m) ** 2 != m0 * m for m in radicands):
        return None
    order = sorted(spans, key=lambda span: (span.lo, not span.lo_closed))
    return not _sweep(order)


def _mp_gap_line(fld, s, cert, dps=60):
    """The gap-line verdict of bound pieces alone by a `dps`-digit mpmath
    sort-and-sweep: the open spans, in order of left end, must each start
    below the reach so far; ends within 10^-(dps - 20) count as equal."""
    assert not any(isinstance(piece, PointPiece) for piece in cert.pieces)
    if not cert.pieces or not _pieces_checked(fld, s, cert):
        return False
    with mpmath.workdps(dps):
        eps = mpmath.mpf(10) ** (20 - dps)
        spans = []
        for piece in cert.pieces:
            a2, a1, a0 = _piece_bound(fld, s, cert.y0, piece.alpha)
            disc = a1 * a1 - 4 * a2 * (a0 - 1)
            if disc <= 0:
                return False
            root = mpmath.sqrt(mpmath.mpf(disc.numerator) / disc.denominator)
            a2, a1 = (mpmath.mpf(q.numerator) / q.denominator for q in (a2, a1))
            spans.append(((-a1 - root) / (2 * a2), (root - a1) / (2 * a2)))
        reach = mpmath.mpf(0)
        for lo, hi in sorted(spans):
            if lo > reach - eps:
                return False  # reach, at most 1, lies in no span
            reach = max(reach, hi)
            if reach > 1 + eps:
                return True
        return False


def surd_gaps(res):
    """The gaps of a `Residual` with each integer end as a `SurdValue`."""
    return tuple(tuple(SurdValue.endpoint(*end, res.D) for end in gap) for gap in res.gaps)


def end_sign(x, y, D):
    """The sign of x + y*sqrt(3/D) for Fractions x and y, by `surd_sign`:
    times n*D, n the least common denominator, it is
    x*n*D + y*n*sqrt(3*D)."""
    n = math.lcm(x.denominator, y.denominator)
    return surd_sign(int(x * n * D), int(y * n), 3 * D)


def gap_length(gaps):
    """The exact total length of residual gaps, pairs of integer ends, as
    the pair (x, y) of Fractions with length x + y*sqrt(3/D)."""
    x = y = Fraction(0)
    for (a0, b0, c0), (a1, b1, c1) in gaps:
        x += Fraction(a1, c1) - Fraction(a0, c0)
        y += Fraction(b1, c1) - Fraction(b0, c0)
    return x, y


def _orbit_reference(D, p, around):
    """`_orbit_keeps_gaps_apart` by its definition, with no floor: the
    image r' + p*(G - r) of each gap G around r, r' = p*r mod 1, shifted
    by every n with |n| <= p + 1, against every gap H, by exact
    comparisons of ends held as x + y*sqrt(3/D) with Fractions x, y.
    Gaps inside [0, 1] have images inside [-p, p + 1], so no other n
    meets one."""
    def value(end):
        a, b, c = end
        return Fraction(a, c), Fraction(b, c)

    for r, (lo, hi) in around.items():
        r2 = p * r % 1
        (x0, y0), (x1, y1) = value(lo), value(hi)
        for h, (h_lo, h_hi) in around.items():
            (u0, v0), (u1, v1) = value(h_lo), value(h_hi)
            for n in range(-p - 1, p + 2):
                # the image shifted by n is [r2 + p*(lo - r) + n, r2 + p*(hi - r) + n]
                start, stop = r2 + p * (x0 - r) + n, r2 + p * (x1 - r) + n
                meets = end_sign(u1 - start, v1 - p * y0, D) >= 0 and end_sign(stop - u0, p * y1 - v0, D) >= 0
                if meets and (h, n) != (r2, 0):
                    return False
    return True


def _corner_inside(fld, disk, iu, iv, den):
    """Is the point (iu/den) + (iv/den)*w strictly inside the disk?
    Pure integer comparison of squared distances; the reference for
    `disks._corner_range`."""
    a, b, c = disk.center.a, disk.center.b, disk.center.c
    su = iu * c - a * den
    tv = iv * c - b * den
    q = su * (su + fld.h * tv) + fld.e * tv * tv
    m2 = den * den * c * c
    r = disk.r_squared
    return q * r.denominator < r.numerator * m2
