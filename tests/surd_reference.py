"""Surd references for the covering and gap-line properties.

`_sweep` is the exact sort-and-sweep over `SurdValue` ends that once
served both `residual` and `verify_gap_line`; `_piece_span` derives a
bound piece's span as `SurdValue`s.  The library now computes residual
gaps from the integer cover keys and checks gap lines end by end with
`surd_sign`; the properties compare both against these references, and
lines whose span ends mix radicands against a 60-digit mpmath sweep.
`MIXED_COVER` is such a line.
"""
import math
from typing import NamedTuple

import mpmath

from seuclid.disks import PointPiece, _line_point, _piece_bound
from seuclid.exact import SurdValue, s_part_strip, surd_cmp
from seuclid.field import s_norm

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


def _piece_span(fld, s, y0, alpha):
    """The open interval of x where the derived bound a2*x^2 + a1*x + a0
    (_piece_bound) is below 1, between the roots (-a1 -/+ sqrt(disc))/(2*a2)
    of bound = 1, disc = a1^2 - 4*a2*(a0 - 1); None when disc <= 0, as
    the bound (a2 > 0) is then nowhere below 1."""
    a2, a1, a0 = _piece_bound(fld, s, y0, alpha)
    disc = a1 * a1 - 4 * a2 * (a0 - 1)
    if disc <= 0:
        return None
    root = SurdValue(P=0, Q=1, m=disc.numerator * disc.denominator, M=disc.denominator)
    return (-a1 - root) * (1 / (2 * a2)), (root - a1) * (1 / (2 * a2))


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
