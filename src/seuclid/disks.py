"""Geometric certificates for the exceptional cases.

Disk covers of the fundamental domain with radii 1/c or sqrt(p)/c
(radius boost under congruence conditions), verified by one exact scan
of per-column corner ranges at every subdivision level, plus the
gap-line verifier used for d = 10 and d = 15, which derives from each
alpha the quadratic bounding its S-norm distance along the line and
checks coverage end by end with integer sign tests (`surd_sign`),
never ordering two pieces' ends against each other.  The bundle check
derives its k_max and the gap rationals (the p-orbits of its lines' y0)
and follows y -> p*y across the residual gaps on their integer ends
(a + b*sqrt(3/D))/c, with `surd_sign` and an exact integer floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covering import End, Verdict, residual
from .exact import SSet, s_part_strip, surd_sign
from .field import KElement, QuadField, denom_s, make_field

__all__ = [
    "Disk",
    "DiskCertificate",
    "BoundPiece",
    "PointPiece",
    "GapLineCert",
    "ExceptionalBundle",
    "CertificationError",
    "EXCEPTIONAL_PAIRS",
    "MAX_REFINE",
    "MAX_BUNDLE_K_MAX",
    "boost_radius",
    "verify_disk_cert",
    "find_uncovered_cell",
    "verify_gap_line",
    "verify_exceptional_bundle",
    "certify_exceptional",
    "table_disk_certificate",
    "gap_line_certificate",
]

EXCEPTIONAL_PAIRS = {(10, 2), (15, 3), (15, 5), (35, 5), (35, 7)}


class CertificationError(Exception):
    """A built-in certificate failed verification (implementation bug or
    transcription error)."""


@dataclass(frozen=True)
class Disk:
    """Open disk |xi - center| < sqrt(r_squared) with an O_S center."""

    center: KElement
    r_squared: Fraction

    @property
    def boosted(self) -> bool:
        """Is the radius past 1/c, c the center's denominator?"""
        return self.r_squared * self.center.c**2 > 1


@dataclass(frozen=True)
class DiskCertificate:
    d: int
    s: SSet
    disks: tuple[Disk, ...]
    subdivision_depth: int


def boost_radius(fld: QuadField, s: SSet, alpha: KElement) -> Fraction:
    """Squared radius afforded to the disk at alpha: p/c^2 when the
    congruence conditions hold (p odd, p | d, half-integer basis,
    c = 0, b != 0, 2a+b = 0 mod p), else 1/c^2."""
    c = denom_s(alpha, s)
    if len(s) == 1:
        (p,) = s.primes
        if (
            p != 2
            and fld.half_basis
            and fld.d % p == 0
            and c % p == 0
            and alpha.b % p != 0
            and (2 * alpha.a + alpha.b) % p == 0
        ):
            return Fraction(p, c * c)
    return Fraction(1, c * c)


MAX_REFINE = 4  # four-way splits of a cell no disk holds before it fails


def _corner_range(fld: QuadField, disk: Disk, iu: int, n: int) -> tuple[int, int]:
    """The iv in 0..n whose corner (iu/n, iv/n) lies strictly inside the
    disk, as an inclusive range (lo, hi); lo > hi when there is none.

    With su = iu*c - a*n and tv = iv*c - b*n the corner is inside iff
    A*tv^2 + B*tv + C < 0 (A = e*r_den, B = h*su*r_den, C = su^2*r_den -
    r_num*n^2*c^2).  Times 4*A > 0, that is x^2 < disc = B^2 - 4*A*C for
    the integer x = a2*tv + b1 (a2 = 2*A, b1 = B), so |x| <= isqrt(disc - 1).
    """
    a, b, c = disk.center.a, disk.center.b, disk.center.c
    h, e = fld.h, fld.e
    rn, rd = disk.r_squared.numerator, disk.r_squared.denominator
    su = iu * c - a * n
    a2, b1 = 2 * e * rd, h * su * rd
    disc = b1 * b1 - 2 * a2 * (su * su * rd - rn * n * n * c * c)
    if disc <= 0:
        return 1, 0
    root = math.isqrt(disc - 1)
    # |x| <= root, with x = step*iv - off
    step, off = a2 * c, a2 * b * n - b1
    return max(-((root - off) // step), 0), min((root + off) // step, n)


def _outside_cells(fld: QuadField, disks: tuple[Disk, ...], n: int, iu0: int, iv0: int, width: int):
    """The cells (iu, iv) of the n-grid window iu0 <= iu < iu0 + width,
    iv0 <= iv < iv0 + width that no single disk holds, in (iu, iv) order.

    A cell lies inside a convex disk exactly when its four corners do:
    when iv and iv + 1 are in the disk's corner ranges (_corner_range)
    of both columns iu and iu + 1.  Each column walks these cell ranges
    in increasing iv and yields the cells outside all of them.
    """
    end = iv0 + width
    right = [_corner_range(fld, disk, iu0, n) for disk in disks]
    for iu in range(iu0, iu0 + width):
        left, right = right, [_corner_range(fld, disk, iu + 1, n) for disk in disks]
        spans = sorted(
            (max(l_lo, r_lo), min(l_hi, r_hi) - 1)
            for (l_lo, l_hi), (r_lo, r_hi) in zip(left, right)
        )
        nxt = iv0  # the cells below nxt in this column are held
        for lo, hi in spans + [(end, end)]:
            if lo > hi:
                continue
            for iv in range(nxt, min(lo, end)):
                yield iu, iv
            nxt = max(nxt, hi + 1)


def _holds(fld: QuadField, disks: tuple[Disk, ...], iu: int, iv: int, n: int, depth: int) -> bool:
    """Is cell (iu, iv) of the n-grid, which no single disk holds,
    covered after up to depth four-way splits?  Its sub-cells on the
    2n-grid that a disk holds are; each other one must hold in turn."""
    return depth > 0 and all(
        _holds(fld, disks, iu2, iv2, 2 * n, depth - 1)
        for iu2, iv2 in _outside_cells(fld, disks, 2 * n, 2 * iu, 2 * iv, 2)
    )


def find_uncovered_cell(cert: DiskCertificate) -> tuple[int, int, int] | None:
    """First subdivision cell not strictly inside any disk, as
    (iu, iv, den) with the cell spanning [iu/den, (iu+1)/den] in each
    basis coordinate; None when the disks cover F.

    _outside_cells scans the whole n-grid column by column, and each cell
    it yields is refined through 2 x 2 windows of the next grids, at most
    MAX_REFINE levels deep (_holds).  The first cell that does not hold
    is the first uncovered one in (iu, iv) order.
    """
    n = cert.subdivision_depth
    if n < 1:
        raise ValueError("subdivision_depth must be positive")
    fld, disks = make_field(cert.d), cert.disks
    for iu, iv in _outside_cells(fld, disks, n, 0, 0, n):
        if not _holds(fld, disks, iu, iv, n, MAX_REFINE):
            return iu, iv, n
    return None


def verify_disk_cert(cert: DiskCertificate) -> bool:
    """True iff every subdivision cell of F lies strictly inside one of
    the disks (splitting failing cells up to MAX_REFINE times)."""
    return find_uncovered_cell(cert) is None


@dataclass(frozen=True)
class BoundPiece:
    """One alpha for the points xi = x + y0*w of the gap line that it
    is near enough to; the checker derives which x those are, the span
    where its bound on their S-norm distance to alpha is below 1 (see
    verify_gap_line)."""

    alpha: KElement


@dataclass(frozen=True)
class PointPiece:
    """An explicit alpha for a single point x on the gap line, checked by
    exact S-norm evaluation."""

    x: Fraction
    alpha: KElement


@dataclass(frozen=True)
class GapLineCert:
    """Certificate that every K-point on the horizontal line y = y0 of F
    admits an alpha with S-norm distance below 1.

    Its pieces speak for the points whose x has a denominator coprime to
    S (the bundle's p-orbit check moves the others onto such points);
    verify_gap_line derives each BoundPiece's bound from
    (field, S, y0, alpha), and its span's ends may lie in any radicand.
    """

    y0: Fraction
    pieces: tuple[BoundPiece | PointPiece, ...]


def _line_form(fld: QuadField, y0: Fraction, alpha: KElement) -> tuple[int, int, int]:
    """(F2, F1, F0) with N(x + y0*w - alpha) = (F2*r^2 + F1*r*t + F0*t^2)/(v*c*t)^2
    at x = r/t, for y0 = u/v and alpha = (a + b*w)/c: the norm form at
    (v*(c*r - a*t), beta*t), beta = c*u - b*v."""
    a, b, c, v = alpha.a, alpha.b, alpha.c, y0.denominator
    beta = c * y0.numerator - b * v
    return v * v * c * c, v * c * (fld.h * beta - 2 * v * a), v * v * a * a - fld.h * v * a * beta + fld.e * beta * beta


def _bound_quadratic(fld: QuadField, s: SSet, y0: Fraction, alpha: KElement) -> tuple[int, int, int]:
    """A bound piece's integer quadratic (A, B, C), A > 0 (see verify_gap_line)."""
    F2, F1, F0 = _line_form(fld, y0, alpha)
    g = math.gcd(F2, F1, F0)
    m = s_part_strip(g, s)
    return m * F2 // g, m * F1 // g, m * F0 // g - y0.denominator**2


def _point_holds(fld: QuadField, s: SSet, y0: Fraction, x: Fraction, alpha: KElement) -> bool:
    """Is N_S(x + y0*w - alpha) below 1?  (See verify_gap_line.)"""
    F2, F1, F0 = _line_form(fld, y0, alpha)
    r, t = x.numerator, x.denominator
    n = F2 * r * r + F1 * r * t + F0 * t * t
    return n == 0 or s_part_strip(n, s) < s_part_strip((y0.denominator * alpha.c * t) ** 2, s)


def verify_gap_line(fld: QuadField, s: SSet, cert: GapLineCert) -> bool:
    """Verify every piece, then check that the bound pieces' spans and
    the point pieces cover [0, 1].

    Every alpha must be an S-integer.  Both piece kinds read off one
    integral form: the norm at x = r/t is F(r, t)/(v*c*t)^2 (_line_form).
    A point piece needs F(r, t) = 0 or the S-free part of F(r, t) below
    that of (v*c*t)^2, the exact S-norm below 1.  A bound piece's
    quadratic is derived, not read: for t coprime to S the S-part of
    (v*c*t)^2 is exactly c^2 and that of F(r, t) at least g/m, g the
    content of F and m = s_part_strip(g, S), so N_S <= (m/g)*F(r, t)/(v*t)^2,
    below 1 where q(x) = A*x^2 + B*x + C < 0 for (A, B, C) = (m*F2/g,
    m*F1/g, m*F0/g - v^2).  (Points whose x has a factor from S in its
    denominator are left to the bundle's p-orbit check.)  The piece
    covers its span, between the roots (-B -/+ sqrt(disc))/(2*A) of q,
    disc = B^2 - 4*A*C.  A piece with disc <= 0 has no span and fails; a
    piece whose (A, B, C) equals an earlier one's has its span, and is
    skipped after its S-integer check.

    The ends are 0, 1 and every root.  [0, 1] is covered iff each end x
    in [0, 1] is, and so is each side of x inside [0, 1]: for y in
    [0, 1] no end, let e < y be the largest end; a span covering e's
    right side starts at or below e and ends at an end above e, so past
    y, and holds y.  A piece covers x when q(x) < 0, and when q(x) = 0
    the side where q falls.  With x = (u + v*sqrt(m))/w,
    w > 0 and v = m = 0 for rational x, w^2*q(x) = A*(u^2 + m) + B*u*w
    + C*w^2 + v*(2*A*u + B*w)*sqrt(m) and w*q'(x) = 2*A*u + B*w +
    2*A*v*sqrt(m).  So every test is one `surd_sign` in x's own radicand,
    and no two pieces' ends are ever ordered against each other.
    """
    if s_part_strip(cert.y0.denominator, s) != cert.y0.denominator:
        return False  # y0 denominator must be coprime to S
    points, quads, ends = set(), [], [(0, 0, 0, 1), (1, 0, 0, 1)]
    for piece in cert.pieces:
        if s_part_strip(piece.alpha.c, s) != 1:
            return False  # alpha must be an S-integer
        if isinstance(piece, PointPiece):
            if not _point_holds(fld, s, cert.y0, piece.x, piece.alpha):
                return False
            points.add(piece.x)
            continue
        quad = _bound_quadratic(fld, s, cert.y0, piece.alpha)
        if quad in quads:
            continue  # an equal quadratic has the same span
        A, B, C = quad
        disc = B * B - 4 * A * C
        if disc <= 0:
            return False  # the bound is nowhere below 1
        r = math.isqrt(disc)
        quads.append(quad)
        ends += [(-B + v * r, 0, 0, 2 * A) if r * r == disc else (-B, v, disc, 2 * A) for v in (-1, 1)]
    for u, v, m, w in ends:
        above, below = surd_sign(u, v, m), surd_sign(w - u, -v, m)  # the signs of x and 1 - x
        if above < 0 or below < 0:
            continue
        # x, its left side and its right side: covered, or not in [0, 1]
        here, left, right = v == 0 and Fraction(u, w) in points, above == 0, below == 0
        for A, B, C in quads:
            t = 2 * A * u + B * w
            value = surd_sign(A * (u * u + m) + B * u * w + C * w * w, v * t, m)
            if value < 0:
                break
            if value == 0:
                falls = surd_sign(t, 2 * A * v, m) < 0
                right, left = right or falls, left or not falls
        else:
            if not (here and left and right):
                return False
    return True


# --- built-in certificates -------------------------------------------------

# d = 35: centers (a, b, c) by radius class; the boosted rows satisfy the
# congruence conditions and get squared radius p/c^2
_TABLE_35_5 = {
    "unit": [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    "plain": [(1, 2, 5), (2, 2, 5), (3, 3, 5), (4, 3, 5)],
    "boosted": [(2, 1, 5), (-1, 2, 5), (6, 3, 5), (3, 4, 5), (4, 2, 5), (1, 3, 5)],
}
_TABLE_35_7 = {
    "unit": [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    "plain": [
        (3, 2, 7),
        (5, 3, 7),
        (6, 3, 7),
        (7, 3, 7),
        (0, 4, 7),
        (1, 4, 7),
        (2, 4, 7),
        (5, 5, 7),
    ],
    "boosted": [
        (3, 1, 7),
        (-1, 2, 7),
        (6, 2, 7),
        (2, 3, 7),
        (5, 4, 7),
        (1, 5, 7),
        (8, 5, 7),
        (4, 6, 7),
    ],
}


def table_disk_centers(p: int) -> dict[str, list[tuple[int, int, int]]]:
    if p == 5:
        return _TABLE_35_5
    if p == 7:
        return _TABLE_35_7
    raise ValueError(f"no built-in disk table for p = {p}")


def table_disk_certificate(p: int, subdivision_depth: int = 125) -> DiskCertificate:
    """The built-in 14-disk (p=5) or 20-disk (p=7) cover of F for d = 35."""
    fld = make_field(35)
    s = SSet.of(p)
    disks = []
    for rows in table_disk_centers(p).values():
        for a, b, c in rows:
            alpha = KElement(a, b, c, fld)
            disks.append(Disk(center=alpha, r_squared=boost_radius(fld, s, alpha)))
    return DiskCertificate(d=35, s=s, disks=tuple(disks), subdivision_depth=subdivision_depth)


def gap_line_certificate(d: int, p: int) -> GapLineCert:
    """The built-in gap-line certificate for (10, 2) or (15, 3)/(15, 5)."""
    fld = make_field(d)
    half = Fraction(1, 2)
    if (d, p) == (10, 2):
        # line y = 1/3; for x = r/s with s odd the S-norms are exactly
        # 2x^2+5/9 (alpha=w/2), 2(1-x)^2+5/9 (alpha=(2+w)/2) and
        # 8(x-1/2)^2+5/9 (alpha=(2+w)/4), and 9*(bound - 1) is the
        # quadratic _bound_quadratic derives; they are below 1 on
        # |x| < sqrt(2)/3, |x - 1| < sqrt(2)/3 and |x - 1/2| < sqrt(2)/6
        return GapLineCert(
            y0=Fraction(1, 3),
            pieces=tuple(BoundPiece(KElement(a, 1, c, fld)) for a, c in ((0, 2), (2, 2), (2, 4))),
        )
    if d == 15 and p in (3, 5):
        # line y = 1/2; N(x + w/2 - w) = (x-1/4)^2 + 15/16 and
        # N(x + w/2 - 1) = (x-3/4)^2 + 15/16, below 1 on (0, 1/2) and
        # (1/2, 1); the three line points with bound exactly 1 get
        # explicit alphas with S-norm 1/2
        point_alphas = {3: (1, 0, 2), 5: (-1, 2, 0)}[p]
        a_at_0, a_at_half, a_at_1 = point_alphas
        return GapLineCert(
            y0=half,
            pieces=(
                BoundPiece(KElement(0, 1, 1, fld)),
                BoundPiece(KElement(1, 0, 1, fld)),
                PointPiece(x=Fraction(0), alpha=fld.element(a_at_0)),
                PointPiece(x=half, alpha=fld.element(a_at_half)),
                PointPiece(x=Fraction(1), alpha=fld.element(a_at_1)),
            ),
        )
    raise ValueError(f"no built-in gap-line certificate for ({d}, {p})")


@dataclass(frozen=True)
class ExceptionalBundle:
    """Gap-line certificates for the cases where the interval family
    misses [0, 1] by finitely many points.

    A bundle is its gap lines.  At a k_max the checker recomputes the
    residual gaps of the intervals with S-smooth k <= k_max and derives
    the gap rationals as the orbits of the lines' y0 under y -> p*y mod 1;
    each gap must hold exactly one of them, so there are no more of them
    than gaps.  Scaling by p preserves the S-norm condition, so a point
    on the line y is settled once its image on the line p*y mod 1 is.

    The orbits are all of the gap rationals: the denominator v of each
    y0 is prime to p (verify_gap_line), so y -> p*y mod 1 permutes the
    fractions u/v in [0, 1), and the orbit of y0 is a cycle that comes
    back to y0, a line with a certificate.  Any other point of a gap G
    around r lies at r + delta, delta != 0, and maps to r' + p*delta,
    r' = p*r mod 1.  The image of G meets no gap but the one around r'
    (_orbit_keeps_gaps_apart), so each step either leaves every gap or
    lands in the gap around r' at p times the distance from its
    rational.  The gaps are bounded, so after finitely many steps the
    point lies in no gap, on a line the intervals cover.

    This uses only that the intervals cover each point outside the gaps,
    true at any k_max, so the first k_max = 1, p, p^2, ... (the S-smooth
    k) up to MAX_BUNDLE_K_MAX whose gaps the orbits settle proves the
    bundle; the built-ins settle at 2, 1 and 1.
    """

    d: int
    p: int
    gap_lines: tuple[GapLineCert, ...]


def _side(D: int, y: Fraction, end: End) -> int:
    """The sign of y - (a + b*sqrt(3/D))/c for end = (a, b, c): with
    y = u/v, times c*v*D > 0 that is D*(u*c - a*v) - b*v*sqrt(3*D)."""
    a, b, c = end
    u, v = y.numerator, y.denominator
    return surd_sign(D * (u * c - a * v), -b * v, 3 * D)


def _floor(P: int, Q: int, M: int, D: int) -> int:
    """floor((P + Q*sqrt(3/D))/M) for M >= 1.  That is x/(M*D) with
    x = P*D + Q*sqrt(3*D), and s = isqrt(3*D*Q^2) <= |Q|*sqrt(3*D) < s + 1,
    with equality only when 3*D*Q^2 is a square.  So x lies strictly
    between two consecutive integers, P*D + s and one above for Q > 0,
    P*D - s - 1 and one above for Q < 0, or is P*D + s*sign(Q); and no
    multiple of M*D lies strictly between two consecutive integers."""
    t = 3 * D * Q * Q
    s = math.isqrt(t)
    if Q < 0:
        s = -s - (s * s != t)
    return (P * D + s) // (M * D)


def _orbit_keeps_gaps_apart(D: int, p: int, around: dict[Fraction, tuple[End, End]]) -> bool:
    """For each residual gap G around its rational r, with r' = p*r mod 1
    and G' the gap around r': the image r' + p*(G - r) of G under
    y -> p*y meets no gap H + n, for integers n, other than G' itself
    (n = 0).  So the orbit argument may follow each missed line from G
    to G' alone.

    The gaps' ends share D.  With t = floor(p*r) the image is p*G - t,
    and [p*lo - t, p*hi - t] + n meets [h_lo, h_hi] exactly for
    t - floor(p*hi - h_lo) <= n <= t + floor(h_hi - p*lo).  For ends
    (a, b, c) and (e, f, g), p*(a + b*q)/c - (e + f*q)/g is
    ((p*a*g - e*c) + (p*b*g - f*c)*q)/(c*g) with q = sqrt(3/D), so each
    bound is one exact `_floor`.
    """
    for r, ((a0, b0, c0), (a1, b1, c1)) in around.items():
        t = p * r.numerator // r.denominator
        r2 = p * r - t
        for h, ((e0, f0, g0), (e1, f1, g1)) in around.items():
            first = t - _floor(p * a1 * g0 - e0 * c1, p * b1 * g0 - f0 * c1, c1 * g0, D)
            last = t + _floor(e1 * c0 - p * a0 * g1, f1 * c0 - p * b0 * g1, c0 * g1, D)
            for n in range(first, last + 1):
                if (h, n) != (r2, 0):
                    return False
    return True


def _orbits(p: int, ys: list[Fraction], most: int) -> set[Fraction] | None:
    """The orbits of ys under y -> p*y mod 1, each followed until it
    closes; None once they hold more than `most` rationals, so a long
    orbit costs at most most + 1 steps."""
    seen = set()
    for y in ys:
        while y not in seen:
            seen.add(y)
            if len(seen) > most:
                return None
            y = p * y % 1
    return seen


MAX_BUNDLE_K_MAX = 4096  # the bundle check's last k_max: 13 residuals for p = 2


def _orbits_settle(fld: QuadField, p: int, ys: list[Fraction], k_max: int) -> bool:
    """Is there one orbit rational of ys in each gap at k_max, and does the orbit check pass?"""
    gaps = residual(fld, SSet.of(p), k_max).gaps
    rationals = _orbits(p, ys, len(gaps))
    if rationals is None:
        return False
    # each residual gap contains exactly one of them; the gaps are
    # disjoint, so with no more rationals than gaps each lies in one
    around = {}
    for lo, hi in gaps:
        inside = [y for y in rationals if _side(fld.D, y, lo) >= 0 >= _side(fld.D, y, hi)]
        if len(inside) != 1:
            return False
        around[inside[0]] = (lo, hi)
    return _orbit_keeps_gaps_apart(fld.D, p, around)


def verify_exceptional_bundle(bundle: ExceptionalBundle) -> bool:
    """Every gap line, which does not depend on k_max, then k_max = 1, p,
    p^2, ... up to the first that settles (see ExceptionalBundle)."""
    fld = make_field(bundle.d)
    if not all(verify_gap_line(fld, SSet.of(bundle.p), cert) for cert in bundle.gap_lines):
        return False
    ys = [line.y0 for line in bundle.gap_lines]
    powers = (bundle.p**i for i in range(MAX_BUNDLE_K_MAX.bit_length()))  # p >= 2: all of them up to the cap
    return any(_orbits_settle(fld, bundle.p, ys, k_max) for k_max in powers if k_max <= MAX_BUNDLE_K_MAX)


def certify_exceptional(d: int, p: int) -> DiskCertificate | ExceptionalBundle | Verdict:
    """Dispatch the five exceptional (d, p) pairs to their built-in
    certificates and verify them; anything else gets an "unknown"
    Verdict."""
    if (d, p) not in EXCEPTIONAL_PAIRS:
        return Verdict("unknown", None, f"({d}, {p}) is not an exceptional pair")
    if d == 35:
        cert = table_disk_certificate(p)
        if not verify_disk_cert(cert):
            raise CertificationError(f"disk table for (35, {p}) failed verification")
        return cert
    bundle = ExceptionalBundle(d=d, p=p, gap_lines=(gap_line_certificate(d, p),))
    if not verify_exceptional_bundle(bundle):
        raise CertificationError(f"exceptional bundle for ({d}, {p}) failed verification")
    return bundle
