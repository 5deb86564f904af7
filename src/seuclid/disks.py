"""Geometric certificates for the exceptional cases.

Disk covers of the fundamental domain with radii 1/c or sqrt(p)/c
(radius boost under congruence conditions), verified by exact
parallelogram subdivision with adaptive refinement, plus the symbolic
gap-line verifier used for d = 10 and d = 15.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covering import Verdict, _sweep, residual
from .exact import SSet, SurdValue, s_part_strip
from .field import KElement, QuadField, denom_s, make_field, s_norm

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
    boosted: bool


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


def _corner_inside(fld: QuadField, disk: Disk, iu: int, iv: int, den: int) -> bool:
    """Is the point (iu/den) + (iv/den)*w strictly inside the disk?
    Pure integer comparison of squared distances."""
    a, b, c = disk.center.a, disk.center.b, disk.center.c
    su = iu * c - a * den
    tv = iv * c - b * den
    if fld.half_basis:
        q = su * su + su * tv + ((1 + fld.d) // 4) * tv * tv
    else:
        q = su * su + fld.d * tv * tv
    m2 = den * den * c * c
    r = disk.r_squared
    return q * r.denominator < r.numerator * m2


def _cell_inside(fld: QuadField, disk: Disk, iu: int, iv: int, den: int) -> bool:
    """Are all four corners of the cell [iu/den, (iu+1)/den] x
    [iv/den, (iv+1)/den] strictly inside the disk?  Squared distance is
    convex, so then the whole cell is."""
    return (
        _corner_inside(fld, disk, iu, iv, den)
        and _corner_inside(fld, disk, iu + 1, iv, den)
        and _corner_inside(fld, disk, iu, iv + 1, den)
        and _corner_inside(fld, disk, iu + 1, iv + 1, den)
    )


def _cell_covered(fld: QuadField, disks: tuple[Disk, ...], iu: int, iv: int, den: int, depth: int) -> bool:
    """Is the cell inside one disk, or (splitting it four ways up to
    depth times) is every piece?"""
    if any(_cell_inside(fld, disk, iu, iv, den) for disk in disks):
        return True
    if depth <= 0:
        return False
    iu2, iv2, den2 = 2 * iu, 2 * iv, 2 * den
    return all(
        _cell_covered(fld, disks, iu2 + du, iv2 + dv, den2, depth - 1)
        for du in (0, 1)
        for dv in (0, 1)
    )


MAX_REFINE = 4  # four-way splits of a cell no disk holds before it fails


def find_uncovered_cell(cert: DiskCertificate) -> tuple[int, int, int] | None:
    """First subdivision cell not strictly inside any disk, as
    (iu, iv, den) with the cell spanning [iu/den, (iu+1)/den] in each
    basis coordinate; None when the disks cover F."""
    n = cert.subdivision_depth
    if n < 1:
        raise ValueError("subdivision_depth must be positive")
    fld = cert.disks[0].center.field if cert.disks else make_field(cert.d)
    # the disk that held the last cell is tried first
    order = list(cert.disks)
    for iu in range(n):
        for iv in range(n):
            for i, disk in enumerate(order):
                if _cell_inside(fld, disk, iu, iv, n):
                    order.insert(0, order.pop(i))
                    break
            else:
                if not _cell_covered(fld, cert.disks, iu, iv, n, MAX_REFINE):
                    return (iu, iv, n)
    return None


def verify_disk_cert(cert: DiskCertificate) -> bool:
    """True iff every subdivision cell of F lies strictly inside one of
    the disks (splitting failing cells up to MAX_REFINE times)."""
    return find_uncovered_cell(cert) is None


@dataclass(frozen=True)
class BoundPiece:
    """One alpha for the points xi = x + y0*w on the gap line with x in
    the claimed interval; the checker derives the bound on their S-norm
    distance to alpha (see verify_gap_line)."""

    alpha: KElement
    lo: SurdValue
    hi: SurdValue
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class PointPiece:
    """An explicit alpha for a single point x on the gap line, checked by
    exact S-norm evaluation; it covers the closed degenerate interval
    [x, x]."""

    x: Fraction
    alpha: KElement

    lo_closed = True
    hi_closed = True

    @property
    def lo(self) -> SurdValue:
        return SurdValue.rational(self.x)

    hi = lo


@dataclass(frozen=True)
class GapLineCert:
    """Certificate that every K-point on the horizontal line y = y0 of F
    admits an alpha with S-norm distance below 1.

    Its pieces speak for the points whose x has a denominator coprime to
    S (the bundle's p-orbit check moves the others onto such points);
    verify_gap_line derives each BoundPiece's bound from (field, S, y0,
    alpha).
    """

    y0: Fraction
    pieces: tuple[BoundPiece | PointPiece, ...]


def _line_point(fld: QuadField, x: Fraction, y0: Fraction) -> KElement:
    den = x.denominator * y0.denominator
    return KElement(
        x.numerator * y0.denominator, y0.numerator * x.denominator, den, fld
    )


def _piece_bound(fld: QuadField, s: SSet, y0: Fraction, alpha: KElement) -> tuple[Fraction, Fraction, Fraction]:
    """(a2, a1, a0) with N_S(x + y0*w - alpha) <= a2*x^2 + a1*x + a0 for
    every x whose denominator is coprime to S (see verify_gap_line)."""
    a, b, c = alpha.a, alpha.b, alpha.c
    u, v = y0.numerator, y0.denominator
    h, e = (1, (1 + fld.d) // 4) if fld.half_basis else (0, fld.d)
    beta = c * u - b * v
    g = math.gcd(v * v * c * c, v * c * (h * beta - 2 * v * a), v * v * a * a - h * v * a * beta + e * beta * beta)
    m = Fraction(c * c * s_part_strip(g, s), g)
    x0, tau = Fraction(a, c), y0 - Fraction(b, c)
    # N(X + tau*w) = X^2 + h*tau*X + e*tau^2 at X = x - x0
    return m, m * (h * tau - 2 * x0), m * (x0 * x0 - h * tau * x0 + e * tau * tau)


def verify_gap_line(fld: QuadField, s: SSet, cert: GapLineCert) -> bool:
    """Verify every piece, then check that the x-intervals and the point
    checks cover [0, 1].

    Every alpha must be an S-integer; point pieces get an exact S-norm.
    A bound piece's quadratic is derived, not read: with alpha =
    (a + b*w)/c, y0 = u/v and x = r/t (t coprime to S), the norm is
    F(r, t)/(c*t*v)^2 for an integral form F with content g.  The
    S-part of that denominator is exactly c^2 and that of F(r, t) is at
    least g's, so N_S <= m*N(x - a/c + (y0 - b/c)*w) with
    m = c^2 * s_part_strip(g, S)/g.  (Points whose x has a factor from
    S in its denominator are left to the bundle's p-orbit check.)  The
    bound is convex, so it need only hold at the ends of the claimed
    interval: below 1 at a closed end, at most 1 at an open one.
    """
    if not cert.pieces:
        return False
    radicands = {x.m for piece in cert.pieces for x in (piece.lo, piece.hi)} - {0}
    m0 = min(radicands, default=0)
    if any(math.isqrt(m0 * m) ** 2 != m0 * m for m in radicands):
        return False  # the piece ends must share one radicand, up to a square, to compare
    if s_part_strip(cert.y0.denominator, s) != cert.y0.denominator:
        return False  # y0 denominator must be coprime to S
    for piece in cert.pieces:
        if s_part_strip(piece.alpha.c, s) != 1:
            return False  # alpha must be an S-integer
        if isinstance(piece, PointPiece):
            xi = _line_point(fld, piece.x, cert.y0)
            if s_norm(xi - piece.alpha, s) >= 1:
                return False
            continue
        if not piece.lo < piece.hi:
            return False
        a2, a1, a0 = _piece_bound(fld, s, cert.y0, piece.alpha)
        for x, closed in ((piece.lo, piece.lo_closed), (piece.hi, piece.hi_closed)):
            bound = x * x * a2 + x * a1 + a0
            if bound > 1 or (bound == 1 and closed):
                return False
    # in order of left end, closed before open on ties
    pieces = sorted(cert.pieces, key=lambda piece: (piece.lo, not piece.lo_closed))
    return not _sweep(pieces, first_gap_only=True)[1]


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
            r2 = boost_radius(fld, s, alpha)
            disks.append(Disk(center=alpha, r_squared=r2, boosted=r2 > Fraction(1, alpha.c**2)))
    return DiskCertificate(d=35, s=s, disks=tuple(disks), subdivision_depth=subdivision_depth)


def gap_line_certificate(d: int, p: int) -> GapLineCert:
    """The built-in gap-line certificate for (10, 2) or (15, 3)/(15, 5)."""
    fld = make_field(d)
    half = Fraction(1, 2)
    if (d, p) == (10, 2):
        # line y = 1/3; for x = r/s with s odd the S-norms are exactly
        # 2x^2+5/9 (alpha=w/2), 2(1-x)^2+5/9 (alpha=(2+w)/2) and
        # 8(x-1/2)^2+5/9 (alpha=(2+w)/4), the bounds _piece_bound derives
        root2_3 = SurdValue(P=0, Q=1, m=2, M=3)  # sqrt(2)/3
        root2_6 = SurdValue(P=0, Q=1, m=2, M=6)  # sqrt(2)/6
        zero, one = SurdValue.rational(0), SurdValue.rational(1)
        return GapLineCert(
            y0=Fraction(1, 3),
            pieces=(
                BoundPiece(
                    alpha=KElement(0, 1, 2, fld),
                    lo=zero, hi=root2_3, lo_closed=True, hi_closed=False,
                ),
                BoundPiece(
                    alpha=KElement(2, 1, 2, fld),
                    lo=one - root2_3, hi=one, lo_closed=False, hi_closed=True,
                ),
                BoundPiece(
                    alpha=KElement(2, 1, 4, fld),
                    lo=half - root2_6, hi=half + root2_6,
                    lo_closed=False, hi_closed=False,
                ),
            ),
        )
    if d == 15 and p in (3, 5):
        # line y = 1/2; N(x + w/2 - w) = (x-1/4)^2 + 15/16 and
        # N(x + w/2 - 1) = (x-3/4)^2 + 15/16; the three line points with
        # bound exactly 1 get explicit alphas with S-norm 1/2
        point_alphas = {3: (1, 0, 2), 5: (-1, 2, 0)}[p]
        a_at_0, a_at_half, a_at_1 = point_alphas
        return GapLineCert(
            y0=half,
            pieces=(
                BoundPiece(
                    alpha=KElement(0, 1, 1, fld),
                    lo=SurdValue.rational(0), hi=SurdValue.rational(half),
                    lo_closed=False, hi_closed=False,
                ),
                BoundPiece(
                    alpha=KElement(1, 0, 1, fld),
                    lo=SurdValue.rational(half), hi=SurdValue.rational(1),
                    lo_closed=False, hi_closed=False,
                ),
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

    The checker recomputes the residual gaps of the intervals with
    S-smooth k <= k_max; each must hold exactly one of gap_rationals.
    gap_rationals is closed under y -> p*y (mod 1), which reduces every
    missed line to one carrying a certificate (scaling by p preserves
    the S-norm condition).
    """

    d: int
    p: int
    k_max: int
    gap_rationals: tuple[Fraction, ...]
    gap_lines: tuple[GapLineCert, ...]


def _orbit_keeps_gaps_apart(p: int, around: dict[Fraction, tuple[SurdValue, SurdValue]]) -> bool:
    """For each residual gap G around its rational r, with r' = p*r mod 1
    and G' the gap around r': the image r' + p*(G - r) of G under
    y -> p*y meets no gap H + n, for integers n, other than G' itself
    (n = 0).  So the orbit argument may follow each missed line from G
    to G' alone."""
    for r, (lo, hi) in around.items():
        r2 = p * r % 1
        a, b = r2 + p * (lo - r), r2 + p * (hi - r)
        for h, (h_lo, h_hi) in around.items():
            # [a, b] + n meets [h_lo, h_hi] exactly for h_lo - b <= n <= h_hi - a
            for n in range(-math.floor(b - h_lo), math.floor(h_hi - a) + 1):
                if (h, n) != (r2, 0):
                    return False
    return True


def verify_exceptional_bundle(bundle: ExceptionalBundle) -> bool:
    if bundle.k_max < 1:
        return False
    fld = make_field(bundle.d)
    s = SSet.of(bundle.p)
    rationals = set(bundle.gap_rationals)
    # each residual gap contains exactly one of the claimed points, and
    # every claimed point lies in a gap
    around = {}
    for lo, hi in residual(fld, s, bundle.k_max).gaps:
        inside = [y for y in rationals if lo <= y <= hi]
        if len(inside) != 1:
            return False
        around[inside[0]] = (lo, hi)
    if around.keys() != rationals:
        return False
    # closure under multiplication by p modulo 1, and every orbit must
    # reach a line carrying a certificate
    cert_lines = {cert.y0 for cert in bundle.gap_lines}
    for y in rationals:
        if (bundle.p * y) % 1 not in rationals:
            return False
        orbit = y
        for _ in range(len(rationals) + 1):
            if orbit in cert_lines:
                break
            orbit = (bundle.p * orbit) % 1
        else:
            return False
    if not _orbit_keeps_gaps_apart(bundle.p, around):
        return False
    return all(verify_gap_line(fld, s, cert) for cert in bundle.gap_lines)


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
    if d == 10:
        k_max, rationals = 64, (Fraction(1, 3), Fraction(2, 3))
    else:
        k_max, rationals = (81 if p == 3 else 125), (Fraction(1, 2),)
    bundle = ExceptionalBundle(
        d=d,
        p=p,
        k_max=k_max,
        gap_rationals=rationals,
        gap_lines=(gap_line_certificate(d, p),),
    )
    if not verify_exceptional_bundle(bundle):
        raise CertificationError(f"exceptional bundle for ({d}, {p}) failed verification")
    return bundle
