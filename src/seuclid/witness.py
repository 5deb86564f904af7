"""Negative certification: witness points with verified lower bounds.

For S = {p}, a witness point xi0 together with an exact rational lower
bound on N_S(xi0 - alpha) over all alpha in O_S certifies that K is not
S-norm-Euclidean.  A bounded oracle cross-validates the analytic
bounds: the exact minimum over a grid of S-integers, found by a scan
that skips only points it proves cannot lower the minimum.  Per row it
visits a window of b where the norm is below the best, plus the residue
classes of b mod p where p divides the norm, tabled at level 0 and once
for every level above it.  Above level 0 the class a = b = 0 (mod p) is
left out: its points are the points of the level below.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .covering import Verdict
from .disks import EXCEPTIONAL_PAIRS
from .exact import SSet, is_prime, legendre, s_part_strip
from .field import KElement, make_field

__all__ = [
    "CaseTag",
    "WitnessCertificate",
    "OracleReport",
    "certify_non_euclidean",
    "witness_bound",
    "oracle_min_snorm",
]


class CaseTag(str, enum.Enum):
    ODD_INERT_23 = "OddInert23"
    ODD_RAMIFIED_23 = "OddRamified23"
    ODD_INERT_1MOD4 = "OddInert1mod4"
    ODD_RAMIFIED_1MOD4 = "OddRamified1mod4"
    TWO_GENERIC = "TwoGeneric"
    TWO_EVEN_D = "TwoEvenD"
    THIRTEEN_SPECIAL = "ThirteenSpecial"


@dataclass(frozen=True)
class WitnessCertificate:
    d: int
    p: int
    xi0: KElement
    case_tag: CaseTag
    bound: Fraction


def witness_bound(d: int, p: int) -> tuple[CaseTag, KElement, Fraction] | Verdict:
    """Case dispatch for the lower bound on N_S(xi0 - alpha).

    Returns (case tag, witness point, exact bound), or a "not-applicable"
    Verdict when p splits in K.
    """
    fld = make_field(d)
    half = fld.half_basis  # -d = 1 (mod 4)
    if p == 2:
        if (-d) % 8 == 1:
            return Verdict("not-applicable", None, f"-{d} = 1 (mod 8): 2 splits in Q(sqrt(-{d}))")
        xi0 = KElement(1, 1, 3, fld)
        if (-d) % 8 == 5:
            return (CaseTag.TWO_GENERIC, xi0, Fraction(1 + d, 36))
        # -d = 2, 3 (mod 4)
        if d == 13:
            # A is an odd multiple of 3 in the divisible-by-2 branch, so
            # A^2 >= 9 and the bound is min(13/9, (9+13)/18)
            return (CaseTag.THIRTEEN_SPECIAL, KElement(0, 1, 3, fld), min(Fraction(13, 9), Fraction(22, 18)))
        if d % 2 == 0:
            return (CaseTag.TWO_EVEN_D, xi0, Fraction(4 + d, 18))
        return (CaseTag.TWO_GENERIC, xi0, Fraction(1 + d, 18))
    # p odd
    sym = legendre(-d, p)
    if sym == 1:
        return Verdict("not-applicable", None, f"(-{d}/{p}) = 1: {p} splits in Q(sqrt(-{d}))")
    xi0 = KElement(1, 1, 2, fld)
    if not half:
        if sym == -1:
            return (CaseTag.ODD_INERT_23, xi0, Fraction(1 + d, 4))
        return (CaseTag.ODD_RAMIFIED_23, xi0, min(Fraction(1 + d, 4), Fraction(p * p + d, 4 * p)))
    if sym == -1:
        return (CaseTag.ODD_INERT_1MOD4, xi0, Fraction(1 + d, 16))
    return (CaseTag.ODD_RAMIFIED_1MOD4, xi0, min(Fraction(1 + d, 16), Fraction(p * p + d, 16 * p)))


def certify_non_euclidean(d: int, p: int) -> WitnessCertificate | Verdict:
    """Certify that Q(sqrt(-d)) is not {p}-norm-Euclidean, when the
    case analysis gives a bound >= 1; otherwise return the Verdict of
    `witness_bound` (p splits) or an "unknown" one.  A d that is not a
    squarefree positive integer raises make_field's ValueError."""
    make_field(d)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    dispatch = witness_bound(d, p)
    if isinstance(dispatch, Verdict):
        return dispatch
    tag, xi0, bound = dispatch
    if bound >= 1:
        return WitnessCertificate(d=d, p=p, xi0=xi0, case_tag=tag, bound=bound)
    reason = f"lower bound {bound} < 1"
    if (d, p) in EXCEPTIONAL_PAIRS:
        reason += " (exceptional pair, resolved by certify_exceptional)"
    return Verdict("unknown", None, reason)


@dataclass(frozen=True)
class OracleReport:
    min_snorm_found: Fraction
    argmin: KElement
    search_bounds: tuple[int, int]


def oracle_min_snorm(
    d: int, p: int, xi0: KElement, n_max: int, coeff_max: int
) -> OracleReport:
    """Exact minimum of N_S(xi0 - alpha), S = {p}, over the grid
    alpha = (a + b*w)/p^n, n <= n_max, |a|, |b| <= coeff_max.

    The argmin is the first minimizing alpha in (n, a, b) order: the best
    is replaced only on a strict improvement.  alpha = xi0 is skipped (the
    certificates' xi0 have denominators that are not p-powers, so it is
    off their grids).

    The scan is pruned without changing its answer.  At level n and row
    a, write x = a0*p^n - a*c0 and y = b0*p^n - b*c0, so that
    N_S(xi0 - alpha) = strip_p(v(b))/sden with v(b) = x^2 + h*x*y + e*y^2
    and sden = strip_p(c0^2*p^(2n)) = strip_p(c0)^2, the same at every
    level.  Once a best strip_p(v) = t exists, a point beats it only if
    strip_p(v(b)) < t.  Where p does not divide v(b), strip_p(v(b)) = v(b),
    and v(b) < t iff (2e*y + h*x)^2 < 4e*t - D*x^2: a window of b read
    off by isqrt, empty when 4e*t - D*x^2 <= 0.  Where p divides v(b)
    the whole residue class of b mod p is scanned.  Whether p | v(b)
    depends only on x and y mod p, so at level n only on a mod p and
    b mod p: the classes are tabled for one a of each class, and a row
    with no class and an empty window is skipped.  At n >= 1,
    x = -a*c0 and y = -b*c0 (mod p), which do not depend on n, so the
    classes are tabled at level 0 and once at level 1, and the level-1
    table serves every level above 0.
    Every skipped point has a stripped value >= t, so it is not a strict
    improvement.  The first row, before any best exists, is scanned in
    full.

    At level n >= 1 the class a = b = 0 (mod p) is left out, for every
    p and every c0: such an alpha is (a/p + (b/p)*w)/p^(n-1), a grid
    point of level n - 1 with the same value, which comes before it in
    (n, a, b) order, so it is never a strict improvement.  Which pairs
    are left out does not depend on n either.  For p inert in K and
    prime to c0 no class is left: p | v forces p | a, p | b.
    """
    if n_max < 0 or coeff_max < 1:
        raise ValueError("oracle bounds must be positive")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    fld = xi0.field
    if d != fld.d:
        raise ValueError(f"xi0 lies in {fld}, not in Q(sqrt(-{d}))")
    h, e, D = fld.h, fld.e, fld.D
    a0, b0, c0 = xi0.a, xi0.b, xi0.c
    sden = s_part_strip(c0, SSet.of(p)) ** 2
    lo, hi = -coeff_max, coeff_max
    full = range(lo, hi + 1)
    head = range(lo, min(lo + p, hi + 1))  # one value from each class mod p
    m = 2 * e * c0
    best = None  # the least stripped value so far, at best_alpha
    for n in range(n_max + 1):
        pn = p**n
        y0 = b0 * pn  # y = y0 - b*c0
        if n <= 1:
            # the classes of b mod p where p | v, keyed by a mod p; above
            # level 0 not a = b = 0 (mod p), the points of level n - 1.
            # The level-1 table serves every level above 0.
            classes = {}
            for a in head:
                x = a0 * pn - a * c0
                classes[a % p] = [range(b, hi + 1, p) for b in head
                                  if fld.norm_form(x, y0 - b * c0) % p == 0
                                  and not (n and a % p == b % p == 0)]
        for a in full:
            x = a0 * pn - a * c0
            # N(x + y*w) = x^2 + y*(h*x + e*y)
            x2, hx = x * x, h * x
            if best is None:
                spans = [full]
            else:
                spans = classes.get(a % p, [])
                r2 = 4 * e * best - D * x2
                if r2 > 0:
                    # |2e*y + h*x| = |cnum - m*b| <= isqrt(r2), widened by one
                    cnum, s = 2 * e * y0 + hx, math.isqrt(r2)
                    spans = [*spans, range(max(lo, (cnum - s) // m - 1), min(hi, (cnum + s) // m + 1) + 1)]
                elif not spans:
                    continue
            # the row's least stripped value at its least b (greatest y)
            row_num = row_y = None
            for bs in spans:
                for y in range(y0 - bs.start * c0, y0 - bs.stop * c0, -bs.step * c0):
                    num = x2 + y * (hx + e * y)
                    if num == 0:
                        continue  # alpha equals xi0
                    while num % p == 0:
                        num //= p
                    if row_num is None or num < row_num or (num == row_num and y > row_y):
                        row_num, row_y = num, y
            # kept only on a strict improvement
            if row_num is not None and (best is None or row_num < best):
                best = row_num
                best_alpha = (a, (y0 - row_y) // c0, pn)
    a, b, pn = best_alpha
    return OracleReport(
        min_snorm_found=Fraction(best, sden),
        argmin=KElement(a, b, pn, fld),
        search_bounds=(n_max, coeff_max),
    )
