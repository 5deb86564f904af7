"""Negative certification: witness points with verified lower bounds.

For S = {p}, a witness point xi0 together with an exact rational lower
bound on N_S(xi0 - alpha) over all alpha in O_S certifies that K is not
S-norm-Euclidean.  A bounded brute-force oracle cross-validates the
analytic bounds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .covering import Verdict
from .disks import EXCEPTIONAL_PAIRS
from .exact import is_prime, legendre, squarefree
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
    `witness_bound` (p splits) or an "unknown" one."""
    if not (d > 0 and squarefree(d)):
        raise ValueError(f"d must be a squarefree positive integer, got {d}")
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
    """Exhaustive minimum of N_S(xi0 - alpha) over the grid
    alpha = (a + b*w)/p^n, n <= n_max, |a|, |b| <= coeff_max.

    The grid never contains the xi0 values used by the certificates
    (their denominators are not p-powers); alpha = xi0 is skipped
    regardless.
    """
    if n_max < 0 or coeff_max < 1:
        raise ValueError("oracle bounds must be positive")
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
            # N(ap + bp*w) = ap^2 + bp*(h*ap + e*bp)
            ap2, hap = ap * ap, h * ap
            for b in rng:
                bp = b0 * pn - b * c0
                if ap == 0 and bp == 0:
                    continue  # alpha equals xi0
                num = ap2 + bp * (hap + e * bp)
                while num % p == 0:
                    num //= p
                # compare num/sden against the best so far
                if best_alpha is None or num * best_den < best_num * sden:
                    best_num, best_den = num, sden
                    best_alpha = (a, b, pn)
    assert best_alpha is not None
    a, b, pn = best_alpha
    return OracleReport(
        min_snorm_found=Fraction(best_num, best_den),
        argmin=KElement(a, b, pn, fld),
        search_bounds=(n_max, coeff_max),
    )
