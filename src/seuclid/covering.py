"""Positive certification by interval covering.

Builds the interval family I_j^k = ((j - sqrt(3/D))/k, (j + sqrt(3/D))/k)
for S-smooth k, checks exact coverage of the closed unit interval,
applies the discriminant sufficiency bound, and computes the uncovered
residual gaps used in the exceptional-case analysis.  Exact integer
endpoint keys order the family and let the cover search choose
k_max.  One exact sweep (`_sweep`) answers every coverage question
that needs a proof: `covers_unit` certifies that k_max, and the same
sweep serves chain replay, residual gaps and the gap-line pieces in
:mod:`seuclid.disks`.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import QuadSurd, SSet, SurdValue, surd_cmp
from .field import QuadField

__all__ = [
    "Interval",
    "CoverCertificate",
    "Verdict",
    "Residual",
    "intervals",
    "covers_unit",
    "certify_euclidean",
    "theorem2_bound",
    "residual",
    "replay_chain",
]


@dataclass(frozen=True)
class Interval:
    """Open interval I_j^k, the projection of the strip of radius-1/k disks
    centered at the points (i + j*w)/k."""

    j: int
    k: int
    lo: SurdValue
    hi: SurdValue

    lo_closed = False
    hi_closed = False

    @classmethod
    def make(cls, j: int, k: int, D: int) -> "Interval":
        return cls(j=j, k=k, lo=SurdValue(j, -1, k, D), hi=SurdValue(j, +1, k, D))


@dataclass(frozen=True)
class CoverCertificate:
    """A replayable proof that the intervals cover [0, 1].

    The chain lists (j, k) pairs in sweep order: the first interval
    strictly contains 0, each next interval starts strictly below the
    reach so far, and the final reach exceeds 1.
    """

    d: int
    s: SSet
    k_max: int
    chain: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Verdict:
    """The outcome of a decision, with the reason for it.

    The certifiers return one with `certificate=None` when they produce
    no certificate: kind "not-applicable" when p splits, "unknown"
    otherwise.  A failed `covers_unit` sets `at` to the first uncovered
    point.
    """

    kind: str  # euclidean-cover | euclidean-exceptional | non-euclidean | not-applicable | unknown
    certificate: object | None
    reason: str
    at: SurdValue | None = None


@dataclass(frozen=True)
class Residual:
    """Maximal closed gaps of [0, 1] not covered by any interval."""

    gaps: tuple[tuple[SurdValue, SurdValue], ...]

    def total_length(self) -> QuadSurd:
        total = QuadSurd(Fraction(0))
        for lo, hi in self.gaps:
            total = total + (hi.to_quadsurd() - lo.to_quadsurd())
        return total


def _endpoint_keys(D: int, x: int) -> tuple[int, int, int]:
    """(B, f, c) for exact integer keys of the endpoints with k <= x: the
    key of a real v is floor(2^B*v), and f, c are the floor and ceiling
    of 2^B*r, r = sqrt(3/D).

    Then ((j << B) - c) // k and ((j << B) + f) // k are the keys of
    (j -/+ r)/k: each integer numerator is at most the real one and less
    than 1 below it, so no multiple of k lies in between.  Keys never
    reverse an order, and with B = bitlength(4*D*x^4) they separate.
    Two endpoints with j <= k <= x (or 0, 1) differ by (P + Q*r)/(k*k')
    with |P| <= x^2, |Q| <= 2x.  If D*P^2 != 3*Q^2, |D*P^2 - 3*Q^2| >= 1
    gives |P + Q*r| >= 1/(D*|P - Q*r|) >= 1/(3*D*x^2); if D*P^2 = 3*Q^2,
    r is rational, so the field has D = 3, r = 1 and |P + Q| >= 1.  So
    distinct endpoints lie at least 1/(3*D*x^4) > 2^-B apart and get
    distinct keys.
    """
    B = (4 * D * max(x, 1) ** 4).bit_length()
    f = math.isqrt((3 << 2 * B) // D)
    c = f if f * f * D == 3 << 2 * B else f + 1
    return B, f, c


def _keyed_intervals_of(k: int, B: int, f: int, c: int):
    """The I_j^k of one k (0 <= j <= k, gcd(j, k) = 1, in increasing j)
    as (lo_key, k, j, hi_key) tuples, keys from `_endpoint_keys(D, x)`
    with k <= x: tuple order is the left-end order, with ties (D = 3
    only) by k, then j."""
    return (
        (((j << B) - c) // k, k, j, ((j << B) + f) // k)
        for j in range(k + 1)
        if math.gcd(j, k) == 1
    )


def intervals(fld: QuadField, s: SSet, k_max: int) -> list[Interval]:
    """All I_j^k with S-smooth k <= k_max, 0 <= j <= k, gcd(j, k) = 1,
    sorted by left endpoint; ties keep increasing k, then j."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    B, f, c = _endpoint_keys(fld.D, k_max)
    family = sorted(iv for k in s.smooth_upto(k_max) for iv in _keyed_intervals_of(k, B, f, c))
    return _built(family, fld.D)


def _built(family: list[tuple[int, int, int, int]], D: int) -> list[Interval]:
    """The `Interval`s of a key-sorted family, in its order."""
    return [Interval.make(j, k, D) for _, k, j, _ in family]


def _sweep(items, cmp, zero, one, *, first_gap_only: bool = False):
    """One left-to-right pass deciding which parts of [zero, one] the
    items cover.

    Items carry `lo`, `hi`, `lo_closed` and `hi_closed`; `cmp` is a
    three-way comparison of their endpoints.  The covered prefix is
    [zero, reach), plus the point reach when `covered`.  An item that
    meets the prefix extends it, in any order; one that does not opens a
    gap and starts a new prefix.  In order of left end (closed before open on ties) the gaps are
    exactly the maximal uncovered pieces of [zero, one], each a
    (start, end) pair whose endpoints belong to it unless an item covers
    them.  Returns (reach raisers, gaps); with `first_gap_only` it stops
    at the first gap.
    """
    raisers = []
    gaps = []
    reach, covered = zero, False
    for item in items:
        c = cmp(item.lo, reach)
        if c > 0 or (c == 0 and not (covered or item.lo_closed)):
            if cmp(item.lo, one) > 0:
                break
            gaps.append((reach, item.lo))
            if first_gap_only:
                return raisers, gaps
        c = cmp(item.hi, reach)
        if c > 0:
            reach, covered = item.hi, item.hi_closed
            raisers.append(item)
        elif c == 0 and item.hi_closed:
            covered = True
    c = cmp(reach, one)
    if c < 0 or (c == 0 and not covered):
        gaps.append((reach, one))
    return raisers, gaps


def covers_unit(ivs: list[Interval], *, d: int = 0, s: SSet = SSet()) -> CoverCertificate | Verdict:
    """Greedy cover with exact surd comparisons.

    The reach starts at 0, which must lie strictly inside some interval;
    each step extends it by the interval with lo < reach maximizing hi,
    which is the last reach raiser of the sweep starting below the
    reach; success once the reach exceeds 1.  Success covers the full
    closed interval [0, 1].
    """
    if not ivs:
        return Verdict("unknown", None, "no intervals to cover [0, 1]")
    D = ivs[0].lo.D
    zero = SurdValue.from_rational(0, D)
    one = SurdValue.from_rational(1, D)
    raisers, gaps = _sweep(ivs, surd_cmp, zero, one, first_gap_only=True)
    if gaps:
        return Verdict("unknown", None, f"first uncovered point {gaps[0][0]}", at=gaps[0][0])
    chain: list[Interval] = []
    reach = zero
    i = 0
    while surd_cmp(reach, one) <= 0:
        while i + 1 < len(raisers) and surd_cmp(raisers[i + 1].lo, reach) < 0:
            i += 1
        chain.append(raisers[i])
        reach = raisers[i].hi
    k_max = max(iv.k for iv in chain)
    return CoverCertificate(d=d, s=s, k_max=k_max, chain=tuple((iv.j, iv.k) for iv in chain))


def replay_chain(D: int, chain: list[tuple[int, int]]) -> bool:
    """Independently re-check a certificate chain with surd comparisons
    only: the sweep runs over the chain's intervals as given and rejects
    at the first gap, so any order that covers [0, 1] link by link passes."""
    ivs = [Interval.make(j, k, D) for j, k in chain]
    zero = SurdValue.from_rational(0, D)
    one = SurdValue.from_rational(1, D)
    return not _sweep(ivs, surd_cmp, zero, one, first_gap_only=True)[1]


def theorem2_bound(fld: QuadField) -> int:
    """Smallest integer strictly greater than sqrt(D/3).

    Any S containing all primes below this bound admits a cover
    certificate.
    """
    b = 1
    while 3 * b * b <= fld.D:
        b += 1
    return b


def _key_reach(family: list[tuple[int, int, int, int]]) -> int:
    """The key of the end of the covered prefix [0, reach) that the sweep
    of a key-sorted family reaches from 0."""
    reach = 0
    for lo, _, _, hi in family:
        if lo >= reach:
            break
        if hi > reach:
            reach = hi
    return reach


def certify_euclidean(
    fld: QuadField, s: SSet, k_max: int | None = None
) -> CoverCertificate | Verdict:
    """Run the covering procedure: add the intervals of each S-smooth
    k <= X = 3*q^2 (q = smallest prime not in S) in increasing k to one
    family sorted by exact integer endpoint keys, until it covers [0, 1].

    Adding intervals never uncovers a point, so the first k that covers
    is the minimal sufficient k_max.  The keys only choose where to
    stop: the certificate comes from `covers_unit` on the `Interval`s of
    the final family, which is `intervals(fld, s, k_max)`.  Returns that
    certificate, or an "unknown" Verdict when D > 3*q^2 (no cover can
    exist) or no cover is found up to X.
    """
    q = s.smallest_missing_prime()
    x = 3 * q * q if k_max is None else k_max
    if fld.D > 3 * q * q:
        return Verdict("unknown", None, f"D = {fld.D} exceeds 3*q^2 = {3 * q * q} for q = {q}")
    B, f, c = _endpoint_keys(fld.D, x)
    family: list[tuple[int, int, int, int]] = []
    for cand in s.smooth():
        if cand > x:
            break
        for iv in _keyed_intervals_of(cand, B, f, c):
            bisect.insort_right(family, iv)
        if _key_reach(family) > 1 << B:
            return covers_unit(_built(family, fld.D), d=fld.d, s=s)
    return Verdict("unknown", None, f"no cover found with S-smooth k <= {x}")


def residual(fld: QuadField, s: SSet, k_max: int) -> Residual:
    """Exact maximal closed gaps of [0, 1] left uncovered by the open
    intervals with S-smooth k <= k_max, sorted left to right."""
    zero = SurdValue.from_rational(0, fld.D)
    one = SurdValue.from_rational(1, fld.D)
    return Residual(tuple(_sweep(intervals(fld, s, k_max), surd_cmp, zero, one)[1]))
