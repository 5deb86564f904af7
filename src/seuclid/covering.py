"""Positive certification by interval covering.

Builds the interval family I_j^k = ((j - sqrt(3/D))/k, (j + sqrt(3/D))/k)
for S-smooth k, checks exact coverage of the closed unit interval,
certifies covers and computes the uncovered residual gaps used in the
exceptional-case analysis.  A cover exists iff D < 3*q^2 (q the
smallest prime not in S), and then its minimal k_max is
k0 = theorem2_bound - 1 and the Farey family of order k0 covers (proof
in `certify_euclidean`), so the certificate needs no search.  Exact
integer endpoint keys order the family, and one greedy sweep over those
keys (`_key_chain`) builds every cover chain, the certificate's and
`covers_unit`'s.  The keys compare exactly as the endpoints do.
`seuclid verify` replays each chain with `replay_chain`, exact integer
sign tests on (j, k, D) that share no ordering code with the keys.  One
exact surd sweep (`_sweep`) serves residual gaps and the gap-line pieces
in :mod:`seuclid.disks`.

Produced chains share their links: every certificate that links I_j^k
holds the same (j, k) tuple, from one table (`_LINKS`).  A Theorem-2
cover is a whole Farey family, so the 608 squarefree d <= 1000 repeat
397 distinct links 92,839 times.  Chains parsed from files
(:func:`seuclid.certs.certificate_from_obj`) keep their own tuples: the
table holds only links the producer emitted, so an untrusted file
cannot grow it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .exact import SSet, SurdValue, surd_cmp
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


@dataclass(frozen=True, slots=True)
class Interval:
    """Open interval I_j^k, the projection of the strip of radius-1/k disks
    centered at the points (i + j*w)/k."""

    j: int
    k: int
    D: int
    lo: SurdValue
    hi: SurdValue

    lo_closed = False
    hi_closed = False

    @classmethod
    def make(cls, j: int, k: int, D: int) -> "Interval":
        return cls(j, k, D, SurdValue.endpoint(j, -1, k, D), SurdValue.endpoint(j, +1, k, D))


@dataclass(frozen=True)
class CoverCertificate:
    """A replayable proof that the intervals cover [0, 1].

    The chain lists (j, k) pairs in sweep order: the first interval
    strictly contains 0, each next link starts below the reach and ends
    above it, and the final reach exceeds 1.
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

    def total_length(self) -> SurdValue:
        return sum((hi - lo for lo, hi in self.gaps), _ZERO)


_ZERO, _ONE = SurdValue.rational(0), SurdValue.rational(1)


def _endpoint_keys(D: int, x: int) -> tuple[int, int, int]:
    """(B, f, c) for exact integer keys of the endpoints with k <= x and
    |j| <= x: the key of a real v is floor(2^B*v), and f, c are the floor
    and ceiling of 2^B*r, r = sqrt(3/D).

    Then ((j << B) - c) // k and ((j << B) + f) // k are the keys of
    (j -/+ r)/k: each integer numerator is at most the real one and less
    than 1 below it, so no multiple of k lies in between.  Keys never
    reverse an order, and with B = bitlength(4*D*x^4) they separate.
    Two endpoints with |j| <= x, 1 <= k <= x (or 0, 1) differ by
    (P + Q*r)/(k*k') with |P| <= 2x^2, |Q| <= 2x.  If D*P^2 != 3*Q^2,
    |D*P^2 - 3*Q^2| >= 1 gives |P + Q*r| >= 1/(D*|P - Q*r|) >= 1/(4*D*x^2);
    if D*P^2 = 3*Q^2, r is rational, so the field has D = 3, r = 1 and
    |P + Q| >= 1.  So distinct endpoints lie at least 1/(4*D*x^4) > 2^-B
    apart and get distinct keys.
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


def _keyed_family(D: int, ks: range | list[int]) -> tuple[int, list[tuple[int, int, int, int]]]:
    """B and the sorted (lo_key, k, j, hi_key) tuples of every I_j^k with
    k in the ascending sequence `ks`, keys from `_endpoint_keys(D, ks[-1])`."""
    B, f, c = _endpoint_keys(D, ks[-1])
    return B, sorted(iv for k in ks for iv in _keyed_intervals_of(k, B, f, c))


def intervals(fld: QuadField, s: SSet, k_max: int) -> list[Interval]:
    """All I_j^k with S-smooth k <= k_max, 0 <= j <= k, gcd(j, k) = 1,
    sorted by left endpoint; ties keep increasing k, then j."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return [Interval.make(j, k, fld.D) for _, k, j, _ in _keyed_family(fld.D, s.smooth_upto(k_max))[1]]


def _key_chain(family: list[tuple[int, int, int, int]], one: int) -> list[tuple[int, int, int, int]]:
    """The greedy chain of a key-sorted (lo_key, k, j, hi_key) family,
    swept from 0 up to the key `one` of 1.

    The reach starts at 0, which must lie strictly inside some interval;
    each link is the first interval with the largest hi_key among those
    whose lo_key lies below the reach, and its hi_key is the next reach.
    The chain covers [0, 1] iff its last reach passes `one`; otherwise
    that reach (0 with no link) is the first uncovered point.
    """
    chain = []
    reach = 0
    best = None
    for iv in family:
        if iv[0] >= reach:
            if best is None or best[3] <= reach:
                return chain
            chain.append(best)
            reach = best[3]
            if reach > one or iv[0] >= reach:
                return chain
        if best is None or iv[3] > best[3]:
            best = iv
    if best is not None and best[3] > reach:
        chain.append(best)
    return chain


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


def covers_unit(ivs: list[Interval], *, d: int = 0, s: SSet = SSet()) -> CoverCertificate | Verdict:
    """Greedy cover of the closed interval [0, 1] by `ivs`, in order of
    left end (ties keep increasing k, then j).

    The chain comes from `_key_chain` on exact integer endpoint keys,
    which compare as the endpoints do for any j and k >= 1; `seuclid
    verify` replays it with `replay_chain`.  A failure's `at` is the
    first uncovered point: 0, or the right end of the last link.
    """
    if not ivs:
        return Verdict("unknown", None, "no intervals to cover [0, 1]")
    D = ivs[0].D
    if any(iv.D != D for iv in ivs):
        raise ValueError("intervals of different discriminants")
    B, f, c = _endpoint_keys(D, max(max(iv.k, abs(iv.j)) for iv in ivs))
    family = sorted((((iv.j << B) - c) // iv.k, iv.k, iv.j, ((iv.j << B) + f) // iv.k) for iv in ivs)
    chain = _key_chain(family, 1 << B)
    if chain and chain[-1][3] > 1 << B:
        return _certificate(chain, d, s)
    at = SurdValue.endpoint(chain[-1][2], +1, chain[-1][1], D) if chain else _ZERO
    return Verdict("unknown", None, f"first uncovered point {at}", at=at)


# the shared producer links: _LINKS[k][j] is the one (j, k) tuple
_LINKS: dict[int, dict[int, tuple[int, int]]] = {}


def _certificate(chain: list[tuple[int, int, int, int]], d: int, s: SSet) -> CoverCertificate:
    """The certificate of a covering key chain.  Its (j, k) links come
    from `_LINKS`, so equal links of all produced certificates are one
    tuple; the two-level dict lookup costs about what building fresh
    tuples did.  Only the producer's chains come here, never a parsed
    file's, so the table stays as small as the set of links emitted."""
    try:
        links = tuple([_LINKS[k][j] for _, k, j, _ in chain])
    except KeyError:  # a link no certificate had yet
        for _, k, j, _ in chain:
            _LINKS.setdefault(k, {}).setdefault(j, (j, k))
        return _certificate(chain, d, s)
    k_max = max(k for _, k, _, _ in chain)
    return CoverCertificate(d=d, s=s, k_max=k_max, chain=links)


def replay_chain(D: int, chain: Sequence[tuple[int, int]]) -> bool:
    """Independently re-check a certificate chain in the order given, by
    exact integer sign tests on (j, k, D) alone: the first link holds 0,
    each next link starts below the reach and ends above it, and the
    final reach exceeds 1.

    With r = sqrt(3/D), the reach is (a + b*r)/c: 0 as (0, 0, 1), then
    (j, 1, k) for the link (j, k) that set it.  With P = j*c - a*k,
    I_j^k = ((j - r)/k, (j + r)/k) starts below the reach iff
    P - (c + b*k)*r < 0 and ends above it iff P + (c - b*k)*r > 0.  The
    sign of P + Q*r needs a square, D*P^2 against 3*Q^2, only when P
    and Q have opposite signs.  A link that repeats one before it or
    does not raise the reach fails, so a passing chain holds each
    interval at most once.  Shares no ordering code with the producer's
    integer keys; raises ValueError when it reaches a link with k < 1.
    """
    a, b, c = 0, 0, 1
    for j, k in chain:
        if k < 1:
            raise ValueError(f"not an interval: j = {j}, k = {k}")
        P = j * c - a * k
        Q = c - b * k
        if P > 0:
            # starts below iff D*P^2 < 3*(c + b*k)^2, and ends above
            # unless Q < 0 and D*P^2 <= 3*Q^2
            PP = D * P * P
            if PP >= 3 * (c + b * k) ** 2 or (Q < 0 and PP <= 3 * Q * Q):
                return False
        # P <= 0: starts below, and ends above iff Q > 0 and D*P^2 < 3*Q^2
        elif Q <= 0 or D * P * P >= 3 * Q * Q:
            return False
        a, b, c = j, 1, k
    # (a + r)/c > 1 iff a - c + r > 0
    return b == 1 and (a >= c or D * (c - a) ** 2 < 3)


def theorem2_bound(fld: QuadField) -> int:
    """Smallest integer b with 3*b^2 > D, i.e. floor(sqrt(D/3)) + 1.

    (K, S) has a cover certificate exactly when S contains every prime
    below b, and then its minimal k_max is b - 1 (see certify_euclidean).
    """
    return math.isqrt(fld.D // 3) + 1


def certify_euclidean(fld: QuadField, s: SSet) -> CoverCertificate | Verdict:
    """The cover certificate of minimal k_max, or an "unknown" Verdict
    when D > 3*q^2 (q = smallest prime not in S), where no cover exists:
    then r = sqrt(3/D) < 1/q, and 1/q lies in no I_j^k of S-smooth k, as
    |k/q - j| >= 1/q.

    Otherwise D < 3*q^2 (D is d or 4*d, and D = 3*q^2 would need a
    square factor of d or d = 3, where D = 3), so every
    k <= k0 = theorem2_bound(fld) - 1 < q is S-smooth, and k0 is the
    minimal k_max.  No family with k < k0 covers: r <= 1, the right end
    of I_0^1, lies in I_j^k iff |j - k*r| < r, which fails for j = 0 and
    for j >= 1 needs (k + 1)*r > 1, i.e. 3*(k + 1)^2 > D.  The family of
    every k <= k0 covers: consecutive Farey fractions h/k < h'/k' of
    order k0 have h'*k - h*k' = 1 and k + k' >= k0 + 1 (Hardy-Wright,
    ch. III), so I_h^k and I_h'^k' overlap iff r*(k + k') > 1, i.e.
    3*(k + k')^2 > D, which holds as k + k' >= theorem2_bound(fld); and
    I_0^1, I_1^1 hold 0 and 1.  One `_key_chain` sweep of that family,
    sorted by exact integer endpoint keys, gives the certificate, the
    chain `covers_unit` returns on `intervals(fld, s, k0)`; `seuclid
    verify` replays it with `replay_chain`.

    That chain is the Farey sequence F_k0 in increasing order.  Along
    F_k0 both ends of I_h^k strictly increase: for neighbours h/k < h'/k'
    the ends move by (1 -/+ r*(k - k'))/(k*k'), and
    |k - k'| < k0 <= 1/r.  So the greedy sweep, at the reach of the link
    h/k, takes the last interval that starts below it.  That is the
    successor h'/k', which overlaps I_h^k, and not the second successor
    h''/k'' = (m*h' - h)/(m*k' - k), m = (k0 + k) // k': the left end of
    I_h''^k'' minus the right end of I_h^k is
    (h''*k - h*k'' - r*(k + k''))/(k*k'') = m*(1 - r*k')/(k*k'') >= 0,
    as h''*k - h*k'' = m and k + k'' = m*k'.  The sweep starts at I_0^1,
    the only interval that holds 0, and ends at I_1^1, the first whose
    right end 1 + r passes 1.
    """
    q = s.smallest_missing_prime()
    if fld.D > 3 * q * q:
        return Verdict("unknown", None, f"D = {fld.D} exceeds 3*q^2 = {3 * q * q} for q = {q}")
    B, family = _keyed_family(fld.D, range(1, theorem2_bound(fld)))
    return _certificate(_key_chain(family, 1 << B), fld.d, s)


def residual(fld: QuadField, s: SSet, k_max: int) -> Residual:
    """Exact maximal closed gaps of [0, 1] left uncovered by the open
    intervals with S-smooth k <= k_max, sorted left to right."""
    return Residual(tuple(_sweep(intervals(fld, s, k_max))))
