"""Positive certification by interval covering.

Builds the interval family I_j^k = ((j - sqrt(3/D))/k, (j + sqrt(3/D))/k)
for S-smooth k and asks whether it covers the closed unit interval.  A
cover exists iff D < 3*q^2 (q the smallest prime not in S), and then its
minimal k_max is k0 = theorem2_bound - 1 and the Farey family of order
k0 covers (proof in `certify_euclidean`), so the certificate needs no
search.  Exact integer endpoint keys order the family, and one greedy
sweep over those keys (`_key_sweep`) answers every question asked of it:
its chain is the cover certificate, its first gap the first uncovered
point of a failed `covers_unit`, and its gaps the residual that the
exceptional gap lines must cover.  Gap ends are integer ends
(a, b, c) = (a + b*sqrt(3/D))/c, the reach format of `replay_chain`,
which `exact.surd_sign` compares.  `seuclid verify` replays each chain
with `replay_chain`, exact integer sign tests on (j, k, D) that share
no ordering code with the keys.

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

from .exact import SSet, SurdValue
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


# (a, b, c) with c >= 1 and b in (-1, 0, 1) is the end (a + b*sqrt(3/D))/c:
# 0 is (0, 0, 1), 1 is (1, 0, 1), and I_j^k runs from (j, -1, k) to (j, 1, k)
End = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class Interval:
    """Open interval I_j^k, the projection of the strip of radius-1/k disks
    centered at the points (i + j*w)/k."""

    j: int
    k: int
    D: int
    lo: SurdValue
    hi: SurdValue

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
    point, as an end (see `End`).
    """

    kind: str  # euclidean-cover | euclidean-exceptional | non-euclidean | not-applicable | unknown
    certificate: object | None
    reason: str
    at: End | None = None


@dataclass(frozen=True)
class Residual:
    """Maximal closed gaps of [0, 1] not covered by any interval with
    discriminant D, each a (left, right) pair of ends (see `End`)."""

    D: int
    gaps: tuple[tuple[End, End], ...]


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


def _keyed_family(D: int, ks: range | list[int]) -> tuple[int, list[tuple[int, int, int, int]]]:
    """B and the sorted (lo_key, k, j, hi_key) tuples of every I_j^k
    (0 <= j <= k, gcd(j, k) = 1) with k in the ascending sequence `ks`,
    keys from `_endpoint_keys(D, ks[-1])`: tuple order is the left-end
    order, with ties (D = 3 only) by k, then j."""
    B, f, c = _endpoint_keys(D, ks[-1])
    return B, sorted(
        (((j << B) - c) // k, k, j, ((j << B) + f) // k) for k in ks for j in range(k + 1) if math.gcd(j, k) == 1
    )


def intervals(fld: QuadField, s: SSet, k_max: int) -> list[Interval]:
    """All I_j^k with S-smooth k <= k_max, 0 <= j <= k, gcd(j, k) = 1,
    sorted by left endpoint; ties keep increasing k, then j."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return [Interval.make(j, k, fld.D) for _, k, j, _ in _keyed_family(fld.D, s.smooth_upto(k_max))[1]]


def _key_sweep(
    family: list[tuple[int, int, int, int]], one: int
) -> tuple[list[tuple[int, int, int, int]], list[tuple[End, End]]]:
    """The greedy chain and the maximal closed uncovered gaps of [0, 1]
    of a key-sorted (lo_key, k, j, hi_key) family, `one` the key of 1.

    [0, reach) is covered, the reach 0 at first.  When an interval starts
    at or past the reach, the first interval with the largest hi_key so
    far becomes a link if it raises the reach, and its hi_key is the next
    reach.  An interval that still starts at or past the reach leaves the
    gap [reach, its left end], one point when the two are equal, as the
    intervals are open.  The sweep stops once the reach passes `one`; a
    reach that never does leaves the gap [reach, 1].  So the family
    covers [0, 1] iff there is no gap, and then the chain is its cover.
    Each gap end is read off the interval that sets it: 0 or the last
    link's (j, 1, k), then (j, -1, k) or 1.
    """
    chain, gaps = [], []
    reach, best = 0, (0, 0, 0, 0)  # a stand-in whose hi_key 0 raises no reach
    for iv in family:
        if iv[0] >= reach:
            if best[3] > reach:
                chain.append(best)
                reach = best[3]
                if reach > one:
                    return chain, gaps
            if iv[0] >= reach:
                if iv[0] > one:
                    break
                gaps.append((_reach_end(chain), (iv[2], -1, iv[1])))
        if iv[3] > best[3]:
            best = iv
    if best[3] > reach:
        chain.append(best)
        reach = best[3]
    if reach <= one:
        gaps.append((_reach_end(chain), (1, 0, 1)))
    return chain, gaps


def _reach_end(chain: list[tuple[int, int, int, int]]) -> End:
    """The reach of a key chain as an end: 0, or its last link's right end."""
    if not chain:
        return (0, 0, 1)
    _, k, j, _ = chain[-1]
    return (j, 1, k)


def covers_unit(ivs: list[Interval], *, d: int = 0, s: SSet = SSet()) -> CoverCertificate | Verdict:
    """Greedy cover of the closed interval [0, 1] by `ivs`, in order of
    left end (ties keep increasing k, then j): the `_key_sweep` chain when
    it leaves no gap, else an "unknown" Verdict whose `at` is the first
    gap's left end, the first uncovered point.  Keys are bounded by the
    largest k and |j|, so any j works."""
    if not ivs:
        return Verdict("unknown", None, "no intervals to cover [0, 1]")
    D = ivs[0].D
    if any(iv.D != D for iv in ivs):
        raise ValueError("intervals of different discriminants")
    B, f, c = _endpoint_keys(D, max(max(iv.k, abs(iv.j)) for iv in ivs))
    family = sorted((((iv.j << B) - c) // iv.k, iv.k, iv.j, ((iv.j << B) + f) // iv.k) for iv in ivs)
    chain, gaps = _key_sweep(family, 1 << B)
    if not gaps:
        return _certificate(chain, d, s)
    at = gaps[0][0]
    if at == (0, 0, 1):
        return Verdict("unknown", None, "first uncovered point 0", at=at)
    j, _, k = at
    return Verdict("unknown", None, f"first uncovered point ({j} + sqrt(3/{D}))/{k}", at=at)


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
    I_0^1, I_1^1 hold 0 and 1.  The `_key_sweep` chain of that family
    is the certificate, the one `covers_unit` returns on
    `intervals(fld, s, k0)`.

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
    return _certificate(_key_sweep(family, 1 << B)[0], fld.d, s)


def residual(fld: QuadField, s: SSet, k_max: int) -> Residual:
    """Exact maximal closed gaps of [0, 1] left uncovered by the open
    intervals with S-smooth k <= k_max, sorted left to right: the
    `_key_sweep` gaps of their key-sorted family."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    B, family = _keyed_family(fld.D, s.smooth_upto(k_max))
    return Residual(fld.D, tuple(_key_sweep(family, 1 << B)[1]))
