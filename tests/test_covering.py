"""Interval covering engine tests."""
import functools
import gc
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seuclid import covering
from seuclid.covering import (
    CoverCertificate,
    Interval,
    Verdict,
    covers_unit,
    certify_euclidean,
    intervals,
    replay_chain,
    residual,
    theorem2_bound,
)
from seuclid.exact import SSet, SurdValue, primes_below, squarefree, surd_cmp
from seuclid.field import make_field
from surd_reference import _open, _sweep, end_sign, gap_length, surd_gaps

S0 = SSet()
S2 = SSet.of(2)
S23 = SSet.of(2, 3)
S235 = SSet.of(2, 3, 5)


def test_interval_counts():
    fld = make_field(67)
    assert len(intervals(fld, S0, 1)) == 2
    assert len(intervals(make_field(23), S2, 2)) == 3
    assert len(intervals(fld, S23, 4)) == 7
    assert len(intervals(make_field(143), S235, 6)) == 13


def test_intervals_sorted_and_reduced():
    ivs = intervals(make_field(67), S23, 4)
    for iv in ivs:
        assert math.gcd(iv.j, iv.k) == 1
        assert 0 <= iv.j <= iv.k
        assert surd_cmp(iv.lo, iv.hi) < 0
    for a, b in zip(ivs, ivs[1:]):
        assert surd_cmp(a.lo, b.lo) <= 0
    with pytest.raises(ValueError):
        intervals(make_field(67), S23, 0)


@pytest.mark.parametrize("d", [1, 3, 67])
def test_intervals_order_is_the_stable_surd_sort(d):
    # D = 3 (d = 3) has ties in lo; they keep increasing k, then j
    fld = make_field(d)
    s = SSet.of(2, 3, 5)
    built = [(j, k) for k in s.smooth_upto(60) for j in range(k + 1) if math.gcd(j, k) == 1]
    ivs = [Interval.make(j, k, fld.D) for j, k in built]
    want = sorted(ivs, key=functools.cmp_to_key(lambda u, v: surd_cmp(u.lo, v.lo)))
    if d == 3:
        assert any(surd_cmp(a.lo, b.lo) == 0 for a, b in zip(want, want[1:]))
    # the integer keys give that order for every k_max; a stable sort
    # keeps it on the prefix of intervals with k <= k_max
    for k_max in s.smooth_upto(60):
        assert intervals(fld, s, k_max) == [iv for iv in want if iv.k <= k_max]
    # the certificate's chain is the cover of that family at its k_max
    cert = certify_euclidean(fld, s)
    assert isinstance(cert, CoverCertificate)
    assert cert == covers_unit(intervals(fld, s, cert.k_max), d=d, s=s)


@pytest.mark.parametrize("d", [1, 3, 10, 67, 2999])
def test_interval_keys_are_floors(d):
    # each key is floor(2^B * endpoint), next to the Interval it stands for
    D = make_field(d).D
    B, f, c = covering._endpoint_keys(D, 40)
    for k in range(1, 41):
        ivs = [Interval.make(j, k, D) for j in range(k + 1) if math.gcd(j, k) == 1]
        pairs = zip(covering._keyed_intervals_of(k, B, f, c), ivs, strict=True)
        for (lo_key, m, j, hi_key), iv in pairs:
            assert (j, m) == (iv.j, iv.k)
            for key, v in ((lo_key, iv.lo), (hi_key, iv.hi)):
                assert Fraction(key, 1 << B) <= v < Fraction(key + 1, 1 << B)


def _key(j, s, k, B, f, c):
    """floor(2^B * v) for v = (j + s*sqrt(3/D))/k, by the formulas of
    covering._keyed_intervals_of."""
    return ((j << B) + (f if s > 0 else -c if s < 0 else 0)) // k


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([1, 3]), st.sampled_from([d for d in range(1, 3001) if squarefree(d)])),
    st.integers(min_value=1, max_value=2000),
    st.data(),
)
def test_endpoint_keys_order_like_surd_cmp(d, x, data):
    """Keys of endpoints (j -/+ sqrt(3/D))/k with |j| <= x, k <= x, and of
    0 and 1, compare exactly as surd_cmp does; each is a floor."""
    D = make_field(d).D
    B, f, c = covering._endpoint_keys(D, x)
    # each end as (j, s, k), next to its value
    triples = [(0, 0, 1), (1, 0, 1)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        # a second endpoint of each pair sits next to the first, where
        # keys are tightest
        k = data.draw(st.integers(min_value=1, max_value=x))
        j = data.draw(st.integers(min_value=-x, max_value=x))
        triples.append((j, data.draw(st.sampled_from([-1, 1])), k))
        k2 = data.draw(st.integers(min_value=1, max_value=x))
        near = math.floor(k2 * SurdValue.endpoint(*triples[-1], D).approx())
        near += data.draw(st.integers(min_value=-1, max_value=2))
        triples.append((min(max(near, -x), x), data.draw(st.sampled_from([-1, 1])), k2))
    ends = [SurdValue.endpoint(j, s, k, D) for j, s, k in triples]
    keys = [_key(j, s, k, B, f, c) for j, s, k in triples]
    for v, key in zip(ends, keys):
        assert Fraction(key, 1 << B) <= v < Fraction(key + 1, 1 << B)
    for u, ku in zip(ends, keys):
        for v, kv in zip(ends, keys):
            assert (ku > kv) - (ku < kv) == surd_cmp(u, v)


@pytest.mark.parametrize("d, s", [(67, S235), (143, S235), (997, SSet.from_iterable(primes_below(37)))])
def test_key_search_stops_at_the_first_covering_k(d, s):
    # the intervals with S-smooth k <= k_max cover [0, 1], and those of
    # the S-smooth k below it do not
    fld = make_field(d)
    cert = certify_euclidean(fld, s)
    assert isinstance(cert, CoverCertificate)
    ks = list(s.smooth_upto(cert.k_max))
    assert ks[-1] == cert.k_max
    assert isinstance(covers_unit(intervals(fld, s, cert.k_max)), CoverCertificate)
    assert isinstance(covers_unit(intervals(fld, s, ks[-2])), Verdict)


def test_key_chain_keeps_the_furthest_end():
    # a nested interval does not pull the reach back, and the sweep
    # stops at the first interval that starts at or beyond the reach
    family = [(-5, 1, 0, 10), (1, 3, 1, 3), (8, 2, 1, 20), (20, 1, 1, 30)]
    chain = covering._key_chain(family, 100)
    assert chain == [family[0], family[2]]
    assert chain[-1][3] == 20


def _surd_greedy(ivs):
    """Reference greedy cover with surd_cmp alone: from reach 0, each link
    is the first interval of `ivs` with the largest hi among those with
    lo < reach.  Returns (chain, None) on a cover of [0, 1], else
    (None, first uncovered point)."""
    one = SurdValue.rational(1)
    chain, reach = [], SurdValue.rational(0)
    while surd_cmp(reach, one) <= 0:
        best = None
        for iv in ivs:
            if surd_cmp(iv.lo, reach) < 0 and (best is None or surd_cmp(iv.hi, best.hi) > 0):
                best = iv
        if best is None or surd_cmp(best.hi, reach) <= 0:
            return None, reach
        chain.append((best.j, best.k))
        reach = best.hi
    return tuple(chain), None


def _check_against_surd_greedy(ivs, d, s):
    result = covers_unit(ivs, d=d, s=s)
    chain, at = _surd_greedy(ivs)
    if chain is None:
        assert isinstance(result, Verdict) and result.kind == "unknown"
        assert SurdValue.endpoint(*result.at, ivs[0].D) == at
    else:
        assert isinstance(result, CoverCertificate)
        assert result.chain == chain
        assert result.k_max == max(k for _, k in chain)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(3), st.sampled_from([d for d in range(1, 201) if squarefree(d)])),
    st.sets(st.sampled_from((2, 3, 5, 7))),
    st.integers(min_value=1, max_value=48),
    st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6]),
    st.randoms(use_true_random=False),
)
def test_key_greedy_matches_surd_greedy_on_subsets(d, primes, k_max, drop, rnd):
    """covers_unit on a random subset of intervals(fld, s, k_max), which
    can leave gaps anywhere, gives the surd-only greedy's verdict, chain
    and first uncovered point; d = 3 has tied left ends."""
    fld = make_field(d)
    s = SSet.from_iterable(primes)
    ivs = [iv for iv in intervals(fld, s, k_max) if rnd.random() >= drop]
    if ivs:
        _check_against_surd_greedy(ivs, d, s)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.just(3), st.sampled_from([d for d in range(1, 201) if squarefree(d)])),
    st.lists(
        st.integers(min_value=1, max_value=30).flatmap(
            lambda k: st.tuples(st.integers(min_value=-3 * k, max_value=3 * k), st.just(k))
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_covers_unit_keys_any_j(d, pairs):
    """covers_unit keys intervals with j outside [0, k] too: its key bound
    grows with max |j|, so it still matches the surd-only greedy."""
    fld = make_field(d)
    order = functools.cmp_to_key(lambda u, v: surd_cmp(u.lo, v.lo) or u.k - v.k or u.j - v.j)
    ivs = sorted((Interval.make(j, k, fld.D) for j, k in pairs), key=order)
    _check_against_surd_greedy(ivs, d, S0)
    # and in any order: covers_unit sorts by left end itself
    assert covers_unit(ivs[::-1], d=d) == covers_unit(ivs, d=d)


def test_covers_unit_tied_right_ends_take_the_first():
    # at D = 3, I_1^2 = (0, 1) and I_2^3 = (1/3, 1) tie at reach 1/2; the
    # link is the first of them in left-end order
    fld = make_field(3)
    ivs = [Interval.make(j, k, fld.D) for j, k in ((0, 2), (1, 2), (2, 3), (2, 2))]
    cert = covers_unit(ivs, d=3, s=S23)
    assert cert.chain == ((0, 2), (1, 2), (2, 2)) == _surd_greedy(ivs)[0]
    # without I_2^2 the reach stalls at the first link's end, 1 = (1 + 1)/2
    fail = covers_unit(ivs[:3], d=3, s=S23)
    assert fail.at == (1, 1, 2)
    assert SurdValue.endpoint(*fail.at, fld.D) == _surd_greedy(ivs[:3])[1]


def test_covers_unit_d3():
    # width term sqrt(3/3) = 1: two unit-j intervals cover
    cert = covers_unit(intervals(make_field(3), S0, 1), d=3, s=S0)
    assert isinstance(cert, CoverCertificate)
    assert cert.chain == ((0, 1), (1, 1))


def test_covers_unit_d67():
    cert = covers_unit(intervals(make_field(67), S23, 4), d=67, s=S23)
    assert isinstance(cert, CoverCertificate)
    assert cert.k_max == 4
    assert replay_chain(67, list(cert.chain))


def test_covers_unit_failure_d10():
    # the sweep stalls just below 1/3 for every k_max
    for k_max in (4, 16, 64):
        res = covers_unit(intervals(make_field(10), S2, k_max), d=10, s=S2)
        assert isinstance(res, Verdict) and res.certificate is None and res.kind == "unknown"
        assert res.at == residual(make_field(10), S2, k_max).gaps[0][0]
        assert SurdValue.endpoint(*res.at, 40) < Fraction(1, 3)
    empty = covers_unit([])
    assert isinstance(empty, Verdict) and empty.certificate is None and empty.kind == "unknown"
    assert empty.at is None and empty.reason
    with pytest.raises(ValueError):
        covers_unit(intervals(make_field(10), S2, 4) + intervals(make_field(5), S2, 4))


def test_certify_euclidean():
    cert = certify_euclidean(make_field(5), S2)
    assert isinstance(cert, CoverCertificate)
    assert cert.k_max == 2
    out = certify_euclidean(make_field(5), S0)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"
    cert143 = certify_euclidean(make_field(143), S235)
    assert isinstance(cert143, CoverCertificate)
    assert cert143.k_max == 6
    out = certify_euclidean(make_field(10), S2)
    assert isinstance(out, Verdict) and out.certificate is None and out.kind == "unknown"


def test_theorem2_bound():
    assert theorem2_bound(make_field(163)) == 8
    assert theorem2_bound(make_field(3)) == 2
    assert theorem2_bound(make_field(5)) == 3
    # the smallest b with 3*b^2 > D, so D >= 3*(b - 1)^2
    for d in range(1, 20000):
        if squarefree(d):
            fld = make_field(d)
            b = theorem2_bound(fld)
            assert 3 * b * b > fld.D >= 3 * (b - 1) ** 2, d


def test_replay_rejects_broken_chain():
    cert = covers_unit(intervals(make_field(67), S23, 4), d=67, s=S23)
    chain = list(cert.chain)
    assert replay_chain(67, chain)
    for i in range(len(chain)):
        broken = chain[:i] + chain[i + 1:]
        # removing any link must break the sweep (each link is load-bearing)
        assert not replay_chain(67, broken)
    assert not replay_chain(67, [])
    # links run in the order given: reversed, the first link misses 0
    assert not replay_chain(67, chain[::-1])


def _surd_replay(D, chain):
    """The reference replay: the exact surd sweep over the chain's
    intervals leaves no gap, and each link raises the reach.  For links
    with 0 <= j <= k every left end is below 1, so the sweep's gap test
    is exactly "each link starts below the reach"."""
    ivs = [Interval.make(j, k, D) for j, k in chain]
    reach = SurdValue.rational(0)
    for iv in ivs:
        if surd_cmp(iv.hi, reach) <= 0:
            return False
        reach = iv.hi
    return not _sweep(_open(ivs))


def _farey(n):
    """The Farey sequence of order n in increasing order, as (h, k) links,
    by the next-term recurrence: after h/k < h'/k' comes
    (m*h' - h)/(m*k' - k) with m = (n + k) // k'."""
    links = [(0, 1)]
    h, k, h2, k2 = 0, 1, 1, n
    while k2 <= n and h2 <= k2:
        links.append((h2, k2))
        m = (n + k) // k2
        h, k, h2, k2 = h2, k2, m * h2 - h, m * k2 - k
    return links


SQUAREFREE_3000 = [d for d in range(1, 3001) if squarefree(d)]


@st.composite
def _mangled_farey_chains(draw):
    """(D, chain): a Farey family of order near k0, with links dropped,
    duplicated, shuffled or truncated; d = 3 (D = 3, r = 1, where a sign
    test can meet P + Q*r = 0) and d = 1 (D = 4) come up often."""
    d = draw(st.one_of(st.sampled_from([1, 3]), st.sampled_from(SQUAREFREE_3000)))
    D = make_field(d).D
    k0 = math.isqrt(D // 3)
    chain = _farey(draw(st.integers(min_value=max(1, k0 - 2), max_value=k0 + 2)))
    rnd = draw(st.randoms(use_true_random=False))
    for op in draw(st.lists(st.sampled_from(["drop", "duplicate", "swap", "shuffle", "truncate"]), max_size=3)):
        if not chain:
            break
        i = rnd.randrange(len(chain))
        if op == "drop":
            del chain[i]
        elif op == "duplicate":
            chain.insert(rnd.randrange(len(chain) + 1), chain[i])
        elif op == "swap" and i + 1 < len(chain):
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
        elif op == "shuffle":
            rnd.shuffle(chain)
        elif op == "truncate":
            chain = chain[:i] if rnd.random() < 0.5 else chain[i:]
    return D, chain


@settings(max_examples=300, deadline=None)
@given(_mangled_farey_chains())
def test_replay_chain_matches_the_surd_replay(case):
    D, chain = case
    assert replay_chain(D, chain) == _surd_replay(D, chain)


def _raiser(D, chain, i, k0):
    """A link (j, k), k > k0, 0 <= j <= k, gcd(j, k) = 1, whose interval
    holds the reach of chain[i] and ends before the next link's end, so
    it keeps the chain valid right after chain[i]; None if no k up to
    5*k0 + 8 has one.  Floats only pick the link: both replays are exact."""
    r = math.sqrt(3 / D)
    reach = (chain[i][0] + r) / chain[i][1]
    end = (chain[i + 1][0] + r) / chain[i + 1][1] if i + 1 < len(chain) else math.inf
    for k in range(k0 + 1, 5 * k0 + 9):
        j = math.floor(k * reach + r)
        if j <= k and math.gcd(j, k) == 1 and (j - r) / k < reach < (j + r) / k < end:
            return j, k
    return None


@st.composite
def _farey_with_inserted_links(draw):
    """(D, chain): F_k0 with links of k > k0 inserted, each one either
    right after the link whose reach it raises (the chain stays valid)
    or any link anywhere (it mostly breaks)."""
    d = draw(st.one_of(st.sampled_from([1, 3]), st.sampled_from(SQUAREFREE_3000)))
    D = make_field(d).D
    k0 = math.isqrt(D // 3)
    chain = _farey(k0)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(chain) - 1))
        link = _raiser(D, chain, i, k0) if draw(st.booleans()) else None
        if link is None:
            k = draw(st.integers(min_value=k0 + 1, max_value=3 * k0 + 3))
            link = (draw(st.integers(min_value=0, max_value=k)), k)
        chain.insert(i + 1, link)
    return D, chain


@settings(max_examples=200, deadline=None)
@given(_farey_with_inserted_links())
@example((67, [(0, 1), (1, 5), (1, 4), (1, 3), (1, 2), (2, 3), (5, 7), (3, 4), (1, 1)]))
@example((20, [(0, 1), (1, 3), (1, 2), (1, 1)]))
def test_replay_chain_of_farey_with_inserted_links(case):
    D, chain = case
    assert replay_chain(D, chain) == _surd_replay(D, chain)


def test_inserted_raisers_keep_farey_chains_valid():
    for D in (4, 20, 67, 163, 2372):
        k0 = math.isqrt(D // 3)
        chain = _farey(k0)
        for i in range(len(chain) - 1):
            link = _raiser(D, chain, i, k0)
            assert link is not None, (D, i)
            raised = chain[:i + 1] + [link] + chain[i + 1:]
            assert replay_chain(D, raised) and _surd_replay(D, raised), (D, link)


@pytest.mark.parametrize("D", [3, 4, 20, 67, 11996])
def test_replay_chain_of_farey_sequences(D):
    """F_n covers iff n >= k0, and its right ends increase iff
    (n - 1)*r < 1 (the largest |k - k'| of neighbours is n - 1), so
    exactly F_k0 and, unless D = 3 (r = 1), F_{k0+1} replay."""
    k0 = math.isqrt(D // 3)
    for n in range(1, k0 + 4):
        want = n == k0 or (n == k0 + 1 and D > 3)
        assert replay_chain(D, _farey(n)) == _surd_replay(D, _farey(n)) == want, n


@pytest.mark.parametrize("D, chain, ok", [
    # r = sqrt(3/8): I_1^2 starts left of the centre 3/5 of the reach's
    # link and still raises the reach, which I_5^6 needs
    (8, [(0, 1), (3, 5), (1, 2), (5, 6), (1, 1)], True),
    (8, [(0, 1), (3, 5), (5, 6), (1, 1)], False),
    # r = 1: I_1^2 = (0, 1) ends at the reach 1 of I_0^1 (P > 0)
    (3, [(0, 1), (1, 2), (1, 1)], False),
    # r = 1/2: I_0^1 ends at the reach 1/2 of I_1^3, left of its centre
    # (P < 0, P + Q*r = 0); I_0^2 holds 0, and replay_chain takes any j
    (12, [(0, 2), (1, 3), (0, 1), (1, 2), (1, 1)], False),
    (12, [(0, 2), (1, 3), (1, 2), (1, 1)], True),
])
def test_replay_chain_edge_cases(D, chain, ok):
    assert replay_chain(D, chain) == _surd_replay(D, chain) == ok


def test_replay_chain_rejects_k_below_one():
    for link in ((0, 0), (1, -1)):
        with pytest.raises(ValueError):
            replay_chain(67, [(0, 1), link, (1, 1)])
    # a link is checked when the replay reaches it, and it stops at the
    # first link that fails
    assert not replay_chain(67, [(1, 1), (0, 0)])


def test_theorem2_chain_is_the_farey_sequence_of_k0():
    """For all 1824 squarefree d <= 3000 the Theorem-2 chain is the Farey
    sequence of order k0 in increasing order, as `certify_euclidean`
    proves, and it replays."""
    links = 0
    for d in SQUAREFREE_3000:
        fld = make_field(d)
        k0 = theorem2_bound(fld) - 1
        chain = certify_euclidean(fld, SSet.from_iterable(primes_below(k0 + 1))).chain
        assert list(chain) == _farey(k0), d
        assert replay_chain(fld.D, chain), d
        links += len(chain)
    assert (len(SQUAREFREE_3000), links) == (1824, 833_749)


def test_residual_empty_when_covered():
    assert residual(make_field(5), S2, 2).gaps == ()


def test_residual_d15():
    res = residual(make_field(15), SSet.of(3), 81)
    assert res.D == 15 and len(res.gaps) == 1
    lo, hi = surd_gaps(res)[0]
    assert lo <= Fraction(1, 2) <= hi
    gaps5 = surd_gaps(residual(make_field(15), SSet.of(5), 125))
    assert len(gaps5) == 1
    lo, hi = gaps5[0]
    assert lo <= Fraction(1, 2) <= hi


def test_residual_d10():
    res = residual(make_field(10), S2, 64)
    assert len(res.gaps) == 2
    targets = [Fraction(1, 3), Fraction(2, 3)]
    for (lo, hi), t, gap in zip(surd_gaps(res), targets, res.gaps):
        assert lo <= t <= hi
        x, y = gap_length([gap])
        assert end_sign(x - Fraction(1, 100), y, res.D) < 0


def test_residual_symmetric():
    # y -> 1 - y maps the end (a, b, c) to (c - a, -b, c), the ends of the
    # mirrored intervals, and reverses the order of the gaps
    for d, s, k in ((10, S2, 16), (15, SSet.of(3), 27)):
        gaps = residual(make_field(d), s, k).gaps
        mirrored = [((c1 - a1, -b1, c1), (c0 - a0, -b0, c0)) for (a0, b0, c0), (a1, b1, c1) in reversed(gaps)]
        assert mirrored == list(gaps)


@given(st.sampled_from([4, 8, 16, 32, 64, 128]))
def test_residual_length_nonincreasing(k):
    fld = make_field(10)
    x0, y0 = gap_length(residual(fld, S2, k).gaps)
    x1, y1 = gap_length(residual(fld, S2, 2 * k).gaps)
    assert end_sign(x1 - x0, y1 - y0, fld.D) <= 0


@pytest.mark.parametrize("k_max", [0, -1, -64])
def test_residual_needs_positive_k_max(k_max):
    with pytest.raises(ValueError):
        residual(make_field(10), S2, k_max)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([d for d in range(1, 401) if squarefree(d)]),
    st.sets(st.sampled_from((2, 3, 5, 7))),
    st.integers(min_value=1, max_value=128),
)
def test_residual_matches_the_surd_sweep(d, primes, k_max):
    """The gaps read off the integer cover keys are the surd sweep's, end
    for end, over the same family."""
    fld, s = make_field(d), SSet.from_iterable(primes)
    assert surd_gaps(residual(fld, s, k_max)) == tuple(_sweep(_open(intervals(fld, s, k_max))))


def test_cover_monotone_in_smoothness():
    # enlarging S or k_max can only keep a cover working
    fld = make_field(23)
    assert isinstance(covers_unit(intervals(fld, S2, 2), d=23, s=S2), CoverCertificate)
    assert isinstance(covers_unit(intervals(fld, S2, 8), d=23, s=S2), CoverCertificate)
    assert isinstance(covers_unit(intervals(fld, S235, 8), d=23, s=S235), CoverCertificate)


@settings(max_examples=200)
@given(st.fractions(min_value=0, max_value=1, max_denominator=500))
def test_cover_implies_close_smooth_multiple(y):
    """A cover at k_max means every rational y in [0,1] has an S-smooth
    c <= k_max with {c*y} within the interval half-width of 0 or 1."""
    fld = make_field(67)
    k_max = 4
    assert isinstance(covers_unit(intervals(fld, S23, k_max), d=67, s=S23), CoverCertificate)
    width = SurdValue(P=0, Q=1, m=3 * fld.D, M=fld.D)  # sqrt(3/D)
    for c in S23.smooth_upto(k_max):
        frac = (c * y) % 1
        if frac < width or 1 - frac < width:
            return
    pytest.fail(f"no smooth multiple of {y} lands near an integer")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([d for d in range(1, 201) if squarefree(d)]),
    st.sets(st.sampled_from((2, 3, 5, 7))),
    st.integers(min_value=1, max_value=64),
)
def test_sweep_properties(d, primes, k_max):
    """covers_unit, replay_chain and residual agree, and the residual gaps
    are the sorted, disjoint, maximal uncovered pieces of [0, 1]."""
    fld = make_field(d)
    s = SSet.from_iterable(primes)
    ivs = intervals(fld, s, k_max)
    result = covers_unit(ivs, d=d, s=s)
    res = residual(fld, s, k_max)
    gaps = surd_gaps(res)
    assert (gaps == ()) == isinstance(result, CoverCertificate)
    zero, one = SurdValue.rational(0), SurdValue.rational(1)
    if isinstance(result, CoverCertificate):
        assert replay_chain(fld.D, list(result.chain))
        # greedy: each link is the first interval starting below the reach
        # with the largest right end
        reach = zero
        for link in result.chain:
            best = None
            for iv in ivs:
                if iv.lo < reach and (best is None or iv.hi > best.hi):
                    best = iv
            assert link == (best.j, best.k)
            reach = best.hi
    else:
        assert result.at == res.gaps[0][0]
    for (_, hi), (lo, _) in zip(gaps, gaps[1:]):
        assert surd_cmp(hi, lo) < 0
    for lo, hi in gaps:
        assert surd_cmp(zero, lo) <= 0 <= surd_cmp(hi, lo) and surd_cmp(hi, one) <= 0
        # maximal: each end is 0 or 1, or where an interval ends or starts
        assert lo == zero or any(iv.hi == lo for iv in ivs)
        assert hi == one or any(iv.lo == hi for iv in ivs)
        for iv in ivs:
            for x in (lo, hi):
                assert not surd_cmp(iv.lo, x) < 0 < surd_cmp(iv.hi, x)


def _rebuild_per_k(fld, s):
    """Reference search: rebuild and sweep the whole family for every
    S-smooth candidate k in increasing order."""
    q = s.smallest_missing_prime()
    x = 3 * q * q
    if fld.D > x:
        return Verdict("unknown", None, f"D = {fld.D} exceeds 3*q^2 = {x} for q = {q}")
    for cand in s.smooth_upto(x):
        result = covers_unit(intervals(fld, s, cand), d=fld.d, s=s)
        if isinstance(result, CoverCertificate):
            return result
    return Verdict("unknown", None, f"no cover found with S-smooth k <= {x}")


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@settings(max_examples=150, deadline=None)
@given(
    # d <= 300 makes covers (D < 3*q^2) common
    st.one_of(*(st.sampled_from([d for d in range(1, top) if squarefree(d)]) for top in (301, 3001))),
    st.integers(min_value=0, max_value=len(SMALL_PRIMES)),
    st.sets(st.sampled_from(SMALL_PRIMES)),
)
def test_one_pass_search_is_minimal(d, prefix, extra):
    """certify_euclidean equals the per-k rebuild search, and as its
    docstring proves, a cover exists iff D < 3*q^2 (D = 3*q^2 never
    occurs), its k_max is k0 = theorem2_bound - 1, and every k <= k0
    is S-smooth."""
    fld = make_field(d)
    s = SSet.from_iterable(SMALL_PRIMES[:prefix] + tuple(extra))
    result = certify_euclidean(fld, s)
    assert result == _rebuild_per_k(fld, s)
    q = s.smallest_missing_prime()
    assert fld.D != 3 * q * q
    assert isinstance(result, CoverCertificate) == (fld.D < 3 * q * q)
    if isinstance(result, CoverCertificate):
        k0 = theorem2_bound(fld) - 1
        assert result.k_max == k0
        assert s.smooth_upto(k0) == list(range(1, k0 + 1))
    else:
        assert result.kind == "unknown" and result.certificate is None


@settings(max_examples=150, deadline=None)
@given(
    # d <= 300 makes covers (D <= 3*q^2) common
    st.one_of(*(st.sampled_from([d for d in range(1, top) if squarefree(d)]) for top in (301, 3001))),
    st.integers(min_value=0, max_value=len(SMALL_PRIMES)),
    st.sets(st.sampled_from(SMALL_PRIMES)),
)
def test_no_cover_below_k0(d, prefix, extra):
    """The right end sqrt(3/D) of I_0^1 lies in no I_j^k with
    k < k0 = theorem2_bound - 1, so the family of the largest S-smooth
    k below k0 leaves it uncovered, and every cover has k_max >= k0."""
    fld = make_field(d)
    s = SSet.from_iterable(SMALL_PRIMES[:prefix] + tuple(extra))
    k0 = theorem2_bound(fld) - 1
    below = s.smooth_upto(k0 - 1)
    if below:
        assert isinstance(covers_unit(intervals(fld, s, below[-1]), d=d, s=s), Verdict)
    result = certify_euclidean(fld, s)
    if isinstance(result, CoverCertificate):
        assert result.k_max >= k0


def test_theorem2_kmax_pinned():
    """The minimal k_max of every Theorem-2 cover for squarefree d <= 1000
    (S = all primes below theorem2_bound), as pinned for the benchmark;
    each is theorem2_bound - 1, the minimal k_max that certify_euclidean
    proves for every cover."""
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    pinned = json.loads(path.read_text())["theorem2_kmax"]
    ds = [d for d in range(1, 1001) if squarefree(d)]
    assert sorted(int(d) for d in pinned) == ds
    for d in ds:
        fld = make_field(d)
        cert = certify_euclidean(fld, SSet.from_iterable(primes_below(theorem2_bound(fld))))
        assert isinstance(cert, CoverCertificate)
        assert cert.k_max == pinned[str(d)] == theorem2_bound(fld) - 1, d


def _shared_links() -> int:
    return sum(len(row) for row in covering._LINKS.values())


def test_produced_links_are_shared():
    """The Theorem-2 certificates for squarefree d <= 300 retain at most
    16 bytes per chain link (a fresh (j, k) tuple per link costs 65), and
    equal links of two certificates are one object."""
    inputs = []
    for d in range(1, 301):
        if squarefree(d):
            fld = make_field(d)
            inputs.append((fld, SSet.from_iterable(primes_below(theorem2_bound(fld)))))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = [certify_euclidean(fld, s) for fld, s in inputs]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    links = sum(len(cert.chain) for cert in certs)
    assert retained <= 16 * links, f"{retained / links:.1f} B/link"
    first = {link: link for link in certs[-2].chain}
    common = [link for link in certs[-1].chain if link in first]
    assert common and all(first[link] is link for link in common)


def test_verifier_links_are_not_shared():
    """Chains parsed from a file never enter the producer's link table,
    even with k at the cap, and a file past the cap is rejected."""
    from seuclid.certs import MAX_BUNDLE_K_MAX, certificate_from_obj, certificate_to_obj, verify_certificate_obj

    obj = certificate_to_obj(certify_euclidean(make_field(67), S23))
    size = _shared_links()
    # I_2081^2592 (2592 = 2^5*3^4) starts below the reach (3 + r)/4 of
    # I_3^4 and ends above it, past 1 - r, where I_1^1 starts
    obj["payload"]["chain"].insert(-1, {"j": 2081, "k": 2592})
    obj["payload"]["k_max"] = 2592
    assert 2592 <= MAX_BUNDLE_K_MAX
    assert verify_certificate_obj(obj) is True
    assert _shared_links() == size
    link = certificate_from_obj(obj).chain[0]
    assert covering._LINKS[link[1]][link[0]] is not link
    k = 2 * MAX_BUNDLE_K_MAX
    obj["payload"]["chain"][-2] = {"j": k - 1, "k": k}
    obj["payload"]["k_max"] = k
    assert verify_certificate_obj(obj) is False
    assert _shared_links() == size
