"""Kernel tests: S-part stripping, Legendre symbols, exact surd comparison."""
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seuclid.exact import (
    SSet,
    SurdValue,
    is_prime,
    legendre,
    next_prime,
    primes_below,
    s_norm_rational,
    s_part_strip,
    squarefree,
    surd_cmp,
)

S2 = SSet.of(2)
S23 = SSet.of(2, 3)


def test_is_prime_small():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_below(12) == [2, 3, 5, 7, 11]
    assert next_prime(7) == 11


def test_squarefree():
    assert squarefree(10)
    assert not squarefree(12)
    assert squarefree(143)
    assert squarefree(1)
    with pytest.raises(ValueError):
        squarefree(0)


def test_sset_basics():
    assert list(S23) == [2, 3]
    assert 2 in S23 and 5 not in S23
    assert len(SSet()) == 0
    assert not SSet()
    assert str(S23) == "{2,3}"
    with pytest.raises(ValueError):
        SSet.of(4)


def test_sset_smooth():
    assert S23.smooth_upto(12) == [1, 2, 3, 4, 6, 8, 9, 12]
    assert SSet().smooth_upto(10) == [1]
    assert S2.is_smooth(8)
    assert not S2.is_smooth(6)
    assert SSet().smallest_missing_prime() == 2
    assert S2.smallest_missing_prime() == 3
    assert SSet.of(2, 3, 5).smallest_missing_prime() == 7


def _smallest_missing_prime_reference(s):
    """The quadratic loop that `smallest_missing_prime` replaced."""
    q = 2
    while q in s.primes:
        q = next_prime(q)
    return q


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(primes_below(200))), st.integers(0, 250))
def test_sset_walk_equals_reference(primes, n):
    s = SSet.from_iterable(primes)
    assert s.smallest_missing_prime() == _smallest_missing_prime_reference(s)
    assert (n in s) == (n in primes)


def test_smallest_missing_prime_is_linear():
    # all 9,592 primes below 10^5: the old loop scanned the tuple once per prime
    s = SSet.from_iterable(primes_below(10**5))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert s.smallest_missing_prime() == 100003
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    assert 99991 in s and 99989 in s and 99990 not in s and 100003 not in s


def _smooth_closure(s, limit):
    """Reference: close {1} under multiplication by the primes of S."""
    values = [1]
    for p in s.primes:
        extended = []
        for v in values:
            w = v * p
            while w <= limit:
                extended.append(w)
                w *= p
        values.extend(extended)
    return sorted(v for v in values if v <= limit)


@pytest.mark.parametrize("primes", [(), (2,), (2, 3), (2, 3, 5, 7), (3, 11)])
def test_smooth_upto_matches_closure(primes):
    s = SSet.from_iterable(primes)
    for limit in range(2001):
        assert s.smooth_upto(limit) == _smooth_closure(s, limit)


def test_s_part_strip_examples():
    assert s_part_strip(54, S2) == 27
    assert s_part_strip(49, S2) == 49
    assert s_part_strip(360, S23) == 5
    assert s_part_strip(7, SSet()) == 7
    assert s_part_strip(1, S23) == 1
    with pytest.raises(ValueError):
        s_part_strip(0, S2)


@given(st.integers(min_value=1, max_value=10**6))
def test_s_part_strip_properties(n):
    r = s_part_strip(n, S23)
    assert n % r == 0
    assert math.gcd(r, 6) == 1
    assert S23.is_smooth(n // r)


PRIMES_200 = primes_below(200)


@given(st.integers(min_value=1, max_value=10**5), st.sets(st.sampled_from(PRIMES_200)))
def test_s_part_strip_equals_dividing_out_every_prime(n, primes):
    """The strip stops at the first prime of S above what is left of n;
    dividing out every prime of S, large ones included, gives the same."""
    reference = n
    for p in primes:
        while reference % p == 0:
            reference //= p
    assert s_part_strip(n, SSet.from_iterable(primes)) == reference


def test_s_norm_rational_examples():
    assert s_norm_rational(Fraction(54, 49), S2) == Fraction(27, 49)
    assert s_norm_rational(Fraction(8, 9), S23) == 1
    assert s_norm_rational(Fraction(7, 5), SSet()) == Fraction(7, 5)
    assert s_norm_rational(Fraction(0), S2) == 0
    with pytest.raises(ValueError):
        s_norm_rational(Fraction(-1), S2)


@given(
    st.fractions(min_value=0, max_value=100, max_denominator=1000),
    st.fractions(min_value=0, max_value=100, max_denominator=1000),
)
def test_s_norm_rational_multiplicative(q1, q2):
    assert s_norm_rational(q1 * q2, S23) == s_norm_rational(q1, S23) * s_norm_rational(q2, S23)


def test_legendre_examples():
    assert legendre(-5, 11) == -1
    assert legendre(-15, 3) == 0
    assert legendre(-7, 11) == 1
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


@given(st.integers(), st.integers(), st.sampled_from(primes_below(100)[1:]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def _surd_mp(v: SurdValue) -> mpmath.mpf:
    return (v.P + v.Q * mpmath.sqrt(v.m)) / v.M


ZERO = SurdValue.rational(0)


def test_surd_cmp_examples():
    # interval endpoints around 0.6 for D = 67
    assert surd_cmp(SurdValue.endpoint(1, 1, 2, 67), SurdValue.endpoint(2, -1, 3, 67)) > 0
    assert surd_cmp(SurdValue.endpoint(3, 0, 6, 40), SurdValue.endpoint(1, 0, 2, 40)) == 0
    assert surd_cmp(SurdValue.endpoint(1, -1, 1, 40), SurdValue.endpoint(1, 1, 2, 40)) > 0
    # irrational ends with different D do not compare: 120*132 is no square
    with pytest.raises(ValueError):
        surd_cmp(SurdValue.endpoint(0, 1, 1, 40), SurdValue.endpoint(0, 1, 1, 44))


def test_surd_value_validation():
    with pytest.raises(ValueError):
        SurdValue.endpoint(1, 2, 1, 40)
    with pytest.raises(ValueError):
        SurdValue.endpoint(1, 0, 0, 40)
    with pytest.raises(ValueError):
        SurdValue.endpoint(1, 0, 1, 2)
    with pytest.raises(ValueError):
        SurdValue(P=1, M=0)
    with pytest.raises(ValueError):
        SurdValue(P=0, Q=1, m=-2)
    # the fields are keyword-only: an old positional (j, s, k, D) call
    # cannot silently mean (P, Q, m, M)
    with pytest.raises(TypeError):
        SurdValue(1, 1, 2, 40)


def test_surd_value_canonical_form():
    v = SurdValue(P=6, Q=-4, m=5, M=10)
    assert (v.P, v.Q, v.m, v.M) == (3, -2, 5, 5)
    u = SurdValue(P=4, Q=0, m=7, M=6)
    assert (u.P, u.Q, u.m, u.M) == (2, 0, 0, 3)
    w = SurdValue(P=1, Q=3, m=9, M=4)  # (1 + 3*3)/4 = 5/2
    assert (w.P, w.Q, w.m, w.M) == (5, 0, 0, 2)
    # sqrt(3/3) = 1: the ends of I_j^k at D = 3 are rational
    assert SurdValue.endpoint(2, -1, 6, 3) == Fraction(1, 6)
    assert SurdValue.endpoint(2, -1, 6, 3).m == 0


surds = st.builds(
    SurdValue.endpoint,
    j=st.integers(min_value=-50, max_value=50),
    s=st.sampled_from([-1, 0, 1]),
    k=st.integers(min_value=1, max_value=50),
    D=st.just(40),
)


@settings(max_examples=300)
@given(surds, surds)
def test_surd_cmp_matches_mpmath(x, y):
    with mpmath.workdps(60):
        diff = _surd_mp(x) - _surd_mp(y)
        # rounding noise: a true nonzero difference here is far above 1e-30
        expected = 0 if abs(diff) < mpmath.mpf("1e-30") else int(mpmath.sign(diff))
    assert surd_cmp(x, y) == expected


@settings(max_examples=200)
@given(surds, surds, surds)
def test_surd_cmp_total_order(x, y, z):
    assert surd_cmp(x, y) == -surd_cmp(y, x)
    if surd_cmp(x, y) <= 0 and surd_cmp(y, z) <= 0:
        assert surd_cmp(x, z) <= 0


def test_surd_to_quadsurd():
    # (1 - sqrt(3/40))/3 = (40 - sqrt(120))/120 = 1/3 - sqrt(120)/120
    v = SurdValue.endpoint(1, -1, 3, 40)
    assert (v.P, v.Q, v.m, v.M) == (40, -1, 120, 120)
    assert v == Fraction(1, 3) - SurdValue(P=0, Q=1, m=120, M=120)


def test_quadsurd_arithmetic():
    r2 = SurdValue(P=0, Q=1, m=2)
    assert r2 * r2 == 2
    assert (r2 + 1) * (r2 - 1) == 1
    assert SurdValue(P=3, Q=1, m=4) == 5  # sqrt(4) folds
    assert r2 > Fraction(7, 5)
    assert r2 < Fraction(3, 2)
    assert surd_cmp(-r2, ZERO) == -1
    assert surd_cmp(SurdValue.rational(0), ZERO) == 0
    with pytest.raises(ValueError):
        r2 + SurdValue(P=0, Q=1, m=3)


def test_quadsurd_radicands_equal_up_to_a_square():
    # sqrt(8)/6 = sqrt(2)/3, and sqrt(18)/9 = sqrt(2)/3 too
    r2_3 = SurdValue(P=0, Q=1, m=2, M=3)
    r8_6 = SurdValue(P=0, Q=1, m=8, M=6)
    assert r8_6 == r2_3 and r2_3 == r8_6 and hash(r8_6) == hash(r2_3)
    assert r8_6 == SurdValue(P=0, Q=1, m=18, M=9)
    assert r8_6 - r2_3 == 0 and (r8_6 - r2_3).m == 0
    assert r8_6 + r2_3 == SurdValue(P=0, Q=2, m=2, M=3)
    assert r8_6 * r2_3 == Fraction(2, 9)
    assert (r2_3 + 1) * r8_6 == SurdValue(P=2, Q=3, m=2, M=9)
    assert r8_6 < SurdValue.rational(Fraction(1, 2)) < r8_6 + Fraction(1, 20)  # sqrt(2)/3 ~ 0.471
    assert hash(-r8_6) != hash(r8_6)
    # 2*3 is no square: sqrt(2) and sqrt(3) stay incomparable
    with pytest.raises(ValueError):
        r8_6 + SurdValue(P=0, Q=1, m=3)


def test_mixed_radicands_are_unequal():
    # a + b*sqrt(m) = a' + b'*sqrt(m') with m*m' no square forces b = b' = 0
    r2, r3 = SurdValue(P=0, Q=1, m=2), SurdValue(P=0, Q=1, m=3)
    assert r2 != r3 and not r2 == r3
    assert SurdValue(P=1, Q=1, m=2) != SurdValue(P=1, Q=1, m=3)
    assert r2 != Fraction(7, 5) and Fraction(7, 5) != r2
    mixed = [r3, SurdValue(P=1, Q=1, m=5, M=2), Fraction(1, 2)]
    assert r2 not in mixed
    assert SurdValue(P=0, Q=1, m=12, M=2) in mixed  # sqrt(12)/2 = sqrt(3)
    assert SurdValue.rational(Fraction(1, 2)) in mixed
    table = {r2: "r2", r3: "r3", SurdValue.rational(Fraction(1, 2)): "half"}
    assert table[SurdValue(P=0, Q=1, m=8, M=2)] == "r2"
    assert table[SurdValue(P=0, Q=1, m=12, M=2)] == "r3"
    assert table[Fraction(1, 2)] == "half" and table[SurdValue(P=2, M=4)] == "half"
    assert SurdValue(P=0, Q=1, m=5) not in table
    # order and arithmetic across them still raise
    for op in (lambda: r2 < r3, lambda: r2 >= r3, lambda: surd_cmp(r2, r3), lambda: r2 - r3,
               lambda: r2 * r3, lambda: sorted([r2, r3])):
        with pytest.raises(ValueError):
            op()


radicands = st.sampled_from([2, 3, 8, 12, 18, 27, 50])
mixed_surds = st.builds(
    SurdValue,
    P=st.integers(min_value=-6, max_value=6),
    Q=st.integers(min_value=-3, max_value=3),
    m=radicands,
    M=st.integers(min_value=1, max_value=6),
)


@settings(max_examples=300)
@given(mixed_surds, mixed_surds)
def test_equality_and_hash_match_mpmath(x, y):
    with mpmath.workdps(60):
        equal = abs(_surd_mp(x) - _surd_mp(y)) < mpmath.mpf("1e-30")
    assert (x == y) == equal == (y == x)
    if equal:
        assert hash(x) == hash(y)


@settings(max_examples=300)
@given(mixed_surds)
def test_floor_matches_mpmath(x):
    with mpmath.workdps(60):
        assert math.floor(x) == int(mpmath.floor(_surd_mp(x)))


@settings(max_examples=200)
@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
def test_quadsurd_sign_matches_mpmath(a, b):
    q = a + b * SurdValue(P=0, Q=1, m=3)
    with mpmath.workdps(60):
        val = (a.numerator / mpmath.mpf(a.denominator)
               + (b.numerator / mpmath.mpf(b.denominator)) * mpmath.sqrt(3))
        expected = 0 if abs(val) < mpmath.mpf("1e-30") else int(mpmath.sign(val))
    assert surd_cmp(q, ZERO) == expected
