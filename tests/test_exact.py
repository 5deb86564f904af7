"""Kernel tests: S-part stripping, Legendre symbols, exact surd comparison."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seuclid.exact import (
    QuadSurd,
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
    # the lazy enumeration is strictly ascending and runs on past any limit
    it = s.smooth()
    head = [next(it) for _ in range(len(_smooth_closure(s, 2000)))]
    assert head == _smooth_closure(s, 2000)
    if primes:
        assert next(it) > 2000
    else:
        assert next(it, None) is None


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
    return (v.j + v.s * mpmath.sqrt(mpmath.mpf(3) / v.D)) / v.k


def test_surd_cmp_examples():
    # interval endpoints around 0.6 for D = 67
    assert surd_cmp(SurdValue(1, 1, 2, 67), SurdValue(2, -1, 3, 67)) > 0
    assert surd_cmp(SurdValue(3, 0, 6, 40), SurdValue(1, 0, 2, 40)) == 0
    assert surd_cmp(SurdValue(1, -1, 1, 40), SurdValue(1, 1, 2, 40)) > 0
    with pytest.raises(ValueError):
        surd_cmp(SurdValue(0, 0, 1, 40), SurdValue(0, 0, 1, 44))


def test_surd_value_validation():
    with pytest.raises(ValueError):
        SurdValue(1, 2, 1, 40)
    with pytest.raises(ValueError):
        SurdValue(1, 0, 0, 40)
    with pytest.raises(ValueError):
        SurdValue(1, 0, 1, 2)


surds = st.builds(
    SurdValue,
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
    v = SurdValue(1, -1, 3, 40)
    q = v.to_quadsurd()
    # (1 - sqrt(3/40))/3 = 1/3 - sqrt(120)/120
    assert q == QuadSurd(Fraction(1, 3), Fraction(-1, 120), 120)


def test_quadsurd_arithmetic():
    r2 = QuadSurd(Fraction(0), Fraction(1), 2)
    assert r2 * r2 == 2
    assert (r2 + 1) * (r2 - 1) == 1
    assert QuadSurd(Fraction(3), Fraction(1), 4) == 5  # sqrt(4) folds
    assert r2 > Fraction(7, 5)
    assert r2 < Fraction(3, 2)
    assert (-r2).sign() == -1
    assert QuadSurd(Fraction(0)).sign() == 0
    with pytest.raises(ValueError):
        r2 + QuadSurd(Fraction(0), Fraction(1), 3)


def test_quadsurd_radicands_equal_up_to_a_square():
    # sqrt(8)/6 = sqrt(2)/3, and sqrt(18)/9 = sqrt(2)/3 too
    r2_3 = QuadSurd(Fraction(0), Fraction(1, 3), 2)
    r8_6 = QuadSurd(Fraction(0), Fraction(1, 6), 8)
    assert r8_6 == r2_3 and r2_3 == r8_6 and hash(r8_6) == hash(r2_3)
    assert r8_6 == QuadSurd(Fraction(0), Fraction(1, 9), 18)
    assert r8_6 - r2_3 == 0 and (r8_6 - r2_3).m == 0
    assert r8_6 + r2_3 == QuadSurd(Fraction(0), Fraction(2, 3), 2)
    assert r8_6 * r2_3 == Fraction(2, 9)
    assert (r2_3 + 1) * r8_6 == QuadSurd(Fraction(2, 9), Fraction(1, 3), 2)
    assert r8_6 < QuadSurd(Fraction(1, 2)) < r8_6 + Fraction(1, 20)  # sqrt(2)/3 ~ 0.471
    assert hash(-r8_6) != hash(r8_6)
    # 2*3 is no square: sqrt(2) and sqrt(3) stay incomparable
    with pytest.raises(ValueError):
        r8_6 + QuadSurd(Fraction(0), Fraction(1), 3)


@settings(max_examples=200)
@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
def test_quadsurd_sign_matches_mpmath(a, b):
    q = QuadSurd(a, b, 3)
    with mpmath.workdps(60):
        val = (a.numerator / mpmath.mpf(a.denominator)
               + (b.numerator / mpmath.mpf(b.denominator)) * mpmath.sqrt(3))
        expected = 0 if abs(val) < mpmath.mpf("1e-30") else int(mpmath.sign(val))
    assert q.sign() == expected
