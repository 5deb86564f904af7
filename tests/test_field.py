"""Field model tests: discriminants, norms, reduction, S-integer denominators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seuclid.exact import SSet, squarefree
from seuclid.field import KElement, QuadField, denom_s, make_field, norm, reduce_to_fundamental, s_norm

S2 = SSet.of(2)
S3 = SSet.of(3)

F5 = make_field(5)
F10 = make_field(10)
F15 = make_field(15)
F35 = make_field(35)


def test_make_field():
    assert (F5.D, F5.half_basis) == (20, False)
    assert (F15.D, F15.half_basis) == (15, True)
    assert (F10.D, F10.half_basis) == (40, False)
    assert (F35.D, F35.half_basis) == (35, True)
    # w^2 = h*w - e, and D = 4*e - h^2
    for fld, h, e in ((F5, 0, 5), (F10, 0, 10), (F15, 1, 4), (F35, 1, 9)):
        assert (fld.h, fld.e) == (h, e)
        assert fld.w * fld.w == fld.w * h - e
        assert fld.D == 4 * e - h * h
    with pytest.raises(ValueError):
        make_field(12)
    with pytest.raises(ValueError):
        make_field(0)


def test_make_field_shares_one_field_per_d():
    assert make_field(35) is make_field(35)
    assert make_field(35) == QuadField(d=35, D=35, half_basis=True, h=1, e=9)
    assert make_field(10) == QuadField(d=10, D=40, half_basis=False, h=0, e=10)


@pytest.mark.parametrize("d", [0, -3, 12])
def test_make_field_errors_are_not_cached(d):
    for _ in range(2):
        with pytest.raises(ValueError):
            make_field(d)


def test_make_field_cache_is_bounded():
    bound = make_field.cache_info().maxsize
    assert bound == 1024
    ds = [d for d in range(1, 3001) if squarefree(d)]
    assert len(ds) > bound
    make_field.cache_clear()
    for d in ds:
        make_field(d)
        assert make_field.cache_info().currsize <= bound
    assert make_field.cache_info().currsize == bound


def test_element_canonical_form():
    x = KElement(2, 2, 2, F5)
    assert (x.a, x.b, x.c) == (1, 1, 1)
    y = KElement(1, -1, -2, F5)
    assert (y.a, y.b, y.c) == (-1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        KElement(1, 0, 0, F5)


def test_norm_examples():
    assert norm(KElement(3, 3, 7, F5)) == Fraction(54, 49)
    assert norm(F5.zero) == 0
    assert norm(KElement(1, 1, 2, F15)) == Fraction(3, 2)
    # integer basis: N(a + b*sqrt(-d)) = a^2 + d*b^2
    assert norm(KElement(2, 3, 1, F10)) == 4 + 10 * 9


def test_s_norm_examples():
    assert s_norm(KElement(3, 3, 7, F5), S2) == Fraction(27, 49)
    assert s_norm(KElement(1, 1, 2, F15), S3) == Fraction(1, 2)
    x = KElement(3, 3, 7, F5)
    assert s_norm(x, SSet()) == norm(x)


def test_reduce_to_fundamental():
    xp, gamma = reduce_to_fundamental(KElement(13, 7, 2, F5))
    assert xp == KElement(1, 1, 2, F5)
    assert gamma == KElement(6, 3, 1, F5)
    x = KElement(1, 1, 2, F5)
    assert reduce_to_fundamental(x) == (x, F5.zero)
    xp, gamma = reduce_to_fundamental(KElement(0, -1, 3, F10))
    assert xp == KElement(0, 2, 3, F10)
    assert gamma == KElement(0, -1, 1, F10)


def test_denom_s():
    assert denom_s(KElement(2, 2, 2, F5), S2) == 1
    assert denom_s(KElement(1, 1, 2, F5), S2) == 2
    assert denom_s(KElement(1, 2, 5, F35), SSet.of(5)) == 5
    with pytest.raises(ValueError):
        denom_s(KElement(1, 1, 3, F5), S2)


elements5 = st.builds(
    KElement,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
    st.just(F5),
)
elements15 = st.builds(
    KElement,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
    st.just(F15),
)


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(elements5, elements5), st.tuples(elements15, elements15)
))
def test_norm_multiplicative(pair):
    x, y = pair
    assert norm(x * y) == norm(x) * norm(y)


@given(st.one_of(elements5, elements15))
def test_norm_nonnegative(x):
    n = norm(x)
    assert n >= 0
    assert (n == 0) == x.is_zero()


@given(st.one_of(elements5, elements15))
def test_reduce_round_trip(x):
    xp, gamma = reduce_to_fundamental(x)
    assert xp + gamma == x
    assert gamma.c == 1
    assert 0 <= xp.a < xp.c or xp.c == 1
    assert 0 <= xp.b < xp.c or xp.c == 1


@given(st.one_of(elements5, elements15))
def test_norm_matches_complex_embedding(x):
    re, im2 = x.real_imag_squared()
    assert re * re + im2 == norm(x)


@settings(max_examples=300)
@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([1, 5, 7, 11, 35, 49]),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([1, 2, 4, 8]),
)
def test_snorm_bounded_by_scaled_norm(a, b, c, aa, bb, cc):
    """S-norm of xi - alpha is at most denom_s(alpha)^2 times the norm,
    when the denominator of xi is coprime to S."""
    xi = KElement(a, b, c, F15)
    alpha = KElement(aa, bb, cc, F15)
    diff = xi - alpha
    assert s_norm(diff, S2) <= denom_s(alpha, S2) ** 2 * norm(diff)


def test_integral_elements_have_integer_norms():
    for a in range(-5, 6):
        for b in range(-5, 6):
            for fld in (F5, F15):
                alpha = fld.element(a, b)
                assert norm(alpha).denominator == 1
                assert s_norm(alpha, S2) <= norm(alpha)
