"""Exact arithmetic kernel.

S-part stripping, Legendre symbols, squarefree tests, and one exact
real type, :class:`SurdValue` = (P + Q*sqrt(m))/M in integers, for both
the covering-interval ends and the gap-line piece ends, with its
sign-exact comparison `surd_cmp`.  Everything works over plain integers
and :class:`fractions.Fraction`; no floating point enters any
certification path.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "SSet",
    "SurdValue",
    "is_prime",
    "primes_below",
    "squarefree",
    "s_part_strip",
    "s_norm_rational",
    "legendre",
    "surd_cmp",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_below(bound: int) -> list[int]:
    return [p for p in range(2, bound) if is_prime(p)]


def squarefree(d: int) -> bool:
    """True iff no prime square divides d (d >= 1)."""
    if d < 1:
        raise ValueError(f"squarefree expects a positive integer, got {d}")
    f = 2
    while f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return False
        f += 1
    return True


@dataclass(frozen=True)
class SSet:
    """A finite (possibly empty) set of rational primes.

    Membership in the multiplicative semigroup T of S-smooth positive
    integers is tested with :meth:`is_smooth`.
    """

    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ps = tuple(sorted(set(self.primes)))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    @classmethod
    def of(cls, *primes: int) -> "SSet":
        return cls(tuple(primes))

    @classmethod
    def from_iterable(cls, primes: Iterable[int]) -> "SSet":
        return cls(tuple(primes))

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __contains__(self, p: int) -> bool:
        i = bisect.bisect_left(self.primes, p)
        return i < len(self.primes) and self.primes[i] == p

    def __len__(self) -> int:
        return len(self.primes)

    def __bool__(self) -> bool:
        return bool(self.primes)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.primes) + "}"

    def is_smooth(self, n: int) -> bool:
        """True iff n is a product of primes in S (1 is always smooth)."""
        return s_part_strip(n, self) == 1

    def smooth_upto(self, limit: int) -> list[int]:
        """All S-smooth positive integers <= limit, sorted ascending."""
        return [n for n in range(1, limit + 1) if self.is_smooth(n)]

    def smallest_missing_prime(self) -> int:
        """The least prime not in S, by one walk of the ascending primes
        of S: linear in |S|.  They are known prime, so only the integers
        strictly between two of them are tested, and past the last one
        `next_prime` answers."""
        q = 1
        for p in self.primes:
            for n in range(q + 1, p):
                if is_prime(n):
                    return n
            q = p
        return next_prime(q)


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def s_part_strip(n: int, s: SSet) -> int:
    """Divide every factor p in S out of n completely.

    The result is coprime to every prime in S and divides n.  The primes
    of S are ascending, so the loop stops at the first p > n: no such p
    divides n >= 1.
    """
    if n < 1:
        raise ValueError(f"s_part_strip expects a positive integer, got {n}")
    for p in s:
        if p > n:
            break
        while n % p == 0:
            n //= p
    return n


def s_norm_rational(q: Fraction, s: SSet) -> Fraction:
    """Delete the primes of S from numerator and denominator of q >= 0."""
    if q < 0:
        raise ValueError(f"s_norm_rational expects a nonnegative rational, got {q}")
    if q == 0:
        return Fraction(0)
    return Fraction(s_part_strip(q.numerator, s), s_part_strip(q.denominator, s))


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n/p) for an odd prime p: 1, 0 or -1."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime, got {p}")
    n %= p
    if n == 0:
        return 0
    r = pow(n, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True, kw_only=True, eq=False, slots=True)
class SurdValue:
    """The real number (P + Q*sqrt(m))/M, held exactly in integers.

    The covering-interval ends (j +/- sqrt(3/D))/k are
    (j*D +/- sqrt(3*D))/(k*D) (see `endpoint`); gap-line ends such as
    1/2 - sqrt(2)/6 are (3 - sqrt(2))/6.  The form is canonical: M >= 1,
    gcd(P, Q, M) = 1, m = 0 exactly when Q = 0, and m is no perfect
    square (its root folds into P).  m keeps its square factors, so
    sqrt(8)/6 and sqrt(2)/3 are one number with two radicands: radicands
    whose product is a square share one, and a single isqrt decides it.
    Numbers whose radicands are not equal up to a square are unequal,
    since sqrt(m) and sqrt(m') are then independent over Q; ordering
    and arithmetic across them raise ValueError.  ints and Fractions mix
    in as rationals.
    """

    P: int
    Q: int = 0
    m: int = 0
    M: int = 1

    def __post_init__(self) -> None:
        P, Q, m, M = self.P, self.Q, self.m, self.M
        if M < 1 or m < 0:
            raise ValueError(f"need M >= 1 and m >= 0, got M = {M}, m = {m}")
        r = math.isqrt(m)
        if r * r != m:
            if Q == 1 or Q == -1:
                return  # already canonical: gcd(P, Q, M) = 1
            if Q == 0:
                m = 0
        else:
            P, Q, m = P + Q * r, 0, 0
        g = math.gcd(P, Q, M)
        for name, value in (("P", P // g), ("Q", Q // g), ("m", m), ("M", M // g)):
            object.__setattr__(self, name, value)

    @classmethod
    def endpoint(cls, j: int, s: int, k: int, D: int) -> "SurdValue":
        """(j + s*sqrt(3/D))/k for s in (-1, 0, 1), k >= 1 and D >= 3:
        an end of the covering interval I_j^k, or j/k with s = 0."""
        if s not in (-1, 0, 1) or k < 1 or D < 3:
            raise ValueError(f"not an interval end: j = {j}, s = {s}, k = {k}, D = {D}")
        # the hot path builds the fields as the generated __init__ does,
        # without its keyword-argument dict
        value = _new(cls)
        _set(value, "P", j * D)
        _set(value, "Q", s)
        _set(value, "m", 3 * D)
        _set(value, "M", k * D)
        value.__post_init__()
        return value

    @classmethod
    def rational(cls, q: Fraction | int) -> "SurdValue":
        q = Fraction(q)
        return cls(P=q.numerator, M=q.denominator)

    def approx(self) -> float:
        """Floating approximation, for rendering and display only."""
        return (self.P + self.Q * math.sqrt(self.m)) / self.M

    def __add__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        m, (P, Q, M) = _common(self, _coerce(other))
        return SurdValue(P=self.P * M + P * self.M, Q=self.Q * M + Q * self.M, m=m, M=self.M * M)

    __radd__ = __add__

    def __neg__(self) -> "SurdValue":
        return SurdValue(P=-self.P, Q=-self.Q, m=self.m, M=self.M)

    def __sub__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        return self + -_coerce(other)

    def __rsub__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        return -self + other

    def __mul__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        m, (P, Q, M) = _common(self, _coerce(other))
        return SurdValue(P=self.P * P + self.Q * Q * m, Q=self.P * Q + self.Q * P, m=m, M=self.M * M)

    __rmul__ = __mul__

    def __floor__(self) -> int:
        # m is no square, so Q*sqrt(m) lies in [t, t + 1) for the integer t
        # below; then self lies in [(P + t)/M, (P + t + 1)/M), and no
        # integer exceeds floor((P + t)/M) there
        s = math.isqrt(self.Q * self.Q * self.m)
        return (self.P + (s if self.Q >= 0 else -s - 1)) // self.M

    def __lt__(self, other: "SurdValue | Fraction | int") -> bool:
        return surd_cmp(self, _coerce(other)) < 0

    def __le__(self, other: "SurdValue | Fraction | int") -> bool:
        return surd_cmp(self, _coerce(other)) <= 0

    def __gt__(self, other: "SurdValue | Fraction | int") -> bool:
        return surd_cmp(self, _coerce(other)) > 0

    def __ge__(self, other: "SurdValue | Fraction | int") -> bool:
        return surd_cmp(self, _coerce(other)) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SurdValue, Fraction, int)):
            return NotImplemented
        other = _coerce(other)
        over = _over(other, self.m or other.m)
        if over is None:
            return False  # sqrt(m) and sqrt(m') are independent over Q
        P, Q, M = over
        return self.P * M == P * self.M and self.Q * M == Q * self.M

    def __hash__(self) -> int:
        # equal numbers share P/M, (Q/M)^2*m and the sign of Q; a rational
        # hashes like the Fraction it equals
        if not self.Q:
            return hash(Fraction(self.P, self.M))
        return hash((Fraction(self.P, self.M), Fraction(self.Q * self.Q * self.m, self.M * self.M), self.Q > 0))

    def __str__(self) -> str:
        if not self.Q:
            return str(Fraction(self.P, self.M))
        root = f"sqrt({self.m})" if abs(self.Q) == 1 else f"{abs(self.Q)}*sqrt({self.m})"
        return f"({self.P} {'+' if self.Q > 0 else '-'} {root})/{self.M}"


_new, _set = object.__new__, object.__setattr__


def _coerce(value: SurdValue | Fraction | int) -> SurdValue:
    return value if isinstance(value, SurdValue) else SurdValue.rational(value)


def _over(y: SurdValue, m: int) -> tuple[int, int, int] | None:
    """(P, Q, M) with y = (P + Q*sqrt(m))/M, for m = y.m, m = 0 = y.Q or
    y.m = 0; else (m > 0) when m*y.m is a square r^2, from
    sqrt(y.m) = (r/m)*sqrt(m); None when it is not."""
    if y.m == m or not y.m:
        return y.P, y.Q, y.M
    r = math.isqrt(m * y.m)
    if r * r != m * y.m:
        return None
    return y.P * m, y.Q * r, y.M * m


def _common(x: SurdValue, y: SurdValue) -> tuple[int, tuple[int, int, int]]:
    """One radicand m for x and y, and y's (P, Q, M) over it (x's are its
    own fields); ValueError when the radicands are not equal up to a
    square."""
    m = x.m or y.m
    over = _over(y, m)
    if over is None:
        raise ValueError(f"mismatched radicands: {x.m} != {y.m}")
    return m, over


def surd_cmp(x: SurdValue, y: SurdValue) -> int:
    """Exact order of two surd values: -1, 0 or +1.

    x - y = (p + q*sqrt(m))/(x.M*y.M) for integers p, q; squaring happens
    only after the two terms are confirmed opposite in sign, and then
    p^2 != m*q^2, since the common radicand m is no square.  Raises
    ValueError when the radicands are not equal up to a square.
    """
    xM, yM = x.M, y.M
    if x.m == y.m:
        m = x.m
        p = x.P * yM - y.P * xM
        q = x.Q * yM - y.Q * xM
    else:
        m, (P, Q, M) = _common(x, y)
        p = x.P * M - P * xM
        q = x.Q * M - Q * xM
    if p > 0:
        return 1 if q >= 0 or p * p > m * q * q else -1
    if p < 0:
        return -1 if q <= 0 or p * p > m * q * q else 1
    return _sign(q)
