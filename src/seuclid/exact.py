"""Exact arithmetic kernel.

S-part stripping, Legendre symbols, squarefree tests, and sign-exact
comparison of quadratic-surd interval endpoints.  Everything works over
plain integers and :class:`fractions.Fraction`; no floating point enters
any certification path.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Iterator

__all__ = [
    "SSet",
    "SurdValue",
    "QuadSurd",
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
        return p in self.primes

    def __len__(self) -> int:
        return len(self.primes)

    def __bool__(self) -> bool:
        return bool(self.primes)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.primes) + "}"

    def is_smooth(self, n: int) -> bool:
        """True iff n is a product of primes in S (1 is always smooth)."""
        return s_part_strip(n, self) == 1

    def smooth(self) -> Iterator[int]:
        """The S-smooth positive integers in ascending order, lazily; endless
        unless S is empty.

        Each n is pushed once, as m*p with p its smallest prime factor:
        from m only the primes up to m's own smallest one are tried.
        """
        heap = [1]
        while heap:
            n = heapq.heappop(heap)
            yield n
            for p in self.primes:
                heapq.heappush(heap, n * p)
                if n % p == 0:
                    break

    def smooth_upto(self, limit: int) -> list[int]:
        """All S-smooth positive integers <= limit, sorted ascending."""
        return list(takewhile(lambda n: n <= limit, self.smooth()))

    def smallest_missing_prime(self) -> int:
        q = 2
        while q in self.primes:
            q = next_prime(q)
        return q


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def s_part_strip(n: int, s: SSet) -> int:
    """Divide every factor p in S out of n completely.

    The result is coprime to every prime in S and divides n.
    """
    if n < 1:
        raise ValueError(f"s_part_strip expects a positive integer, got {n}")
    for p in s:
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


@dataclass(frozen=True)
class SurdValue:
    """The real number (j + s*sqrt(3/D))/k, held exactly.

    j is any integer, s is -1, 0 or +1, k >= 1, D >= 3.  These are the
    endpoints of the covering intervals; D is the absolute discriminant
    so the width term sqrt(3/D) is irrational except at D = 3.
    """

    j: int
    s: int
    k: int
    D: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.s not in (-1, 0, 1):
            raise ValueError("s must be -1, 0 or +1")
        if self.D < 3:
            raise ValueError("D must be at least 3")
        if self.s == 0:
            # canonical form for rationals makes equality structural
            g = math.gcd(self.j, self.k)
            if g > 1:
                object.__setattr__(self, "j", self.j // g)
                object.__setattr__(self, "k", self.k // g)

    @classmethod
    def from_rational(cls, q: Fraction | int, D: int) -> "SurdValue":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, D)

    def to_quadsurd(self) -> "QuadSurd":
        # sqrt(3/D) = sqrt(3*D)/D
        return QuadSurd(Fraction(self.j, self.k), Fraction(self.s, self.k * self.D), 3 * self.D)

    def approx(self) -> float:
        """Floating approximation, for rendering and display only."""
        return (self.j + self.s * math.sqrt(3 / self.D)) / self.k

    def __lt__(self, other: "SurdValue") -> bool:
        return surd_cmp(self, other) < 0

    def __le__(self, other: "SurdValue") -> bool:
        return surd_cmp(self, other) <= 0

    def __gt__(self, other: "SurdValue") -> bool:
        return surd_cmp(self, other) > 0

    def __ge__(self, other: "SurdValue") -> bool:
        return surd_cmp(self, other) >= 0

    def __str__(self) -> str:
        if self.s == 0:
            return f"{self.j}/{self.k}"
        sgn = "+" if self.s > 0 else "-"
        return f"({self.j} {sgn} sqrt(3/{self.D}))/{self.k}"


def surd_cmp(x: SurdValue, y: SurdValue) -> int:
    """Exact ordering of two surd values sharing one D: -1, 0 or +1.

    Reduces to the sign of P + Q*sqrt(3/D) for integers P, Q; squaring
    happens only after both terms are confirmed opposite in sign.
    """
    if x.D != y.D:
        raise ValueError(f"mismatched discriminants: {x.D} != {y.D}")
    p = x.j * y.k - y.j * x.k
    q = x.s * y.k - y.s * x.k
    if q == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if (p > 0) == (q > 0):
        return _sign(p)
    lhs = x.D * p * p
    rhs = 3 * q * q
    if lhs == rhs:
        return 0
    return _sign(p) if lhs > rhs else _sign(q)


@dataclass(frozen=True)
class QuadSurd:
    """A number a + b*sqrt(m) with rational a, b and integer radicand m >= 0.

    Used for symbolic gap-line verification and for measuring residual
    gap lengths; supports exact ring operations and sign determination.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    m: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.m < 0:
            raise ValueError("radicand must be nonnegative")
        if self.b != 0:
            r = math.isqrt(self.m)
            if r * r == self.m:
                object.__setattr__(self, "a", self.a + self.b * r)
                object.__setattr__(self, "b", Fraction(0))
                object.__setattr__(self, "m", 0)
        if self.b == 0:
            object.__setattr__(self, "m", 0)

    @classmethod
    def _coerce(cls, value: "QuadSurd | Fraction | int") -> "QuadSurd":
        if isinstance(value, QuadSurd):
            return value
        return cls(Fraction(value))

    def _join(self, other: "QuadSurd") -> tuple[int, Fraction]:
        """The common radicand m and other's b over sqrt(m).  Radicands
        m1, m2 whose product is a square r^2 share one, since
        sqrt(m2) = (r/m1)*sqrt(m1); one isqrt decides it, no factoring."""
        if not (self.m and other.m) or self.m == other.m:
            return self.m or other.m, other.b
        r = math.isqrt(self.m * other.m)
        if r * r != self.m * other.m:
            raise ValueError(f"mismatched radicands: {self.m} != {other.m}")
        return self.m, other.b * r / self.m

    def __add__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        other = self._coerce(other)
        m, b = self._join(other)
        return QuadSurd(self.a + other.a, self.b + b, m)

    __radd__ = __add__

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.m)

    def __sub__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        return self._coerce(other) - self

    def __mul__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        other = self._coerce(other)
        m, b = self._join(other)
        return QuadSurd(self.a * other.a + self.b * b * m, self.a * b + self.b * other.a, m)

    __rmul__ = __mul__

    def sign(self) -> int:
        if self.b == 0:
            return _sign(self.a.numerator)
        if self.a == 0:
            return _sign(self.b.numerator)
        sa = _sign(self.a.numerator)
        sb = _sign(self.b.numerator)
        if sa == sb:
            return sa
        lhs = self.a * self.a
        rhs = self.b * self.b * self.m
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def _cmp(self, other: "QuadSurd | Fraction | int") -> int:
        return (self - self._coerce(other)).sign()

    def __lt__(self, other: "QuadSurd | Fraction | int") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "QuadSurd | Fraction | int") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "QuadSurd | Fraction | int") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "QuadSurd | Fraction | int") -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QuadSurd, Fraction, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self) -> int:
        # b^2*m and the sign of b agree across radicands equal up to a square
        return hash((self.a, self.b * self.b * self.m, self.b > 0))

    def approx(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.m})"
