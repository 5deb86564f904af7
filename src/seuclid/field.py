"""The complex quadratic field K = Q(sqrt(-d)).

Discriminant and integral basis, exact field elements in basis
coordinates, norm and S-norm, and reduction into the fundamental
domain F = {x + y*w : 0 <= x, y <= 1}.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import SSet, s_norm_rational, s_part_strip, squarefree

__all__ = [
    "QuadField",
    "KElement",
    "make_field",
    "norm",
    "s_norm",
    "reduce_to_fundamental",
    "denom_s",
]


@dataclass(frozen=True)
class QuadField:
    """K = Q(sqrt(-d)) for squarefree d > 0.

    half_basis is True when -d = 1 (mod 4), in which case the ring of
    integers is Z[w] with w = (1 + sqrt(-d))/2 and the absolute
    discriminant D equals d; otherwise w = sqrt(-d) and D = 4d.  Either
    way w^2 = h*w - e and D = 4*e - h^2, with (h, e) = (1, (1+d)/4) or (0, d).
    """

    d: int
    D: int
    half_basis: bool
    h: int
    e: int

    def norm_form(self, A: int, B: int) -> int:
        """N(A + B*w) = A^2 + h*A*B + e*B^2."""
        return A * (A + self.h * B) + self.e * B * B

    def element(self, a: int, b: int = 0, c: int = 1) -> "KElement":
        return KElement(a, b, c, self)

    @property
    def w(self) -> "KElement":
        return self.element(0, 1)

    @property
    def zero(self) -> "KElement":
        return self.element(0)

    def __str__(self) -> str:
        return f"Q(sqrt(-{self.d}))"


@functools.lru_cache(maxsize=1024)
def make_field(d: int) -> QuadField:
    """The one shared QuadField for d, built on the first call.

    The decision pipeline and the checker ask for the same few fields
    again and again (a survey of the squarefree d <= 200 for four S
    decides each d several times), so each d is checked for squarefreeness
    and built once, and the frozen field is reused after that.  The
    cache holds at most 1024 fields, least recently used first out, so
    a stream of untrusted certificate files with distinct d cannot grow
    it for good.  A ValueError (d < 1, or d not squarefree) is not
    cached: every such call raises it again.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if not squarefree(d):
        raise ValueError(f"d must be squarefree, got {d}")
    h, e = (1, (1 + d) // 4) if (-d) % 4 == 1 else (0, d)
    return QuadField(d=d, D=4 * e - h * h, half_basis=h == 1, h=h, e=e)


@dataclass(frozen=True)
class KElement:
    """The element (a + b*w)/c of K, stored exactly in basis coordinates.

    Canonical form divides out gcd(a, b, c) and keeps c positive, so
    structural equality is value equality.
    """

    a: int
    b: int
    c: int
    field: QuadField

    def __post_init__(self) -> None:
        if self.c == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        a, b, c = self.a, self.b, self.c
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def _check_same_field(self, other: "KElement") -> None:
        if self.field != other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other: "KElement | int") -> "KElement":
        if isinstance(other, int):
            other = self.field.element(other)
        self._check_same_field(other)
        return KElement(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            self.field,
        )

    __radd__ = __add__

    def __neg__(self) -> "KElement":
        return KElement(-self.a, -self.b, self.c, self.field)

    def __sub__(self, other: "KElement | int") -> "KElement":
        return self + (-other if isinstance(other, KElement) else -other)

    def __rsub__(self, other: int) -> "KElement":
        return (-self) + other

    def __mul__(self, other: "KElement | int") -> "KElement":
        if isinstance(other, int):
            return KElement(self.a * other, self.b * other, self.c, self.field)
        self._check_same_field(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        bb = b1 * b2  # times w^2 = h*w - e
        a = a1 * a2 - self.field.e * bb
        b = a1 * b2 + a2 * b1 + self.field.h * bb
        return KElement(a, b, self.c * other.c, self.field)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> Fraction:
        return norm(self)

    def real_imag_squared(self) -> tuple[Fraction, Fraction]:
        """(Re, Im^2) of the complex number, both exact rationals."""
        re = Fraction(2 * self.a + self.field.h * self.b, 2 * self.c)
        im2 = Fraction(self.b * self.b * self.field.D, 4 * self.c * self.c)
        return re, im2

    def __str__(self) -> str:
        if self.b == 0:
            core = str(self.a)
        else:
            bw = {1: "w", -1: "-w"}.get(self.b, f"{self.b}w")
            if self.a == 0:
                core = bw
            else:
                core = f"{self.a}{'+' if self.b > 0 else ''}{bw}"
        return f"({core})/{self.c}" if self.c != 1 else core


def norm(x: KElement) -> Fraction:
    """The field norm N((a+bw)/c), an exact nonnegative rational."""
    return Fraction(x.field.norm_form(x.a, x.b), x.c * x.c)


def s_norm(x: KElement, s: SSet) -> Fraction:
    """The S-norm: N(x) with all prime factors from S deleted."""
    return s_norm_rational(norm(x), s)


def reduce_to_fundamental(x: KElement) -> tuple[KElement, KElement]:
    """Write x = x' + gamma with gamma integral and x' in F.

    Subtracts the floor of each basis coordinate; x' has coordinates in
    [0, 1) and gamma has denominator 1.
    """
    xp = KElement(x.a % x.c, x.b % x.c, x.c, x.field)
    gamma = x.field.element(x.a // x.c, x.b // x.c)
    return xp, gamma


def denom_s(x: KElement, s: SSet) -> int:
    """Minimal S-smooth denominator of x, which must lie in O_S."""
    if s_part_strip(x.c, s) != 1:
        raise ValueError(f"{x} is not an S-integer for S = {s}")
    return x.c
