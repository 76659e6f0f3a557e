"""Arbitrary-precision complex arithmetic, first-order jets, tail-controlled
series summation, and the golden-ratio constants shared by every numeric
module.

All numeric code in this package runs under an explicit :class:`PrecisionPolicy`.
Values are mpmath numbers created at the policy's mantissa width plus a small
guard; error control is heuristic-with-headroom (no ball arithmetic), validated
by precision-doubling consistency tests.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

DEFAULT_MANTISSA_BITS = 128

# extra bits carried internally so that rounding noise stays below series_tol
GUARD_BITS = 16

# the most terms a series sum, or one theta pass, may take
SERIES_CAP = 200_000


class NonConvergent(Exception):
    """A series summation exceeded its term cap before meeting its tail bound."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """The working mantissa width; every tolerance is derived from it.

    series_tol bounds truncation tails of infinite sums; verify_tol is the
    coarser threshold used when asserting analytic identities numerically.
    """

    mantissa_bits: int = DEFAULT_MANTISSA_BITS

    def __post_init__(self):
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be at least 53")

    # exact mpfs: a float 2.0 ** (8 - bits) underflows to 0.0 above 1,082 bits
    @property
    def series_tol(self) -> mpmath.mpf:
        return mpmath.ldexp(1, 8 - self.mantissa_bits)

    @property
    def verify_tol(self) -> mpmath.mpf:
        return mpmath.ldexp(10, 8 - self.mantissa_bits)


# mp.prec is one process-wide setting; blocks that set it take turns
_PRECISION_LOCK = threading.RLock()


@contextmanager
def working_precision(policy: PrecisionPolicy) -> Iterator[PrecisionPolicy]:
    """Run a block at policy precision plus GUARD_BITS.  A function that
    takes a policy defaults to PrecisionPolicy(), 128 bits, and passes it
    here.

    The block holds a process-wide re-entrant lock: blocks nest within one
    thread, and blocks in different threads run one at a time rather than
    change each other's precision mid-computation."""
    with _PRECISION_LOCK:
        old = mp.prec
        mp.prec = policy.mantissa_bits + GUARD_BITS
        try:
            yield policy
        finally:
            mp.prec = old


def to_mpc(value) -> mpmath.mpc:
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / value.denominator)
    return mpmath.mpc(value)


def to_mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


class Jet:
    """A value with its partial derivatives d/dz1 and d/dz2.

    Sums, differences, products and quotients of jets, a number times a
    jet, and integer powers follow the chain rule
    (forward-mode differentiation), so a formula written for plain numbers
    also yields its gradient.  The value part is computed by the same
    operation a plain number would see, so it is bit-for-bit the plain
    result.  ``abs`` is the modulus of the value.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1, d2):
        self.value, self.d1, self.d2 = value, d1, d2

    def __abs__(self):
        return abs(self.value)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __mul__(self, other: "Jet") -> "Jet":
        return Jet(self.value * other.value,
                   self.d1 * other.value + self.value * other.d1,
                   self.d2 * other.value + self.value * other.d2)

    def __rmul__(self, other) -> "Jet":
        return Jet(other * self.value, other * self.d1, other * self.d2)

    def __truediv__(self, other: "Jet") -> "Jet":
        q = self.value / other.value
        return Jet(q, (self.d1 - q * other.d1) / other.value,
                   (self.d2 - q * other.d2) / other.value)

    def __pow__(self, n: int) -> "Jet":
        slope = n * self.value ** (n - 1)
        return Jet(self.value ** n, slope * self.d1, slope * self.d2)


class BinaryFloat:
    """A complex number (re + i im) 2^exp with integer parts of about wp bits,
    wp carried by the value rather than by any precision state.  A product, a
    sum or a small-int multiple truncates its parts to wp bits, rounding by
    less than 2^(2 - wp) of itself; a sum whose exponents differ by more than
    wp keeps the larger-exponent operand (the other lies below its last bit)
    unless that is zero."""

    __slots__ = ("re", "im", "exp", "wp")

    def __init__(self, re: int, im: int, exp: int, wp: int):
        self.re, self.im, self.exp, self.wp = re, im, exp, wp

    @classmethod
    def from_mpc(cls, z, wp: int) -> "BinaryFloat":   # z an mpc, or an exact or int zero
        if not z:
            return cls(0, 0, 0, wp)
        k = wp - mpmath.mag(z)
        return cls(z.real.to_fixed(k), z.imag.to_fixed(k), -k, wp)

    def to_mpc(self, shift: int = 0) -> mpmath.mpc:   # times 2^shift, rounded to mp.prec
        e = self.exp + shift
        return mp.make_mpc((from_man_exp(self.re, e, mp.prec, "n"),
                            from_man_exp(self.im, e, mp.prec, "n")))

    def __mul__(self, other: "BinaryFloat") -> "BinaryFloat":
        a, b, c, d = self.re, self.im, other.re, other.im
        return _rounded(a * c - b * d, a * d + b * c, self.exp + other.exp, self.wp)

    def __rmul__(self, n: int) -> "BinaryFloat":
        return _rounded(n * self.re, n * self.im, self.exp, self.wp)

    def __add__(self, other: "BinaryFloat") -> "BinaryFloat":
        x, y = (self, other) if self.exp >= other.exp else (other, self)
        d = x.exp - y.exp
        if d > self.wp:
            return x if x.re or x.im else y
        return _rounded((x.re << d) + y.re, (x.im << d) + y.im, y.exp, self.wp)

    def __neg__(self) -> "BinaryFloat":
        return BinaryFloat(-self.re, -self.im, self.exp, self.wp)

    def __sub__(self, other: "BinaryFloat") -> "BinaryFloat":
        return self + -other

    def __pow__(self, n: int) -> "BinaryFloat":   # n a power of two, by repeated squaring
        return self if n == 1 else (self * self) ** (n // 2)


def _rounded(re: int, im: int, exp: int, wp: int) -> BinaryFloat:
    s = max(re.bit_length(), im.bit_length(), wp) - wp
    return BinaryFloat(re >> s, im >> s, exp + s, wp)


@dataclass(frozen=True)
class QuadraticConstants:
    """sqrt(5), eps = (1+sqrt5)/2 and its conjugate, at working precision."""

    sqrt5: mpmath.mpf
    eps: mpmath.mpf
    eps_conj: mpmath.mpf


@functools.cache   # every psi and every reduction asks for them
def quadratic_constants(policy: PrecisionPolicy = PrecisionPolicy()) -> QuadraticConstants:
    with working_precision(policy):
        s = mpmath.sqrt(mpmath.mpf(5))
        return QuadraticConstants(sqrt5=s, eps=(1 + s) / 2, eps_conj=(1 - s) / 2)


@dataclass(frozen=True)
class SeriesSum:
    value: mpmath.mpc
    terms_used: int


def sum_series(term: Callable[[int], mpmath.mpc],
               tail_bound: Callable[[int], mpmath.mpf],
               policy: PrecisionPolicy = PrecisionPolicy()) -> SeriesSum:
    """Sum term(0) + term(1) + ... until tail_bound(N) < series_tol, taking
    at least two terms.

    tail_bound(N) must be an upper bound for |sum_{n > N} term(n)|.  Raises
    NonConvergent past SERIES_CAP terms.
    """
    with working_precision(policy) as pol:
        tol = mpmath.mpf(pol.series_tol)
        total = mpmath.mpc(0)
        for n in range(SERIES_CAP + 1):
            total += term(n)
            if n >= 1 and tail_bound(n) < tol:
                return SeriesSum(value=total, terms_used=n + 1)
        raise NonConvergent(f"series did not meet tail bound within {SERIES_CAP} terms")
