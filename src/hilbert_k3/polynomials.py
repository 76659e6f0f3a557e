"""Exact polynomial arithmetic over Q and the exact primitives built on it.

* `SparsePoly`: multivariate polynomials over Q, each exponent vector packed
  into one int key, FIELD bits per variable with the last most significant,
  and an integral coefficient stored as an int.  Key order is lex order, so
  a leading term is a `max`, a product adds keys and division
  (`divmod_exact`) tests divisibility with one mask; the top bit of each
  field is a guard bit, and an exponent that would reach it raises
  OverflowError.  They carry the icosahedral invariants (degree 30 in 3
  variables), the PDE's elimination in (X, Y), the quintic locus and the
  lattice forms.  `rows` is the one bridge from two variables to one.
* `UniPoly`: the one polynomial in one variable, a primitive integer
  coefficient list times a rational scale, with mul, remainder, dividing out
  a factor, gcd, Yun's square-free decomposition, derivative, affine
  substitution and reversal.
* `RationalFunction`: the one rational function in one variable, a pair of
  UniPolys in lowest terms, the denominator primitive with a positive leading
  coefficient; `reduced` gives that pair.  It carries the
  coefficients of differential operators over Q(t), among them the restricted
  equation that the elimination reads off on Y = 0.
* `FormalSeries`: the one truncated Laurent series over Q, with tracked
  precision, stored as UniPoly is (a scale times primitive ints, truncated at
  the precision): Frobenius solutions and q-expansions.
  Products use UniPoly's integer convolution `_convolve`; `inverse` and
  `multiply_rational` divide by the fraction-free recurrence `_divide_ints`.
* `gauss_jordan`: exact, fraction-free Gauss-Jordan elimination over Q.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

Exponent = tuple[int, ...]

# bits per variable in a packed key; the top bit of each field is a guard bit,
# so an exponent is at most _MASK, and two variables fit one 30-bit int digit
FIELD = 15
_MASK = (1 << FIELD - 1) - 1


@functools.cache
def _guards(n: int) -> int:
    """The guard bits of n packed fields."""
    return sum(_MASK + 1 << FIELD * i for i in range(n))


def _stored(c):
    """A coefficient as stored: an int when it is integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


class SparsePoly:
    """A polynomial in named variables over Q: `packed` maps each exponent
    vector, packed into one int, to its coefficient, an int when it is
    integral and else a Fraction.  `terms` reads it keyed by exponent tuples."""

    __slots__ = ("vars", "packed")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponent, Fraction] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        self.packed: dict[int, int | Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if not all(0 <= e <= _MASK for e in expo):
                raise OverflowError(f"exponent {tuple(expo)} outside the {FIELD}-bit fields")
            if c := Fraction(coeff):
                self.packed[sum(e << FIELD * i for i, e in enumerate(expo))] = _stored(c)

    @property
    def terms(self) -> Mapping[Exponent, int | Fraction]:
        """A read-only view of the terms keyed by exponent tuples."""
        shifts = range(0, FIELD * len(self.vars), FIELD)
        return MappingProxyType({tuple(k >> s & _MASK for s in shifts): c
                                 for k, c in self.packed.items()})

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "SparsePoly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        return cls._of(tuple(variables), {1 << FIELD * variables.index(name): 1})

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly) and self.vars == other.vars
                and self.packed == other.packed)

    def term_count(self) -> int:
        return len(self.packed)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def split_content(self) -> tuple[Fraction, "SparsePoly"]:
        """(c, p) with self == c p, c >= 0 and p's coefficients coprime ints."""
        den = math.lcm(*(c.denominator for c in self.packed.values()))
        g = math.gcd(*(c.numerator * (den // c.denominator) for c in self.packed.values()))
        if g == den == 1:
            return Fraction(1), self
        return Fraction(g, den), SparsePoly._of(self.vars, {k: c * den // g
                                                            for k, c in self.packed.items()})

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return SparsePoly.const(self.vars, other)

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict) -> "SparsePoly":
        """Wrap packed terms, zeros dropped and the rest stored as `_stored` does."""
        res = cls.__new__(cls)
        res.vars, res.packed = variables, terms
        if not {int}.issuperset(map(type, terms.values())) or 0 in terms.values():
            res.packed = {k: _stored(c) for k, c in terms.items() if c}
        return res

    def __add__(self, other) -> "SparsePoly":
        out = dict(self.packed)
        for k, c in self._coerce(other).packed.items():
            out[k] = out.get(k, 0) + c
        return SparsePoly._of(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._of(self.vars, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)) and other:
            return SparsePoly._of(self.vars, {k: c * other for k, c in self.packed.items()})
        out: dict[int, int | Fraction] = {}
        pairs = self._coerce(other).packed.items()   # a zero constant has no terms
        for k1, c1 in self.packed.items():
            for k2, c2 in pairs:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        # in lex order led by any one field the product of the leads never
        # cancels, so a field that overflows leaves its guard bit in some key
        if functools.reduce(operator.or_, out, 0) & _guards(len(self.vars)):
            raise OverflowError(f"a product exponent passes its {FIELD}-bit field")
        return SparsePoly._of(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return functools.reduce(operator.mul, [self] * n, SparsePoly.const(self.vars, 1))

    # ----------------------------------------------------------- evaluation

    def evaluate(self, values: Mapping[str, object]):
        """Full evaluation; values may be Fractions, ints, or mpmath numbers."""
        if not all(v in values for v in self.vars):
            raise ValueError(f"missing values for {[v for v in self.vars if v not in values]}")
        return sum(math.prod((values[name] ** power for name, power in zip(self.vars, expo)
                              if power), start=coeff)
                   for expo, coeff in self.terms.items())

    def reduce_square(self, name: str, value) -> "SparsePoly":
        """Rewrite name**2 -> value (for algebraic elements such as sqrt5)."""
        value, shift = Fraction(value), FIELD * self.vars.index(name)
        acc: dict[int, int | Fraction] = {}
        for k, coeff in self.packed.items():
            q = (k >> shift & _MASK) // 2
            key = k - (2 * q << shift)
            acc[key] = acc.get(key, 0) + coeff * value ** q
        return SparsePoly._of(self.vars, acc)

    def derivative(self, name: str) -> "SparsePoly":
        """The partial derivative in the variable `name`."""
        shift = FIELD * self.vars.index(name)
        return SparsePoly._of(self.vars, {k - (1 << shift): c * e for k, c in self.packed.items()
                                          if (e := k >> shift & _MASK)})

    def rows(self, outer: str) -> list["UniPoly"]:
        """The coefficients of outer^0, outer^1, ... as UniPolys in the other
        variable, [] for zero: the one bridge from two variables to one."""
        if len(self.vars) != 2:
            raise ValueError(f"rows needs exactly two variables, not {self.vars}")
        i = self.vars.index(outer)
        dense: dict[int, dict[int, Fraction]] = {}
        for expo, coeff in self.terms.items():
            dense.setdefault(expo[i], {})[expo[1 - i]] = coeff
        rows = [dense.get(j, {}) for j in range(max(dense, default=-1) + 1)]
        return [UniPoly([row.get(k, 0) for k in range(max(row, default=-1) + 1)]) for row in rows]

    # ------------------------------------------------------ exact division

    def divide_power(self, i: int, limit) -> tuple["SparsePoly", int]:
        """(self / x^e, e) for the largest e <= limit with x^e | self, x the i-th
        variable: the least i-th field of the keys, subtracted from each."""
        shift = FIELD * i
        e = min([limit, *(k >> shift & _MASK for k in self.packed)])
        return SparsePoly._of(self.vars, {k - (e << shift): c for k, c in self.packed.items()}), e

    def divmod_exact(self, divisor: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        """(q, r) with self == q * divisor + r, by division in the order of the
        packed keys, lex with the last variable most significant.  It stops at
        the first term of r that the leading term of divisor does not divide,
        so r is zero exactly when divisor divides self.  A divisor that leads
        with +-1 keeps integer coefficients integer."""
        divisor = self._coerce(divisor)
        if not divisor.packed:
            raise ZeroDivisionError("polynomial division by zero")
        guards = _guards(len(self.vars))
        d = max(divisor.packed)
        d_coeff = divisor.packed[d]
        rest = [(k, c) for k, c in divisor.packed.items() if k != d]
        q: dict[int, int | Fraction] = {}
        r = dict(self.packed)
        while r:
            lead = max(r)
            # d divides lead when no field borrows past its guard bit
            if ((lead | guards) - d) & guards != guards:
                break
            diff = lead - d
            c = r.pop(lead)
            exact = type(c) is int and not c % d_coeff
            f = q[diff] = c // d_coeff if exact else Fraction(c) / d_coeff
            for k, ck in rest:
                k += diff
                if k & guards:
                    raise OverflowError(f"a remainder exponent passes the {FIELD}-bit field")
                if s := r.get(k, 0) - f * ck:
                    r[k] = s
                else:
                    del r[k]
        return SparsePoly._of(self.vars, q), SparsePoly._of(self.vars, r)


# -------------------------------------------------- dense univariate kernel


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of the int lists a and b: the
    one integer convolution, for UniPoly products and truncated series."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for k, y in enumerate(b[:n - i], i):
                out[k] += x * y
    return out


class UniPoly:
    """Dense univariate polynomial over Q, stored as scale * sum ints[k] x^k.

    `ints` is primitive: coprime integers, constant term first, positive
    leading entry, no trailing zeros.  The zero polynomial has ints == [] and
    scale == 0.  A product of primitive polynomials is primitive (Gauss's
    lemma), so multiplication is an integer convolution with no gcd, and exact
    division runs in integers and stops at the first leading coefficient that
    does not divide.
    """

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs: Sequence = ()):
        """From dense rational coefficients, constant term first."""
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._normalize([c.numerator * (den // c.denominator) for c in coeffs],
                        Fraction(1, den))

    def _normalize(self, ints: list[int], scale: Fraction) -> None:
        while ints and not ints[-1]:
            ints.pop()
        if not ints or not scale:
            self.ints, self.scale = [], Fraction(0)
            return
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        if g != 1:
            ints, scale = [x // g for x in ints], scale * g
        self.ints, self.scale = ints, scale

    @classmethod
    def _from_ints(cls, ints: list[int], scale: Fraction) -> "UniPoly":
        p = cls.__new__(cls)
        p._normalize(ints, scale)
        return p

    @classmethod
    def _raw(cls, ints: list[int], scale: Fraction) -> "UniPoly":
        """Wrap ints that are already primitive (or empty, with scale 0)."""
        p = cls.__new__(cls)
        p.ints, p.scale = ints, scale
        return p

    def coefficients(self) -> list[Fraction]:
        """Dense rational coefficients, constant term first."""
        return [self.scale * a for a in self.ints]

    def degree(self) -> int:
        return len(self.ints) - 1

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.ints == other.ints and self.scale == other.scale

    def format(self, var: str) -> str:
        """The terms of a nonzero polynomial by descending degree in `var`,
        such as '2*y^3 - 3*y + 1/2'; a coefficient 1 is left out."""
        parts = []
        for k in reversed(range(len(self.ints))):
            if not self.ints[k]:
                continue
            c = self.scale * self.ints[k]
            power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            if not power:
                parts.append(str(c))
            elif c == 1:
                parts.append(power)
            else:
                parts.append(f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __call__(self, x):
        acc = 0
        for a in reversed(self.ints):
            acc = acc * x + a
        return self.scale * acc

    def valuation(self) -> int:
        """Lowest power of x with a nonzero coefficient."""
        if not self.ints:
            raise ValueError("valuation of the zero polynomial")
        return next(k for k, a in enumerate(self.ints) if a)

    def reverse(self, n: int) -> "UniPoly":
        """x^n p(1/x), for n at least the degree."""
        if n < self.degree():
            raise ValueError(f"reversal degree {n} below the degree {self.degree()}")
        if not self.ints:
            return self
        return UniPoly._from_ints([0] * (n + 1 - len(self.ints)) + self.ints[::-1], self.scale)

    def affine(self, a, b) -> "UniPoly":
        """p(a x + b), by Horner's rule in integers."""
        a, b = Fraction(a), Fraction(b)
        n = len(self.ints) - 1
        if n < 1:
            return self
        # a x + b = (A x + B) / den, and p(a x + b) = scale / den^n * acc with
        # acc = sum_k ints[k] (A x + B)^k den^(n - k)
        den = a.denominator * b.denominator
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        acc, dpow = [self.ints[n]], 1
        for k in reversed(range(n)):
            dpow *= den
            nxt = [B * v for v in acc] + [0]
            for j, v in enumerate(acc):
                nxt[j + 1] += A * v
            nxt[0] += self.ints[k] * dpow
            acc = nxt
        return UniPoly._from_ints(acc, self.scale / den ** n if den != 1 else self.scale)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        if not other.ints:
            return self
        if not self.ints:
            return other
        a, b = self.scale, other.scale
        den = math.lcm(a.denominator, b.denominator)
        ma = a.numerator * (den // a.denominator)
        mb = b.numerator * (den // b.denominator)
        g = math.gcd(ma, mb)
        ma, mb = ma // g, mb // g
        x, y = self.ints, other.ints
        if len(x) < len(y):
            x, y, ma, mb = y, x, mb, ma
        out = [ma * c for c in x]
        for k, c in enumerate(y):
            out[k] += mb * c
        return UniPoly._from_ints(out, Fraction(g, den))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw(self.ints, -self.scale)

    def __sub__(self, other) -> "UniPoly":
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return -self + other

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = Fraction(other)
            return UniPoly._raw(self.ints, self.scale * c) if c and self.ints else UniPoly()
        if not self.ints or not other.ints:
            return UniPoly()
        return UniPoly._raw(_convolve(self.ints, other.ints, len(self.ints) + len(other.ints) - 1),
                            self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return functools.reduce(operator.mul, [self] * n, UniPoly([1]))

    def derivative(self) -> "UniPoly":
        return UniPoly._from_ints([k * a for k, a in enumerate(self.ints)][1:], self.scale)

    # -------------------------------------------------------------- division

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        """The r with self = q * other + r and deg r < deg other."""
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.ints
        db, lb = len(b) - 1, b[-1]
        r = list(self.ints)
        m = 1  # integer long division of self.ints * m by other.ints
        for k in reversed(range(len(r) - db)):
            top = r[k + db]
            if not top:
                continue
            f = lb // math.gcd(top, lb)
            if f != 1:
                r = [f * x for x in r]
                m *= f
            t = r[k + db] // lb
            for j, c in enumerate(b):
                r[k + j] -= t * c
        return UniPoly._from_ints(r[:db], self.scale / m)

    def _quotient(self, other: "UniPoly") -> "UniPoly | None":
        """self / other for non-zero operands, None unless other divides self."""
        b, r = other.ints, list(self.ints)
        db, lb = len(b) - 1, b[-1]
        q = [0] * max(len(r) - db, 0)
        for k in reversed(range(len(q))):
            t, rem = divmod(r[k + db], lb)
            if rem:
                return None
            if t:
                q[k] = t
                for j, c in enumerate(b):
                    r[k + j] -= t * c
        if any(r[:db]):
            return None
        # both operands primitive, so the quotient is too (Gauss's lemma)
        return UniPoly._raw(q, self.scale / other.scale)

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        """self / other; raises ValueError unless other divides self."""
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        q = self._quotient(other) if self.ints else self
        if q is None:
            raise ValueError("division is not exact")
        return q

    def divide_out(self, factor: "UniPoly") -> tuple["UniPoly", int]:
        """(self / factor^k, k) for the largest k such that factor^k divides
        self; factor must be non-constant."""
        if not self.ints or factor.degree() < 1:
            raise ValueError("dividing a constant out, or a factor out of zero")
        k = 0
        while (q := self._quotient(factor)) is not None:
            self, k = q, k + 1
        return self, k

    # --------------------------------------------------------------- content

    def primitive(self) -> "UniPoly":
        """self / content with positive leading coefficient."""
        return UniPoly._raw(self.ints, Fraction(1)) if self.ints else self

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd with positive leading coefficient (primitive PRS)."""
        a, b = self.primitive(), other.primitive()
        while b.ints:
            a, b = b, (a % b).primitive()
        return a

    def squarefree(self) -> list[tuple["UniPoly", int]]:
        """Yun's algorithm over Q: [(f_i, i)] with self = c * prod f_i^i, the
        f_i primitive, squarefree, pairwise coprime and non-constant."""
        if not self.ints:
            raise ValueError("squarefree decomposition of zero")
        p = self.primitive()
        dp = p.derivative()
        a = p.gcd(dp)
        b, c = p.divide_exact(a), dp.divide_exact(a)
        out: list[tuple[UniPoly, int]] = []
        i = 1
        while b.degree() > 0:
            d = c - b.derivative()
            f = b.gcd(d)
            if f.degree() > 0:
                out.append((f, i))
            b, c = b.divide_exact(f), d.divide_exact(f)
            i += 1
        return out


# --------------------------------------------------------- rational functions


class RationalFunction:
    """num / den in one variable over Q, two UniPolys stored in lowest terms:
    den is primitive with a positive leading coefficient (1 for zero) and
    coprime to num, so `reduced()` and `==` read the parts as stored."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: UniPoly | None = None):
        """num / den; num may be a UniPoly or a rational constant, den a
        nonzero UniPoly."""
        num = num if isinstance(num, UniPoly) else UniPoly([num])
        if den is not None and not den:
            raise ZeroDivisionError("rational function with zero denominator")
        out = RationalFunction._of(num, UniPoly([1]) if den is None else den)
        self.num, self.den = out.num, out.den

    @classmethod
    def _of(cls, num: UniPoly, den: UniPoly) -> "RationalFunction":
        """num / den for a nonzero den: both divided by their gcd, and den's
        scale moved into num."""
        out = cls.__new__(cls)
        if den.degree() > 0 and (g := num.gcd(den)).degree() > 0:
            num, den = num.divide_exact(g), den.divide_exact(g)
        out.num, out.den = num * (1 / den.scale), den.primitive()
        return out

    def reduced(self) -> tuple[UniPoly, UniPoly]:
        """(num, den) coprime, den primitive with positive leading coefficient:
        the canonical form, so equal functions give equal pairs."""
        return self.num, self.den

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction) and self.num == other.num
                and self.den == other.den)

    @staticmethod
    def _coerce(other) -> "RationalFunction":
        return other if isinstance(other, RationalFunction) else RationalFunction(other)

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if self.den == other.den:
            return RationalFunction._of(self.num + other.num, self.den)
        return RationalFunction._of(self.num * other.den + other.num * self.den,
                                    self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction._of(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction._of(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        """(num' den - num den') / den^2."""
        n, d = self.num, self.den
        return RationalFunction._of(n.derivative() * d - n * d.derivative(), d * d)

    def affine(self, a, b) -> "RationalFunction":
        """f(a x + b)."""
        return RationalFunction(self.num.affine(a, b), self.den.affine(a, b))


# ------------------------------------------------------ truncated power series


def _divide_ints(a: list[int], b: list[int], n: int) -> list[int]:
    """R with a / b = R / b[0]^n modulo x^n, for int lists with b[0] nonzero.

    Fraction-free: q_k b[0]^(k+1) is an integer for every k (induct on
    b[0] q_k = a_k - sum_j b_j q_(k-j)), so R_k = q_k b[0]^n is one for k < n,
    and b[0] R_k = b[0]^n a_k - sum_j b_j R_(k-j) divides exactly."""
    b0, lift = b[0], b[0] ** n
    out: list[int] = []
    for k in range(n):
        acc = lift * a[k] if k < len(a) else 0
        for j, y in enumerate(b[1:k + 1], 1):
            acc -= y * out[k - j]
        out.append(acc // b0)
    return out


class FormalSeries:
    """var^expo * p(var), known modulo var^prec, with p a UniPoly (a rational
    scale times primitive ints) of degree below prec - expo.

    The exponents are ints or Fractions; two series add only when their
    exponents differ by an integer.  Arithmetic never claims a coefficient at
    or past `prec`: a sum is known to the lower precision, and a product of
    series known to var^p and var^q, of valuations v and w, to
    var^min(p + w, q + v).  Products are integer convolutions and quotients
    the fraction-free recurrence `_divide_ints`; a constant multiple changes
    only the scale.
    """

    __slots__ = ("var", "expo", "poly", "prec")

    def __init__(self, var: str, expo, coeffs, prec=None):
        """From a UniPoly or from rational coefficients of var^expo, var^(expo + 1),
        ...; prec defaults to the end of a coefficient list.  Nothing is kept
        at or past prec."""
        if prec is None:
            prec = expo + len(coeffs)
        poly = coeffs if isinstance(coeffs, UniPoly) else UniPoly(coeffs)
        n = int(prec - expo)
        if len(poly.ints) > n:
            poly = UniPoly._from_ints(poly.ints[:max(n, 0)], poly.scale)
        self.var, self.expo, self.poly, self.prec = var, expo, poly, prec

    @property
    def coeffs(self) -> list[Fraction]:
        """The dense rational coefficients of var^expo up to var^(prec - 1)."""
        out = self.poly.coefficients()
        return out + [Fraction(0)] * (int(self.prec - self.expo) - len(out))

    def is_zero_to_precision(self) -> bool:
        return not self.poly

    def valuation(self):
        """Exponent of the first nonzero coefficient; prec for a series that
        vanishes to its precision."""
        return self.expo + self.poly.valuation() if self.poly else self.prec

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        lo, hi = (self, other) if self.expo <= other.expo else (other, self)
        shift = hi.expo - lo.expo
        if shift.denominator != 1:
            raise ValueError("cannot add series with non-integer exponent offset")
        p = hi.poly
        if shift and p:
            p = UniPoly._raw([0] * int(shift) + p.ints, p.scale)
        return FormalSeries(self.var, lo.expo, lo.poly + p, min(self.prec, other.prec))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.var, self.expo, -self.poly, self.prec)

    def shift_exponent(self, k) -> "FormalSeries":
        """var^k * self."""
        return FormalSeries(self.var, self.expo + k, self.poly, self.prec + k)

    def _ints_from(self, v) -> list[int]:
        """The ints from var^v up."""
        return self.poly.ints[int(v - self.expo):]

    def __mul__(self, other) -> "FormalSeries":
        """The product with another series, or with a rational constant."""
        if not isinstance(other, FormalSeries):
            return FormalSeries(self.var, self.expo, self.poly * other, self.prec)
        va, vb = self.valuation(), other.valuation()
        prec = min(self.prec + vb, other.prec + va)
        ints = _convolve(self._ints_from(va), other._ints_from(vb), int(prec - va - vb))
        return FormalSeries(self.var, va + vb,
                            UniPoly._from_ints(ints, self.poly.scale * other.poly.scale), prec)

    __rmul__ = __mul__

    def inverse(self) -> "FormalSeries":
        """1 / self, to as many terms as self is known past its valuation v;
        the inverse starts at var^-v."""
        v = self.valuation()
        if v == self.prec:
            raise ZeroDivisionError("inverting a series that vanishes to its precision")
        n, b = int(self.prec - v), self._ints_from(v)
        return FormalSeries(self.var, -v, UniPoly._from_ints(
            _divide_ints([1], b, n), 1 / (self.poly.scale * b[0] ** n)), n - v)

    def derivative(self) -> "FormalSeries":
        e = Fraction(self.expo)
        ints = [(e.numerator + k * e.denominator) * a for k, a in enumerate(self.poly.ints)]
        return FormalSeries(self.var, self.expo - 1,
                            UniPoly._from_ints(ints, self.poly.scale / e.denominator),
                            self.prec - 1)

    def multiply_rational(self, f: RationalFunction) -> "FormalSeries":
        """self * f, with f expanded in powers of var; a pole of f at 0 lowers
        the exponent by its order; a zero f gives zero, known as far as self is."""
        den = f.den
        v = den.valuation()
        expo, prec = self.expo - v, self.prec + (f.num.valuation() if f.num else 0) - v
        n, b = int(prec - expo), den.ints[v:]
        ints = _divide_ints(_convolve(self.poly.ints, f.num.ints, n), b, n)
        scale = self.poly.scale * f.num.scale / (den.scale * b[0] ** n)
        return FormalSeries(self.var, expo, UniPoly._from_ints(ints, scale), prec)


# ------------------------------------------------------------ linear algebra


def gauss_jordan(rows: list[list], ncols: int) -> list[int]:
    """Reduce `rows` (of ints or Fractions) in place to reduced row echelon
    form over Q, pivoting on the first `ncols` columns; later columns
    (right-hand sides, an identity block) ride along.  Returns the pivot
    column of each leading row, so the rank is the length of the result.

    Fraction-free (Bareiss): rows are scaled to integers, each update divides
    exactly by the previous pivot, and the last pivot is divided out once."""
    for k, row in enumerate(rows):
        den = math.lcm(*(x.denominator for x in row))
        rows[k] = [x.numerator * (den // x.denominator) for x in row]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    rows[:] = [[Fraction(x, prev) for x in row] for row in rows]
    return pivots
