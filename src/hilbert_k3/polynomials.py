"""Exact polynomial arithmetic over Q and the exact primitives built on it.

* `SparsePoly` / `RationalFunction`: multivariate polynomials and rational
  functions with Fraction coefficients; exponent vectors are dense tuples
  keyed in a dict, canonically ordered by graded lex when an order is needed.
  They carry the icosahedral invariants (degree 30 in 3 variables), the
  Weierstrass charts and the two-variable PDE coefficients.
* `UniPoly`: the dense univariate kernel, a primitive integer coefficient list
  times a rational scale, with mul, divmod, gcd, content and derivative.  The
  exact elimination runs on it with degrees up to about 72, and univariate
  gcds of `SparsePoly` go through it.
* `series_mul` / `series_inverse`: truncated power-series product and
  inverse, over Fractions or any exact field elements.
* `gauss_jordan`: exact Gauss-Jordan elimination over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Exponent = tuple[int, ...]


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q normalised so that content extraction leaves coprime integers
    return Fraction(math.gcd(a.numerator, b.numerator),
                    math.lcm(a.denominator, b.denominator))


class SparsePoly:
    """A polynomial in named variables with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponent, Fraction] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(expo)] = c
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "SparsePoly":
        value = Fraction(value)
        if value == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def copy(self) -> "SparsePoly":
        return SparsePoly(self.vars, dict(self.terms))

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees.pop() == degree

    # -------------------------------------------------------------- ordering

    @staticmethod
    def _grlex_key(expo: Exponent):
        return (sum(expo), expo)

    def leading(self) -> tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=self._grlex_key)
        return expo, self.terms[expo]

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return SparsePoly.const(self.vars, other)

    def __add__(self, other) -> "SparsePoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = out.get(expo, Fraction(0)) + coeff
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        res = SparsePoly.zero(self.vars)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        res = SparsePoly.zero(self.vars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return SparsePoly.zero(self.vars)
            res = SparsePoly.zero(self.vars)
            res.terms = {e: coeff * c for e, coeff in self.terms.items()}
            return res
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = SparsePoly.zero(self.vars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ------------------------------------------------------------- calculus

    def derivative(self, name: str) -> "SparsePoly":
        i = self.vars.index(name)
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff * expo[i]
        res = SparsePoly.zero(self.vars)
        res.terms = {k: v for k, v in out.items() if v}
        return res

    # ----------------------------------------------------------- evaluation

    def evaluate(self, values: Mapping[str, object]):
        """Full evaluation; values may be Fractions, ints, or mpmath numbers."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total = 0
        for expo, coeff in self.terms.items():
            term = coeff
            for name, power in zip(self.vars, expo):
                if power:
                    term = term * values[name] ** power
            total = total + term
        return total

    def substitute(self, assignments: Mapping[str, object]) -> "SparsePoly":
        """Partial substitution with rational values; result keeps all variables."""
        out = SparsePoly.zero(self.vars)
        idx = {self.vars.index(k): Fraction(v) for k, v in assignments.items()}
        acc: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            c = coeff
            new = list(expo)
            for i, val in idx.items():
                c *= val ** expo[i]
                new[i] = 0
            if c:
                key = tuple(new)
                s = acc.get(key, Fraction(0)) + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out.terms = acc
        return out

    def compose(self, name: str, poly: "SparsePoly") -> "SparsePoly":
        """Substitute a polynomial for one variable."""
        i = self.vars.index(name)
        result = SparsePoly.zero(self.vars)
        # group by power of the replaced variable, then Horner
        by_power: dict[int, SparsePoly] = {}
        for expo, coeff in self.terms.items():
            rest = list(expo)
            rest[i] = 0
            p = by_power.setdefault(expo[i], SparsePoly.zero(self.vars))
            p.terms[tuple(rest)] = p.terms.get(tuple(rest), Fraction(0)) + coeff
        for power in sorted(by_power, reverse=True):
            chunk = by_power[power]
            chunk.terms = {k: v for k, v in chunk.terms.items() if v}
        powers = sorted(by_power, reverse=True)
        if not powers:
            return result
        result = by_power[powers[0]]
        for prev, cur in zip(powers, powers[1:]):
            result = result * poly ** (prev - cur) + by_power[cur]
        result = result * poly ** powers[-1]
        return result

    def shift(self, offsets: Mapping[str, Fraction]) -> "SparsePoly":
        """Substitute var -> var + offset for each given variable."""
        result = self
        for name, off in offsets.items():
            off = Fraction(off)
            if off == 0:
                continue
            repl = SparsePoly.variable(self.vars, name) + SparsePoly.const(self.vars, off)
            result = result.compose(name, repl)
        return result

    def reduce_square(self, name: str, value) -> "SparsePoly":
        """Rewrite name**2 -> value (for algebraic elements such as sqrt5)."""
        value = Fraction(value)
        i = self.vars.index(name)
        acc: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            q, r = divmod(expo[i], 2)
            new = list(expo)
            new[i] = r
            c = coeff * value ** q
            key = tuple(new)
            s = acc.get(key, Fraction(0)) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        res = SparsePoly.zero(self.vars)
        res.terms = acc
        return res

    def project(self, variables: Sequence[str]) -> "SparsePoly":
        """Re-express in a subset (or reordering) of variables.

        Raises if the polynomial depends on a dropped variable.
        """
        variables = tuple(variables)
        keep = [self.vars.index(v) for v in variables]
        dropped = [i for i in range(len(self.vars)) if i not in keep]
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if any(expo[i] for i in dropped):
                raise ValueError(f"polynomial depends on dropped variable: {expo}")
            out[tuple(expo[i] for i in keep)] = coeff
        return SparsePoly(variables, out)

    def extend(self, variables: Sequence[str]) -> "SparsePoly":
        """View in a larger variable tuple containing self.vars."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.vars]
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(pos, expo):
                new[p] = e
            out[tuple(new)] = coeff
        return SparsePoly(variables, out)

    # -------------------------------------------------- univariate helpers

    def coeff_list(self, name: str) -> list["SparsePoly"]:
        """Coefficients of powers of `name` (each still in self.vars)."""
        i = self.vars.index(name)
        deg = self.degree_in(name)
        if deg < 0:
            return []
        coeffs = [SparsePoly.zero(self.vars) for _ in range(deg + 1)]
        for expo, coeff in self.terms.items():
            rest = list(expo)
            rest[i] = 0
            coeffs[expo[i]].terms[tuple(rest)] = coeff
        return coeffs

    def valuation_in(self, name: str) -> int:
        """Lowest power of `name` occurring (0 for nonzero constant part)."""
        if not self.terms:
            raise ValueError("valuation of zero polynomial")
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def divide_power(self, name: str, k: int) -> "SparsePoly":
        """Exact division by name**k."""
        i = self.vars.index(name)
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[i] < k:
                raise ValueError(f"not divisible by {name}**{k}")
            new = list(expo)
            new[i] -= k
            out[tuple(new)] = coeff
        return SparsePoly(self.vars, out)

    # ------------------------------------------------------ exact division

    def divmod_exact(self, divisor: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        """Multivariate division (graded lex); remainder is whatever is left."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d_expo, d_coeff = divisor.leading()
        quotient = SparsePoly.zero(self.vars)
        remainder = self.copy()
        while remainder.terms:
            r_expo = max(remainder.terms, key=self._grlex_key)
            diff = tuple(a - b for a, b in zip(r_expo, d_expo))
            if any(d < 0 for d in diff):
                break
            factor = remainder.terms[r_expo] / d_coeff
            mono = SparsePoly(self.vars, {diff: factor})
            quotient = quotient + mono
            remainder = remainder - mono * divisor
        return quotient, remainder

    def divide_exact(self, divisor: "SparsePoly") -> "SparsePoly":
        q, r = self.divmod_exact(divisor)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -------------------------------------------------------------- content

    def content(self) -> Fraction:
        """Rational content: positive c with self = c * (coprime integer poly)."""
        c = Fraction(0)
        for coeff in self.terms.values():
            c = _fraction_gcd(c, coeff)
        return c if c else Fraction(1)

    def primitive(self) -> "SparsePoly":
        """self / content with positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading()[1] < 0:
            c = -c
        return self * (1 / c)

    # ------------------------------------------------------------------ str

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=self._grlex_key, reverse=True):
            coeff = self.terms[expo]
            factors = [str(coeff)] if coeff != 1 or not any(expo) else []
            if coeff == 1 and any(expo):
                factors = []
            elif coeff == -1 and any(expo):
                factors = ["-"]
            for name, power in zip(self.vars, expo):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            text = "*".join(f for f in factors if f != "-")
            if factors and factors[0] == "-":
                text = "-" + text
            parts.append(text if text else str(coeff))
        return " + ".join(parts).replace("+ -", "- ")


# -------------------------------------------------- dense univariate kernel


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
        self.ints = [x // g for x in ints] if g != 1 else ints
        self.scale = scale * g

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

    @classmethod
    def from_sparse(cls, p: SparsePoly, name: str) -> "UniPoly":
        """p as a polynomial in `name`; p may involve no other variable."""
        i = p.vars.index(name)
        out = [Fraction(0)] * (p.degree_in(name) + 1)
        for expo, coeff in p.terms.items():
            if sum(expo) != expo[i]:
                raise ValueError(f"{p!r} involves variables other than {name}")
            out[expo[i]] = coeff
        return cls(out)

    def to_sparse(self, variables: Sequence[str], name: str) -> SparsePoly:
        variables = tuple(variables)
        i = variables.index(name)
        terms = {}
        for k, c in enumerate(self.coefficients()):
            expo = [0] * len(variables)
            expo[i] = k
            terms[tuple(expo)] = c
        return SparsePoly(variables, terms)

    def coefficients(self) -> list[Fraction]:
        """Dense rational coefficients, constant term first."""
        return [self.scale * a for a in self.ints]

    def degree(self) -> int:
        return len(self.ints) - 1

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ints == other.ints and self.scale == other.scale

    def __hash__(self):
        return hash((tuple(self.ints), self.scale))

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coefficients()]})"

    def __call__(self, x):
        acc = 0
        for a in reversed(self.ints):
            acc = acc * x + a
        return self.scale * acc

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "UniPoly") -> "UniPoly":
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

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw(self.ints, -self.scale)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = Fraction(other)
            return UniPoly._raw(self.ints, self.scale * c) if c and self.ints else UniPoly()
        if not self.ints or not other.ints:
            return UniPoly()
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, a in enumerate(self.ints):
            if a:
                for j, b in enumerate(other.ints):
                    out[i + j] += a * b
        return UniPoly._raw(out, self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = UniPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly._from_ints([k * a for k, a in enumerate(self.ints)][1:], self.scale)

    # -------------------------------------------------------------- division

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """(q, r) with self = q * other + r and deg r < deg other."""
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.ints
        db, lb = len(b) - 1, b[-1]
        r = list(self.ints)
        q = [0] * max(len(r) - db, 0)
        m = 1  # integer long division of self.ints * m by other.ints
        for k in reversed(range(len(q))):
            top = r[k + db]
            if not top:
                continue
            f = lb // math.gcd(top, lb)
            if f != 1:
                r = [f * x for x in r]
                q = [f * x for x in q]
                m *= f
            t = r[k + db] // lb
            q[k] = t
            for j, c in enumerate(b):
                r[k + j] -= t * c
        return (UniPoly._from_ints(q, self.scale / (m * other.scale)),
                UniPoly._from_ints(r[:db], self.scale / m))

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        """self / other; raises ValueError unless other divides self."""
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.ints:
            return self
        b = other.ints
        db, lb = len(b) - 1, b[-1]
        r = list(self.ints)
        q = [0] * max(len(r) - db, 0)
        for k in reversed(range(len(q))):
            t, rem = divmod(r[k + db], lb)
            if rem:
                raise ValueError("division is not exact")
            if t:
                q[k] = t
                for j, c in enumerate(b):
                    r[k + j] -= t * c
        if not q or any(r[:db]):
            raise ValueError("division is not exact")
        # both operands primitive, so the quotient is too (Gauss's lemma)
        return UniPoly._raw(q, self.scale / other.scale)

    # --------------------------------------------------------------- content

    def content(self) -> Fraction:
        """Positive c with self = +-c * (coprime integer polynomial)."""
        return abs(self.scale) if self.ints else Fraction(1)

    def primitive(self) -> "UniPoly":
        """self / content with positive leading coefficient."""
        return UniPoly._raw(self.ints, Fraction(1)) if self.ints else self

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd with positive leading coefficient (primitive PRS)."""
        a, b = self.primitive(), other.primitive()
        while b.ints:
            a, b = b, a.divmod(b)[1].primitive()
        return a


# ---------------------------------------------------------------------- gcd


def _pseudo_rem(a: list[SparsePoly], b: list[SparsePoly],
                zero: SparsePoly) -> list[SparsePoly]:
    """Pseudo-remainder of coefficient lists (univariate in the main var)."""
    da, db = len(a) - 1, len(b) - 1
    lead_b = b[-1]
    r = list(a)
    for _ in range(da - db + 1):
        if len(r) - 1 < db:
            break
        lead_r = r[-1]
        r = [c * lead_b for c in r]
        shift = len(r) - 1 - db
        for j, bc in enumerate(b):
            r[shift + j] = r[shift + j] - lead_r * bc
        while r and r[-1].is_zero():
            r.pop()
        if not r:
            break
    return r


def poly_gcd(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """GCD via primitive polynomial remainder sequences, recursive in variables."""
    if a.vars != b.vars:
        raise ValueError("variable mismatch in gcd")
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    active = [v for v in a.vars if a.degree_in(v) > 0 or b.degree_in(v) > 0]
    if not active:
        return SparsePoly.const(a.vars, 1)
    if len(active) == 1:
        name = active[0]
        g = UniPoly.from_sparse(a, name).gcd(UniPoly.from_sparse(b, name))
        return g.to_sparse(a.vars, name)

    main = active[0]
    ca, pa = _content_in(a, main)
    cb, pb = _content_in(b, main)
    cont_gcd = poly_gcd(ca, cb)

    fa, fb = pa.coeff_list(main), pb.coeff_list(main)
    while fa and fb:
        if len(fa) < len(fb):
            fa, fb = fb, fa
        r = _pseudo_rem(fa, fb, SparsePoly.zero(a.vars))
        fa, fb = fb, r
        if fb:
            # primitive part of the remainder w.r.t. main variable
            poly = _from_coeff_list(fb, a.vars, main)
            _, poly = _content_in(poly, main)
            fb = poly.coeff_list(main)
    result = _from_coeff_list(fa, a.vars, main)
    _, result = _content_in(result, main)
    return (cont_gcd * result).primitive()


def _from_coeff_list(coeffs: list[SparsePoly], variables: tuple[str, ...],
                     main: str) -> SparsePoly:
    """Rebuild a polynomial from its main-variable coefficient list."""
    i = variables.index(main)
    out: dict[Exponent, Fraction] = {}
    for power, c in enumerate(coeffs):
        for expo, coeff in c.terms.items():
            new = list(expo)
            new[i] += power
            out[tuple(new)] = coeff
    return SparsePoly(variables, out)


def _content_in(p: SparsePoly, main: str) -> tuple[SparsePoly, SparsePoly]:
    """(content, primitive part) of p viewed as univariate in `main`."""
    coeffs = [c for c in p.coeff_list(main) if not c.is_zero()]
    if not coeffs:
        return SparsePoly.zero(p.vars), SparsePoly.zero(p.vars)
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = poly_gcd(cont, c)
        if cont.total_degree() == 0 and cont.content() == 1:
            break
    cont = cont.primitive()
    return cont, p.divide_exact(cont)


def poly_lcm(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    if a.is_zero() or b.is_zero():
        return SparsePoly.zero(a.vars)
    return (a * b).divide_exact(poly_gcd(a, b)).primitive()


def squarefree_decomposition(p: SparsePoly, name: str) -> list[tuple[SparsePoly, int]]:
    """Yun's algorithm over Q: returns [(factor_i, multiplicity_i)] with
    p = content * prod factor_i^multiplicity_i and the factors squarefree,
    pairwise coprime, non-constant."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero")
    p = p.primitive()
    dp = p.derivative(name)
    a = poly_gcd(p, dp)
    out: list[tuple[SparsePoly, int]] = []
    b = p.divide_exact(a)
    c = dp.divide_exact(a)
    i = 1
    while b.total_degree() > 0:
        d = c - b.derivative(name)
        f = poly_gcd(b, d)
        if f.total_degree() > 0:
            out.append((f, i))
        b = b.divide_exact(f)
        c = d.divide_exact(f)
        i += 1
    return out


# --------------------------------------------------------- rational functions


class RationalFunction:
    """Quotient of SparsePolys, gcd-reduced, denominator primitive with
    positive leading coefficient."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly | None = None,
                 reduce: bool = True):
        if den is None:
            den = SparsePoly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.vars != den.vars:
            raise ValueError("variable mismatch")
        if reduce and not num.is_zero():
            g = poly_gcd(num, den)
            if g.total_degree() > 0 or g.content() != 1:
                num = num.divide_exact(g)
                den = den.divide_exact(g)
        if num.is_zero():
            den = SparsePoly.const(num.vars, 1)
        # canonical sign/scale: denominator primitive, leading coefficient > 0
        c = den.content()
        if den.leading()[1] < 0:
            c = -c
        if c != 1:
            den = den * (1 / c)
            num = num * (1 / c)
        self.num = num
        self.den = den

    # ------------------------------------------------------------- helpers

    @classmethod
    def from_const(cls, variables: Sequence[str], value) -> "RationalFunction":
        return cls(SparsePoly.const(variables, value), reduce=False)

    @classmethod
    def from_poly(cls, p: SparsePoly) -> "RationalFunction":
        return cls(p, reduce=False)

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.total_degree() == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return (self.num * other.den) == (other.num * self.den)
        if isinstance(other, (int, Fraction, SparsePoly)):
            return self == RationalFunction(self.num._coerce(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, SparsePoly):
            return RationalFunction(other, reduce=False)
        return RationalFunction.from_const(self.vars, other)

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n, reduce=False)

    def derivative(self, name: str) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative(name) * self.den - self.num * self.den.derivative(name),
            self.den * self.den)

    def evaluate(self, values: Mapping[str, object]):
        return self.num.evaluate(values) / self.den.evaluate(values)

    def substitute(self, assignments: Mapping[str, object]) -> "RationalFunction":
        return RationalFunction(self.num.substitute(assignments),
                                self.den.substitute(assignments))

    def compose(self, name: str, poly: SparsePoly) -> "RationalFunction":
        return RationalFunction(self.num.compose(name, poly),
                                self.den.compose(name, poly))

    def project(self, variables: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.num.project(variables),
                                self.den.project(variables), reduce=False)

    def __repr__(self) -> str:
        if self.is_poly():
            lead = self.den.leading()[1]
            return repr(self.num * (1 / lead)) if lead != 1 else repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


# ------------------------------------------------------ truncated power series


def series_mul(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n-1 of the product of the power series a and b.

    Coefficients are Fractions or any exact field elements with +, -, * and
    a falsy zero; an empty `a` is the zero series over Q.
    """
    if n <= 0:
        return []
    zero = a[0] - a[0] if a else Fraction(0)
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def series_inverse(a: Sequence, n: int) -> list:
    """Coefficients 0..n-1 of 1 / a; a[0] must be nonzero."""
    if not a or not a[0]:
        raise ZeroDivisionError("power series with zero constant term has no inverse")
    first = 1 / a[0]
    zero = a[0] - a[0]
    out = [first]
    for k in range(1, n):
        acc = zero
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j] and out[k - j]:
                acc = acc + a[j] * out[k - j]
        out.append(-(acc * first))
    return out[:n]


# ------------------------------------------------------------ linear algebra


def gauss_jordan(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form, pivoting on the
    first `ncols` columns; later columns (right-hand sides, an identity block)
    ride along.  Returns the pivot column of each leading row, so the rank is
    the length of the result."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots
