"""Exact arithmetic in the ring A = Z[z, z^-1] of integer Laurent polynomials.

The ring carries the conjugation involution f(z) -> f(z^-1), whose fixed
subring A0 = Z[z + z^-1] is the scalar ring for everything built on top.
Coefficients are Python ints, so repeated products never overflow; all values
are immutable and kept in canonical form, so ``==`` is mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class LaurentPoly:
    """A Laurent polynomial, stored as the exponent of its lowest term plus a
    dense coefficient tuple running upward from there.

    The representation is canonical: the first and last coefficients are
    nonzero, and the zero polynomial is uniquely ``LaurentPoly(0, ())``.

    >>> LaurentPoly(-1, (1, 0, 1))
    LaurentPoly('z + z^-1')
    >>> LaurentPoly(2, (0, 3)) == LaurentPoly(3, (3,))
    True
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs: Sequence[int]):
        l, r = 0, len(coeffs)
        while l < r and coeffs[l] == 0:
            l += 1
            lo += 1
        while l < r and coeffs[r - 1] == 0:
            r -= 1
        if l == r:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[l:r]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls(0, ())

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(0, (1,))

    @classmethod
    def const(cls, n: int) -> LaurentPoly:
        return cls(0, (n,))

    @classmethod
    def term(cls, coeff: int, exp: int) -> LaurentPoly:
        """The monomial coeff * z^exp."""
        return cls(exp, (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def hi(self) -> int:
        """Exponent of the highest term (garbage 0 for the zero polynomial)."""
        return self.lo + len(self.coeffs) - 1 if self.coeffs else 0

    def coeff(self, k: int) -> int:
        """Coefficient of z^k."""
        i = k - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def constant_term(self) -> int:
        return self.coeff(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.lo + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.lo + i - lo] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.lo, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly(self.lo, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return LaurentPoly(self.lo + other.lo, out)

    __rmul__ = __mul__

    def conj(self) -> LaurentPoly:
        """The conjugate f(z^-1)."""
        if not self.coeffs:
            return self
        return LaurentPoly(-self.hi, tuple(reversed(self.coeffs)))

    def is_symmetric(self) -> bool:
        """True iff f lies in the fixed subring A0, i.e. f == f.conj()."""
        return self == self.conj()

    def eval_int(self, w: int) -> int:
        """Evaluate at z = w for w in {1, -1}, the only integer points
        compatible with the conjugation."""
        if w == 1:
            return sum(self.coeffs)
        if w == -1:
            return sum(c if (self.lo + i) % 2 == 0 else -c
                       for i, c in enumerate(self.coeffs))
        raise ValueError(f"evaluation point must be 1 or -1, got {w}")

    def split_A0(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Decompose f = g + h*z with g, h symmetric (A = A0 + A0*z).

        h is recovered as (f - f*)/(z - z^-1), which is always an exact
        division, and g = f - h*z; both outputs land in A0 by construction.
        """
        anti = self - self.conj()
        h = divexact(anti, Z_MINUS_ZINV)
        g = self - h * Z
        return g, h

    def as_unit(self) -> UnitA | None:
        """Return this polynomial as ±z^k if it is one, else None.  The units
        of A are exactly these monomials (equivalently f*f.conj() == 1)."""
        if len(self.coeffs) == 1 and self.coeffs[0] in (1, -1):
            return UnitA(self.coeffs[0], self.lo)
        return None

    def to_json(self) -> dict:
        return {"lo": self.lo, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data) -> LaurentPoly:
        if not isinstance(data, dict) or set(data) != {"lo", "coeffs"}:
            raise ValueError("polynomial JSON must be {'lo': ..., 'coeffs': [...]}")
        lo, coeffs = data["lo"], data["coeffs"]
        if not _is_int(lo) or not isinstance(coeffs, list) or not all(_is_int(c) for c in coeffs):
            raise ValueError("polynomial JSON fields must be integers")
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("polynomial JSON not in canonical form (zero end coefficient)")
        if not coeffs and lo != 0:
            raise ValueError("zero polynomial must have lo = 0")
        return cls(lo, coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            k = self.lo + i
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


@dataclass(frozen=True)
class UnitA:
    """A unit of A, i.e. sign * z^exp with sign in {+1, -1}."""

    sign: int
    exp: int

    def __post_init__(self):
        if not _is_int(self.sign) or self.sign not in (1, -1):
            raise ValueError("unit sign must be the integer +1 or -1")

    @classmethod
    def identity(cls) -> UnitA:
        return cls(1, 0)

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly.term(self.sign, self.exp)

    def conj(self) -> UnitA:
        """Conjugation; for units this is also the inverse."""
        return UnitA(self.sign, -self.exp)

    def __mul__(self, other: UnitA) -> UnitA:
        return UnitA(self.sign * other.sign, self.exp + other.exp)

    def to_json(self) -> dict:
        return {"sign": self.sign, "exp": self.exp}

    @classmethod
    def from_json(cls, data) -> UnitA:
        if not isinstance(data, dict) or set(data) != {"sign", "exp"}:
            raise ValueError("unit JSON must be {'sign': ±1, 'exp': k}")
        if not _is_int(data["exp"]):
            raise ValueError("unit JSON exponent must be an integer")
        return cls(data["sign"], data["exp"])


# Frequently used constants.
Z = LaurentPoly.term(1, 1)
Z_INV = LaurentPoly.term(1, -1)
Z_MINUS_ZINV = Z - Z_INV
# The norm value -(z - z^-1)^2 = 2 - z^2 - z^-2 shared by the scaled sphere.
SPHERE_PRIME_NORM = -(Z_MINUS_ZINV * Z_MINUS_ZINV)


def divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division in A; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    fc = list(f.coeffs)
    gc = g.coeffs
    if len(fc) < len(gc):
        raise ValueError("not divisible")
    glead = gc[-1]
    q = [0] * (len(fc) - len(gc) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = fc[k + len(gc) - 1]
        if c % glead:
            raise ValueError("not divisible")
        d = c // glead
        q[k] = d
        if d:
            for j, gj in enumerate(gc):
                fc[k + j] -= d * gj
    if any(fc):
        raise ValueError("not divisible")
    return LaurentPoly(f.lo - g.lo, q)


def factor_sphere_prime(f: LaurentPoly) -> UnitA:
    """Given f with f*f.conj() == 2 - z^2 - z^-2, return the unit y with
    f = (z - z^-1) * y.

    The divisibility by z - 1 and z + 1 is witnessed by f vanishing at both
    evaluation points, which is checked before dividing.
    """
    if f * f.conj() != SPHERE_PRIME_NORM:
        raise ValueError("f*f_conj must equal 2 - z^2 - z^-2")
    if f.eval_int(1) != 0 or f.eval_int(-1) != 0:
        raise ValueError("f must vanish at z = 1 and z = -1")
    y = divexact(f, Z_MINUS_ZINV)
    u = y.as_unit()
    if u is None:
        raise ValueError("quotient by z - z^-1 is not a unit")
    return u


def random_poly(rng, degree_bound: int = 3, coeff_bound: int = 9) -> LaurentPoly:
    """A random polynomial with exponents in [-degree_bound, degree_bound]
    and coefficients uniform in [-coeff_bound, coeff_bound]."""
    coeffs = [rng.randint(-coeff_bound, coeff_bound)
              for _ in range(2 * degree_bound + 1)]
    return LaurentPoly(-degree_bound, coeffs)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
