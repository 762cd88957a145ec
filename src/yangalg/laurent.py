"""Exact arithmetic in the ring A = Z[z, z^-1] of integer Laurent polynomials.

The ring carries the conjugation involution f(z) -> f(z^-1), whose fixed
subring A0 = Z[z + z^-1] is the scalar ring for everything built on top.
Coefficients are Python ints, so repeated products never overflow; all values
are immutable and kept in canonical form, so ``==`` is mathematical equality.

``sums_of_products`` is the exact product kernel: Kronecker substitution
z -> 2^k, with ``pack`` turning a polynomial into one integer and a digit
width k that bounds every coefficient it must recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Sequence

# The largest |exponent| a JSON file may hold: the work of products and twists
# grows with the exponent span, and a span of 2**63 cannot even be allocated.
EXPONENT_BOUND = 1024


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
        lo, coeffs = _trim(lo, coeffs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "coeffs", coeffs)

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
        return _add_sub(self, other, add)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _canonical(self.lo, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _add_sub(self, other, sub)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return _add_sub(LaurentPoly.const(other), self, sub)
        return NotImplemented

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _canonical(self.lo, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        # Z has no zero divisors, so the end coefficients a[0]*b[0] and
        # a[-1]*b[-1] are nonzero and the product is already canonical.
        return _canonical(self.lo + other.lo, tuple(out))

    __rmul__ = __mul__

    def conj(self) -> LaurentPoly:
        """The conjugate f(z^-1)."""
        if not self.coeffs:
            return self
        return _canonical(-self.hi, self.coeffs[::-1])

    def split_A0(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Decompose f = g + h*z with g, h symmetric (A = A0 + A0*z).

        h is the quotient (f - f*)/(z - z^-1) and g = f - h*z; both land in
        A0 by construction.  The division is exact, since a = f - f* is
        antisymmetric and so vanishes at z = 1 and z = -1.  It is solved
        from the top: a spans [-d, d] and h spans [1 - d, d - 1], and the
        coefficient of z^e in h*(z - z^-1) is h[e-1] - h[e+1], so
        h[e-1] = a[e] + h[e+1], starting from h[d] = h[d+1] = 0.
        """
        a = self - self.conj()
        if not a.coeffs:
            return self, _ZERO
        c = a.coeffs
        h = [0] * len(c)
        for i in range(len(c) - 1, 1, -1):
            h[i - 2] = c[i] + h[i]
        # h's top coefficient is a's, and h is symmetric, so h (and h*z)
        # is already canonical
        h = tuple(h[:-2])
        return self - _canonical(a.lo + 2, h), _canonical(a.lo + 1, h)

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
        if max(abs(lo), abs(lo + len(coeffs) - 1)) > EXPONENT_BOUND:
            raise ValueError(f"polynomial JSON exponents must lie in "
                             f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND}]")
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


_new = object.__new__
_set_lo = LaurentPoly.lo.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _canonical(lo: int, coeffs: tuple[int, ...]) -> LaurentPoly:
    """Wrap a coefficient tuple that is already canonical (nonzero end
    coefficients, or ``()`` with ``lo == 0``) without trimming it again."""
    p = _new(LaurentPoly)
    _set_lo(p, lo)
    _set_coeffs(p, coeffs)
    return p


def _trim(lo: int, coeffs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The canonical ``(lo, coeffs)`` of a dense coefficient run: zero end
    coefficients dropped, and ``(0, ())`` when nothing is left."""
    l, r = 0, len(coeffs)
    while l < r and coeffs[l] == 0:
        l += 1
    if l == r:
        return 0, ()
    while coeffs[r - 1] == 0:
        r -= 1
    return lo + l, tuple(coeffs[l:r])


def _add_sub(f: LaurentPoly, g: LaurentPoly, op) -> LaurentPoly:
    """f + g (``op`` is ``operator.add``) or f - g (``operator.sub``),
    summed on one list.  Zeros inside are canonical, so only the ends are
    trimmed."""
    a, b = f.coeffs, g.coeffs
    if not b:
        return f
    if not a:
        return g if op is add else -g
    lo = min(f.lo, g.lo)
    out = [0] * (max(f.lo + len(a), g.lo + len(b)) - lo)
    i = f.lo - lo
    out[i:i + len(a)] = a
    j = g.lo - lo
    out[j:j + len(b)] = map(op, out[j:j + len(b)], b)
    return _canonical(*_trim(lo, out))


_ZERO = LaurentPoly(0, ())


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

    def scale(self, f: LaurentPoly) -> LaurentPoly:
        """The product sign * z^exp * f: f's coefficients, negated when the
        sign is -1, starting at f.lo + exp; no multiplication is done."""
        if not f.coeffs:
            return f
        return _canonical(f.lo + self.exp,
                          f.coeffs if self.sign > 0 else tuple(-c for c in f.coeffs))

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
        if not _is_int(data["exp"]) or abs(data["exp"]) > EXPONENT_BOUND:
            raise ValueError(f"unit JSON exponent must be an integer in "
                             f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND}]")
        return cls(data["sign"], data["exp"])


# Frequently used constants.
Z = LaurentPoly.term(1, 1)
Z_INV = LaurentPoly.term(1, -1)


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


def sums_of_products(fs: Sequence[LaurentPoly], gs: Sequence[LaurentPoly],
                     rows) -> list[LaurentPoly]:
    """For each row of ``(sign, i, j)`` terms, the polynomial
    ``sum(sign * fs[i] * gs[j])``, computed exactly by Kronecker substitution.

    Substituting z -> 2^k turns polynomials into integers and their products
    into integer products.  Each input f is packed once into one integer:
    its coefficients summed at 2^k by Horner's rule (signed), shifted left
    by k bits for each power of z that f.lo lies above the lowest ``lo`` of
    its side (``fs`` or ``gs``).  Every product of a packed pair is then
    shifted to the same lowest exponent, so a row is one integer sum of
    signed products, and it is unpacked once into balanced k-bit digits,
    which are its coefficients.  A sign may be any integer; the callers
    use +1 and -1.

    The digit width makes this exact for inputs of any size: a coefficient
    of f*g sums at most min(len f, len g) products of one coefficient of each,
    so every coefficient of a row is bounded in absolute value by the row's
    ``sum(|sign| * min(len f, len g) * max|f| * max|g|)``.  With ``bound`` the
    largest of these and ``k = bound.bit_length() + 1``, every coefficient
    lies strictly between -2^(k-1) and 2^(k-1), so each is one balanced
    digit and no carry crosses into the next.

    >>> f = LaurentPoly(-1, (1, 2))      # z^-1 + 2
    >>> g = LaurentPoly(0, (3, -1))      # 3 - z
    >>> sums_of_products([f], [g, f], [[(1, 0, 0), (-1, 0, 1)], []])
    [LaurentPoly('-2z + 1 - z^-1 - z^-2'), LaurentPoly('0')]
    """
    fc, fm, flo = _operands(fs)
    gc, gm, glo = _operands(gs)
    bound = 0
    for row in rows:
        b = 0
        for s, i, j in row:
            b += abs(s) * min(len(fc[i]), len(gc[j])) * fm[i] * gm[j]
        if b > bound:
            bound = b
    k = bound.bit_length() + 1
    fp = [pack(f, k, flo) for f in fs]
    gp = [pack(g, k, glo) for g in gs]
    out = []
    for row in rows:
        v = 0
        for s, i, j in row:
            v += s * fp[i] * gp[j]
        out.append(_unpack(v, k, flo + glo))
    return out


def _operands(polys: Sequence[LaurentPoly]) -> tuple[list, list, int]:
    """One side of the kernel's input: each operand's coefficient tuple and
    largest absolute coefficient, and the lowest ``lo`` of the nonzero
    operands (0 if there are none)."""
    cs, ms, lo = [], [], None
    for f in polys:
        c = f.coeffs
        cs.append(c)
        if c:
            ms.append(max(max(c), -min(c)))
            if lo is None or f.lo < lo:
                lo = f.lo
        else:
            ms.append(0)
    return cs, ms, 0 if lo is None else lo


def pack(f: LaurentPoly, k: int, lo: int) -> int:
    """The value at z = 2^k of z^-lo * f, for lo at most f's lowest
    exponent: f's coefficients as signed k-bit digits, its z^e at digit
    e - lo.

    >>> pack(LaurentPoly(-1, (1, 0, -1)), 4, -1)   # z^-1 - z
    -255
    """
    return _pack(f.coeffs, k) << k * (f.lo - lo) if f.coeffs else 0


def _pack(coeffs: tuple[int, ...], k: int) -> int:
    """The value at z = 2^k of the polynomial with these coefficients."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int, lo: int) -> LaurentPoly:
    """The polynomial whose coefficients, each of absolute value below
    2^(k-1), are the balanced k-bit digits of ``v``, the lowest at z^lo.

    Whole zero digits at the bottom are skipped at once (``tz // k`` of
    them, tz the number of trailing zero bits); then each digit is the low
    k bits taken as a signed value, and subtracting it leaves an exact
    multiple of 2^k, so the loop ends, on a nonzero digit, when v is 0."""
    if not v:
        return _ZERO
    skip = ((v & -v).bit_length() - 1) // k
    v >>= k * skip
    half, base = 1 << (k - 1), 1 << k
    mask = base - 1
    digits = []
    while v:
        d = v & mask
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> k
    return _canonical(lo + skip, tuple(digits))


def random_poly(rng, degree_bound: int = 3, coeff_bound: int = 9) -> LaurentPoly:
    """A random polynomial with exponents in [-degree_bound, degree_bound]
    and coefficients uniform in [-coeff_bound, coeff_bound]."""
    coeffs = [rng.randint(-coeff_bound, coeff_bound)
              for _ in range(2 * degree_bound + 1)]
    return LaurentPoly(-degree_bound, coeffs)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
