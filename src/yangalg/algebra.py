"""The rank-4 module E = A^4 over the Laurent ring, with its norm form and
three independently written multiplications that are required to agree.

``yang_mul`` is the explicit four-formula product satisfying the polynomial
Lagrange identity N(x*y) = N(x)N(y).  ``cd_oct_mul`` doubles the quaternion
algebra H = A x A a second time, and ``thakur_mul`` goes through the ternary
hermitian form and cross product.  Each is transcribed from its own formula,
never derived from the others, so their mutual agreement in the test suite is
a strong check on all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import (
    SPHERE_PRIME_NORM,
    LaurentPoly,
    UnitA,
    factor_sphere_prime,
    random_poly,
    sums_of_products,
)

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


def _as_poly(v) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, int):
        return LaurentPoly.const(v)
    raise TypeError(f"cannot coerce {v!r} to a Laurent polynomial")


@dataclass(frozen=True)
class QuaternionElt:
    """An element of the quaternion algebra H = A x A."""

    a: LaurentPoly
    b: LaurentPoly

    def __add__(self, other: QuaternionElt) -> QuaternionElt:
        return QuaternionElt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: QuaternionElt) -> QuaternionElt:
        return QuaternionElt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> QuaternionElt:
        return QuaternionElt(-self.a, -self.b)


def quat_mul(p: QuaternionElt, q: QuaternionElt) -> QuaternionElt:
    """Doubled product (a,b)(c,d) = (ac - d*b, bc* + da)."""
    a, b, c, d = p.a, p.b, q.a, q.b
    return QuaternionElt(a * c - d.conj() * b, b * c.conj() + d * a)


def quat_conj(p: QuaternionElt) -> QuaternionElt:
    """(a,b)* = (a*, -b); an involutory anti-automorphism of H."""
    return QuaternionElt(p.a.conj(), -p.b)


@dataclass(frozen=True)
class OctonionElt:
    """An element of E = A^4 in the basis {e0, e1, e2, e3}."""

    x0: LaurentPoly
    x1: LaurentPoly
    x2: LaurentPoly
    x3: LaurentPoly

    @property
    def coords(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.x0, self.x1, self.x2, self.x3)

    @classmethod
    def from_coords(cls, coords) -> OctonionElt:
        return cls(*(_as_poly(c) for c in coords))

    @classmethod
    def zero(cls) -> OctonionElt:
        return cls(_ZERO, _ZERO, _ZERO, _ZERO)

    @classmethod
    def e(cls, k: int) -> OctonionElt:
        """The basis element e_k."""
        coords = [_ZERO] * 4
        coords[k] = _ONE
        return cls(*coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: OctonionElt) -> OctonionElt:
        return OctonionElt(*(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: OctonionElt) -> OctonionElt:
        return OctonionElt(*(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> OctonionElt:
        return OctonionElt(*(-c for c in self.coords))

    def __mul__(self, scalar: int | LaurentPoly) -> OctonionElt:
        # Scalar action of A only; octonion products are the named functions.
        if isinstance(scalar, (int, LaurentPoly)):
            f = _as_poly(scalar)
            return OctonionElt(*(f * c for c in self.coords))
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"x": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, data) -> OctonionElt:
        if not isinstance(data, dict) or set(data) != {"x"}:
            raise ValueError("octonion JSON must be {'x': [poly, poly, poly, poly]}")
        x = data["x"]
        if not isinstance(x, list) or len(x) != 4:
            raise ValueError("octonion JSON needs exactly four coordinates")
        return cls(*(LaurentPoly.from_json(c) for c in x))

    def __str__(self) -> str:
        parts = [f"({c})*e{k}" for k, c in enumerate(self.coords) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"OctonionElt('{self}')"


# The four defining formulae, one row per output coordinate.  Each term is
# (sign, left index, conjugate left?, right index, conjugate right?); the
# flattened sign vector is the fault-injection surface used to validate that
# the identity checks catch any single transcription slip.
_YANG_TERMS = (
    ((+1, 0, False, 0, False), (-1, 1, False, 1, True),
     (-1, 2, False, 2, True), (-1, 3, False, 3, True)),
    ((+1, 0, False, 1, False), (+1, 1, False, 0, True),
     (+1, 2, True, 3, True), (-1, 3, True, 2, True)),
    ((+1, 0, False, 2, False), (-1, 1, True, 3, True),
     (+1, 2, False, 0, True), (+1, 3, True, 1, True)),
    ((+1, 0, False, 3, False), (+1, 1, True, 2, True),
     (-1, 2, True, 1, True), (+1, 3, False, 0, True)),
)

YANG_SIGNS = tuple(sign for row in _YANG_TERMS for (sign, *_rest) in row)


def yang_mul_with_signs(x: OctonionElt, y: OctonionElt, signs) -> OctonionElt:
    """The four-formula product with an explicit 16-entry sign vector.

    ``signs == YANG_SIGNS`` gives the genuine product; flipping a single
    entry produces a faulty variant for mutation-testing the checks.
    """
    # Operands 0-3 are the coordinates and 4-7 their conjugates, so each
    # coordinate is conjugated once per product, not once per term.
    signs = iter(signs)
    rows = [[(1 if next(signs) > 0 else -1, i + 4 * ci, j + 4 * cj)
             for (_sign, i, ci, j, cj) in row] for row in _YANG_TERMS]
    return OctonionElt(*sums_of_products(_with_conj(x), _with_conj(y), rows))


def _with_conj(x: OctonionElt) -> tuple[LaurentPoly, ...]:
    """The four coordinates of x followed by their conjugates."""
    return x.coords + tuple(c.conj() for c in x.coords)


def yang_mul(x: OctonionElt, y: OctonionElt) -> OctonionElt:
    """The product

        p = x0 y0  - x1 y1* - x2 y2* - x3 y3*
        q = x0 y1  + x1 y0* + x2*y3* - x3*y2*
        r = x0 y2  - x1*y3* + x2 y0* + x3*y1*
        s = x0 y3  + x1*y2* - x2*y1* + x3 y0*

    which satisfies N(x*y) = N(x)N(y) exactly.
    """
    return yang_mul_with_signs(x, y, YANG_SIGNS)


def yang_mul_with_sign_flip(k: int):
    """A yang_mul variant with the k-th of the 16 term signs negated."""
    signs = list(YANG_SIGNS)
    signs[k] = -signs[k]
    signs = tuple(signs)
    return lambda x, y: yang_mul_with_signs(x, y, signs)


def cd_oct_mul(x: OctonionElt, y: OctonionElt) -> OctonionElt:
    """Doubled product on E = H x H: (u,v)(p,q) = (up - q*v, vp* + qu),
    identifying (x0,x1) and (x2,x3) as the two quaternion halves."""
    u = QuaternionElt(x.x0, x.x1)
    v = QuaternionElt(x.x2, x.x3)
    p = QuaternionElt(y.x0, y.x1)
    q = QuaternionElt(y.x2, y.x3)
    first = quat_mul(u, p) - quat_mul(quat_conj(q), v)
    second = quat_mul(v, quat_conj(p)) + quat_mul(q, u)
    return OctonionElt(first.a, first.b, second.a, second.b)


def iso_cd_to_yang(x: OctonionElt) -> OctonionElt:
    """Conjugate the last coordinate; an involution intertwining cd_oct_mul
    with yang_mul."""
    return OctonionElt(x.x0, x.x1, x.x2, x.x3.conj())


def oct_conj(x: OctonionElt) -> OctonionElt:
    """(a e0 + v)* = a* e0 - v; an anti-automorphism of the algebra."""
    return OctonionElt(x.x0.conj(), -x.x1, -x.x2, -x.x3)


# The one kernel row sum(fs[k] * gs[k]) over the four coordinates.
_DOT = (tuple((1, k, k) for k in range(4)),)


def norm(x: OctonionElt) -> LaurentPoly:
    """N(x) = sum of x_k x_k*, a symmetric polynomial; zero only at x = 0."""
    return sums_of_products(x.coords, [c.conj() for c in x.coords], _DOT)[0]


def polar_q(x: OctonionElt, y: OctonionElt) -> LaurentPoly:
    """Polar form Q(x,y) = N(x+y) - N(x) - N(y) = sum(x_k* y_k + x_k y_k*).

    The second half of the sum is the conjugate of the first, so it is
    r + r* with r = sum(x_k* y_k)."""
    r = sums_of_products([c.conj() for c in x.coords], y.coords, _DOT)[0]
    return r + r.conj()


def trace(x: OctonionElt) -> LaurentPoly:
    """T(x) = Q(e0, x) = x0 + x0*."""
    return x.x0 + x.x0.conj()


def _cross(v, w):
    return (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )


def thakur_mul(x: OctonionElt, y: OctonionElt) -> OctonionElt:
    """Product through the hermitian form on A^3 and the cross product:

        (a e0 + v)(b e0 + w) = (ab - h(v,w)) e0 + (a w + b* v + v* x w*)

    with h(v,w) = sum(v_i w_i*) and the right-handed cross product, which
    makes e1 x e2 = e3.
    """
    a, v = x.x0, (x.x1, x.x2, x.x3)
    b, w = y.x0, (y.x1, y.x2, y.x3)
    h = v[0] * w[0].conj() + v[1] * w[1].conj() + v[2] * w[2].conj()
    scalar = a * b - h
    cross = _cross(tuple(c.conj() for c in v), tuple(c.conj() for c in w))
    b_conj = b.conj()
    vec = tuple(a * w[i] + b_conj * v[i] + cross[i] for i in range(3))
    return OctonionElt(scalar, *vec)


def decompose_unit(x: OctonionElt) -> tuple[int, UnitA]:
    """Write a norm-1 element as u * e_k.

    The precondition is proved rather than trusted: the constant terms of the
    coordinate norms must be three zeros and a single one, which forces one
    unit coordinate and three zero coordinates.
    """
    cts = [c.constant_term() for c in (c * c.conj() for c in x.coords)]
    if sorted(cts) != [0, 0, 0, 1]:
        raise ValueError(f"element is not on the unit sphere (coordinate norms {cts})")
    k = cts.index(1)
    u = x.coords[k].as_unit()
    if u is None:  # unreachable: CT(ff*) = 1 forces ff* = 1
        raise ValueError("unit coordinate is not ±z^k")
    return k, u


def decompose_sphere_prime(x: OctonionElt) -> tuple[int, UnitA]:
    """Write an element of norm 2 - z^2 - z^-2 as (z - z^-1) * u * e_k."""
    if norm(x) != SPHERE_PRIME_NORM:
        raise ValueError("element does not have norm 2 - z^2 - z^-2")
    nonzero = [k for k, c in enumerate(x.coords) if not c.is_zero()]
    if len(nonzero) != 1:
        raise ValueError("expected exactly one nonzero coordinate")
    k = nonzero[0]
    return k, factor_sphere_prime(x.coords[k])


def random_oct(rng, degree_bound: int = 3, coeff_bound: int = 9) -> OctonionElt:
    """An element with four independent random coordinates."""
    return OctonionElt(*(random_poly(rng, degree_bound, coeff_bound)
                         for _ in range(4)))
