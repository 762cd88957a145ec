"""Tests for the Laurent polynomial layer."""

import json
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from yangalg.laurent import (
    Z,
    Z_INV,
    LaurentPoly,
    UnitA,
    divexact,
    random_poly,
    sums_of_products,
)

P = LaurentPoly


def lp(lo, *coeffs):
    return P(lo, coeffs)


# Polynomials for the property tests: exponents from -8 up to 15, small
# coefficients (zeros among them) mixed with ones beyond 2^63.
BIG = 2 ** 63
coeffs = st.one_of(st.integers(-3, 3), st.integers(BIG, 4 * BIG),
                   st.integers(-4 * BIG, -BIG))
polys = st.builds(P, st.integers(-8, 8), st.lists(coeffs, max_size=8))

_z = sympy.Symbol("z")
SHIFT = 32  # z^SHIFT * f has no negative powers for any generated f


def sym(f: P, shift: int = SHIFT) -> sympy.Poly:
    """z^shift * f as a sympy polynomial over ZZ, the independent oracle."""
    return sympy.Poly.from_dict({(f.lo + i + shift,): c for i, c in enumerate(f.coeffs) if c},
                                _z, domain=sympy.ZZ)


def sym_conj(f: P) -> sympy.Poly:
    """z^SHIFT * f(1/z), computed by sympy from z^SHIFT * f."""
    return sympy.Poly(sympy.expand(_z ** (2 * SHIFT) * sym(f).as_expr().subs(_z, 1 / _z)),
                      _z, domain=sympy.ZZ)


def assert_canonical(r):
    """Nonzero end coefficients, zero exactly (0, ()), and nothing the
    constructor would trim."""
    assert isinstance(r, P) and type(r.coeffs) is tuple
    if r.coeffs:
        assert r.coeffs[0] != 0 and r.coeffs[-1] != 0
    else:
        assert r.lo == 0
    rebuilt = P(r.lo, r.coeffs)
    assert (rebuilt.lo, rebuilt.coeffs) == (r.lo, r.coeffs)


def test_canonical_form():
    assert lp(0, 0, 1, 0).lo == 1
    assert lp(0, 0, 1, 0).coeffs == (1,)
    assert lp(5, 0, 0, 0) == P.zero()
    assert P.zero().lo == 0 and P.zero().coeffs == ()
    assert lp(2, 0, 3) == lp(3, 3)
    assert hash(lp(2, 0, 3)) == hash(lp(3, 3))


def test_add_examples():
    one_plus_z = lp(0, 1, 1)
    assert one_plus_z + lp(1, -1) == P.one()
    f = lp(-2, 3, 0, 1)
    assert P.zero() + f == f
    sym = lp(-1, 1, 0, 1)  # z^-1 + z
    assert sym + sym == lp(-1, 2, 0, 2)


def test_mul_examples():
    assert lp(0, 1, 1) * lp(-1, 1, 1) == lp(-1, 1, 2, 1)  # 2 + z + z^-1
    assert Z * lp(-1, 1) == P.one()
    assert lp(-2, 4, -1, 7) * P.zero() == P.zero()
    assert lp(0, 2) * 3 == lp(0, 6)


def test_conj_examples():
    assert lp(2, 1).conj() == lp(-2, 1)
    assert lp(0, 1, 2).conj() == lp(-1, 2, 1)  # 1 + 2z -> 1 + 2z^-1
    sym = lp(-1, 1, 0, 1)
    assert sym.conj() == sym
    assert Z.conj() != Z
    sphere_norm = -((Z - Z_INV) * (Z - Z_INV))  # 2 - z^2 - z^-2
    assert sphere_norm == lp(-2, -1, 0, 2, 0, -1)
    assert sphere_norm.conj() == sphere_norm


def test_constant_term():
    assert lp(0, 3, 1).constant_term() == 3
    assert lp(5, 1).constant_term() == 0
    prod = lp(0, 1, 1) * lp(-1, 1, 1)
    assert prod.constant_term() == 2  # sum of squares of (1, 1)


def test_split_examples():
    g, h = lp(2, 1).split_A0()  # z^2 = -1 + (z + z^-1) z
    assert g == lp(0, -1)
    assert h == lp(-1, 1, 0, 1)
    g, h = lp(-1, 1).split_A0()  # z^-1 = (z + z^-1) - z
    assert g == lp(-1, 1, 0, 1)
    assert h == lp(0, -1)
    g, h = P.const(5).split_A0()
    assert g == P.const(5) and h == P.zero()


def test_split_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        f = random_poly(rng, 6, 9)
        g, h = f.split_A0()
        assert g == g.conj() and h == h.conj()
        assert g + h * Z == f


def split_oracle(f):
    """The split by its definition: h = (f - f*) / (z - z^-1), g = f - h z."""
    h = divexact(f - f.conj(), Z - Z_INV)
    return f - h * Z, h


@settings(max_examples=300, deadline=None)
@given(polys)
@example(P.zero())
@example(P.const(-7))
@example(lp(-1, 1, 0, 1))                  # symmetric: h = 0
@example(lp(-1, 1, 0, -1))                 # antisymmetric: z^-1 - z = -1 * (z - z^-1)
@example(lp(12, 1))                        # z^12, far from 0
@example(lp(-9, 2 ** 80, 0, 0, -(2 ** 64), 5))
def test_split_matches_divexact(f):
    g, h = f.split_A0()
    assert (g, h) == split_oracle(f)
    assert_canonical(g)
    assert_canonical(h)


def test_as_unit():
    assert lp(3, -1).as_unit() == UnitA(-1, 3)
    assert lp(0, 1, 1).as_unit() is None
    rng = random.Random(3)
    for _ in range(200):
        f = random_poly(rng, 4, 4)
        assert (f.as_unit() is not None) == (f * f.conj() == P.one())


def test_unit_ops():
    u = UnitA(-1, 3)
    assert u.to_poly() == lp(3, -1)
    assert u * u.conj() == UnitA.identity()
    for bad_sign in (2, 0, True, 1.0):
        with pytest.raises(ValueError):
            UnitA(bad_sign, 0)


def test_divexact():
    f = lp(0, 1, 1) * lp(-2, 3, 0, -1)
    assert divexact(f, lp(0, 1, 1)) == lp(-2, 3, 0, -1)
    with pytest.raises(ValueError):
        divexact(lp(0, 1, 1), lp(0, 2))
    with pytest.raises(ZeroDivisionError):
        divexact(Z, P.zero())


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert sym(f + g) == sym(f) + sym(g)
    assert sym(f - g) == sym(f) - sym(g)
    assert sym(-f) == -sym(f)
    assert sym(f * g, 2 * SHIFT) == sym(f) * sym(g)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f + P.zero() == f and f - f == P.zero() and f + (-f) == P.zero()
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * P.one() == f and f * P.zero() == P.zero()
    assert f * (g + h) == f * g + f * h


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_conj_is_ring_involution(f, g):
    assert sym(f.conj()) == sym_conj(f)
    assert (f * g).conj() == f.conj() * g.conj()
    assert (f + g).conj() == f.conj() + g.conj()
    assert (-f).conj() == -f.conj()
    assert f.conj().conj() == f


@settings(max_examples=150, deadline=None)
@given(polys, polys.filter(bool), polys)
def test_divexact_matches_sympy(f, g, h):
    assert divexact(f * g, g) == f
    # h / g: sympy divides over QQ, so g divides h in A exactly when the
    # remainder is zero and the quotient is integral
    q, rem = sympy.div(sym(h, 2 * SHIFT).set_domain(sympy.QQ), sym(g).set_domain(sympy.QQ))
    if rem.is_zero and all(c.is_integer for c in q.coeffs()):
        assert sym(divexact(h, g)) == q.set_domain(sympy.ZZ)
    else:
        with pytest.raises(ValueError):
            divexact(h, g)


@settings(max_examples=200, deadline=None)
@given(polys, polys, st.integers(-3, 3))
def test_results_are_canonical(f, g, n):
    low = P.term(f.coeffs[0], f.lo) if f else P.zero()
    high = P.term(f.coeffs[-1], f.hi) if f else P.zero()
    results = [f + g, f - g, g - f, -f, f * g, f.conj(),
               f + n, n + f, f - n, n - f, f * n, n * f,
               f - f, f + (-f), -f + f, (f + g) - g, g + (f - g),  # cancel to f or 0
               f - low, f - high, low - f, -high + f, f - low - high]  # cancel ends
    for r in results:
        assert_canonical(r)
    assert n - f == -(f - n) == P.const(n) - f and n + f == f + n == f + P.const(n)
    if len(f.coeffs) > 1:
        assert f - low - high == P(f.lo, (0,) + f.coeffs[1:-1] + (0,))


def test_ct_of_self_product():
    rng = random.Random(7)
    for _ in range(300):
        f = random_poly(rng, 5, 9)
        ct = (f * f.conj()).constant_term()
        assert ct == sum(c * c for c in f.coeffs)
        if ct == 0:
            assert f == P.zero()


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_no_nonsquare_constant_norms():
    # f * f.conj() evaluated at z = 1 is f(1)^2; in particular a constant
    # value of f * f.conj() is always a perfect square.
    rng = random.Random(8)
    non_squares = [m for m in range(-20, 21) if not is_perfect_square(m)]
    for _ in range(500):
        f = random_poly(rng, 4, 9)
        sq = f * f.conj()
        assert is_perfect_square(sum(sq.coeffs))  # the value at z = 1
        if not sq.coeffs or (sq.lo == 0 and len(sq.coeffs) == 1):
            assert is_perfect_square(sq.constant_term())
        for m in non_squares:
            assert sq != P.const(m)


@settings(max_examples=100, deadline=None)
@given(polys, st.builds(UnitA, st.sampled_from((1, -1)), st.integers(-1024, 1024)))
@example(P.zero(), UnitA(1, 1024))
def test_json_round_trip(f, u):
    assert P.from_json(json.loads(json.dumps(f.to_json()))) == f
    assert UnitA.from_json(json.loads(json.dumps(u.to_json()))) == u


def test_json_rejects_noncanonical():
    with pytest.raises(ValueError):
        P.from_json({"lo": 0, "coeffs": [0, 1]})
    with pytest.raises(ValueError):
        P.from_json({"lo": 0, "coeffs": [1, 0]})
    with pytest.raises(ValueError):
        P.from_json({"lo": 3, "coeffs": []})
    with pytest.raises(ValueError):
        P.from_json({"lo": 0, "coeffs": [True]})
    with pytest.raises(ValueError):
        P.from_json({"coeffs": [1]})
    with pytest.raises(ValueError):
        P.from_json({"lo": 0, "coeffs": [1], "extra": 1})


def test_json_rejects_exponents_past_the_bound():
    for lo, coeffs in ((-1024, [1]), (1024, [1]), (-1024, [1] * 2049)):
        P.from_json({"lo": lo, "coeffs": coeffs})
    for lo, coeffs in ((-1025, [1]), (1025, [1]), (1000, [1] * 26), (2**63, [1])):
        with pytest.raises(ValueError, match="exponent"):
            P.from_json({"lo": lo, "coeffs": coeffs})
    for exp in (-1024, 1024):
        assert UnitA.from_json({"sign": 1, "exp": exp}) == UnitA(1, exp)
    for exp in (-1025, 1025, 10**400):
        with pytest.raises(ValueError, match="exponent"):
            UnitA.from_json({"sign": -1, "exp": exp})


def test_str():
    assert str(P.zero()) == "0"
    assert str(lp(-2, -1, 0, 2, 0, -1)) == "-z^2 + 2 - z^-2"
    assert str(lp(0, 1, 1)) == "z + 1"


def _plain_sums(fs, gs, rows):
    """The kernel's rows summed with LaurentPoly's own *, + and unary -."""
    out = []
    for row in rows:
        acc = P.zero()
        for sign, i, j in row:
            term = fs[i] * gs[j]
            for _ in range(abs(sign)):
                acc = acc + (term if sign > 0 else -term)
        out.append(acc)
    return out


@st.composite
def kernel_inputs(draw):
    fs = draw(st.lists(polys, min_size=1, max_size=5))
    gs = draw(st.lists(polys, min_size=1, max_size=5))
    term = st.tuples(st.sampled_from((1, -1, 2, -3)), st.integers(0, len(fs) - 1),
                     st.integers(0, len(gs) - 1))
    rows = draw(st.lists(st.lists(term, max_size=6), max_size=4))
    if rows and draw(st.booleans()):  # a row that cancels completely
        rows.append(rows[0] + [(-s, i, j) for s, i, j in reversed(rows[0])])
    return fs, gs, rows


HUGE = lp(-3, 2 ** 80 + 1, 0, -(2 ** 64))
SMALL = lp(5, 1, -1)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
@example(([HUGE, SMALL], [SMALL, HUGE], [[(1, 0, 0), (-1, 1, 1), (1, 1, 0)]]))  # >2^63 and small
@example(([P.zero(), SMALL], [HUGE, P.zero()], [[(1, 0, 0), (1, 1, 1)], [(-1, 0, 1)]]))  # zeros
@example(([lp(-7, 1, 2), lp(4, 3)], [lp(-2, -1), lp(9, 1, 0, 1)],
          [[(1, 0, 0), (1, 1, 1)], [], [(1, 0, 1), (-1, 0, 1)]]))  # mixed lo, empty, cancel
@example(([lp(0, 1, 1)], [lp(0, 1, -1), lp(1, 1)],  # (1+z)(1-z) + (1+z)z: z^2 cancels
          [[(1, 0, 0), (1, 0, 1)]]))
@example(([lp(0, 3), lp(-1, 2, 2, 2)], [lp(2, -3), lp(4, -2, -2, -2)],  # a coefficient
          [[(1, 0, 0)], [(1, 1, 1)], [(-1, 0, 0), (1, 1, 1)]]))          # equals the bound
def test_sums_of_products_matches_oracles(inputs):
    fs, gs, rows = inputs
    got = sums_of_products(fs, gs, rows)
    assert got == _plain_sums(fs, gs, rows)
    assert len(got) == len(rows)
    for row, r in zip(rows, got):
        assert_canonical(r)
        oracle = sympy.Poly(0, _z, domain=sympy.ZZ)
        for sign, i, j in row:
            oracle += sign * sym(fs[i]) * sym(gs[j])
        assert sym(r, 2 * SHIFT) == oracle
