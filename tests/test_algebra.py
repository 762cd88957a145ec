"""Tests for the octonion module: the three multiplications, the norm-form
machinery, and the unit-sphere decomposition."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from yangalg.laurent import (
    Z,
    Z_INV,
    LaurentPoly,
    UnitA,
    random_poly,
)
from yangalg.algebra import (
    _YANG_TERMS,
    OctonionElt,
    QuaternionElt,
    cd_oct_mul,
    decompose_unit,
    iso_cd_to_yang,
    norm,
    oct_conj,
    polar_q,
    quat_conj,
    quat_mul,
    random_oct,
    term_mul,
    thakur_mul,
    trace,
    yang_mul,
    yang_mul_with_sign_flip,
)
from mutants import single_term_mutants

E = OctonionElt.e
ZERO = OctonionElt.zero()
ONE = LaurentPoly.one()


def rand_pair(rng, d=3, c=6):
    return random_oct(rng, d, c), random_oct(rng, d, c)


def test_yang_identity_element():
    rng = random.Random(10)
    for _ in range(50):
        x = random_oct(rng)
        assert yang_mul(E(0), x) == x
        assert yang_mul(x, E(0)) == x


def test_yang_basis_products():
    for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert yang_mul(E(i), E(j)) == E(k)
        assert yang_mul(E(j), E(i)) == -E(k)
    for i in (1, 2, 3):
        assert yang_mul(E(i), E(i)) == -E(0)


def test_yang_scaled_basis_products():
    # (a e_i)(b e_j) = a* b* e_k on a cyclic triple
    a, b = Z, Z * Z
    assert yang_mul(a * E(1), b * E(2)) == LaurentPoly.term(1, -3) * E(3)


def test_quat_examples():
    one = QuaternionElt(ONE, LaurentPoly.zero())
    i = QuaternionElt(LaurentPoly.zero(), ONE)
    c = QuaternionElt(LaurentPoly(0, (1, 2)), Z)
    assert quat_mul(one, c) == c
    assert quat_mul(i, i) == QuaternionElt(-ONE, LaurentPoly.zero())
    zq = QuaternionElt(Z, LaurentPoly.zero())
    assert quat_mul(zq, zq) == QuaternionElt(Z * Z, LaurentPoly.zero())


def test_quat_conj_examples():
    assert quat_conj(QuaternionElt(Z, LaurentPoly.zero())) == QuaternionElt(Z.conj(), LaurentPoly.zero())
    assert quat_conj(QuaternionElt(LaurentPoly.zero(), ONE)) == QuaternionElt(LaurentPoly.zero(), -ONE)
    p = QuaternionElt(LaurentPoly(0, (1, 1)), Z)
    assert quat_conj(p) == QuaternionElt(LaurentPoly(-1, (1, 1)), -Z)


def test_quat_conj_is_anti_automorphism():
    rng = random.Random(11)
    for _ in range(100):
        p = QuaternionElt(random_poly(rng, 3, 5), random_poly(rng, 3, 5))
        q = QuaternionElt(random_poly(rng, 3, 5), random_poly(rng, 3, 5))
        assert quat_conj(quat_mul(p, q)) == quat_mul(quat_conj(q), quat_conj(p))
        assert quat_conj(quat_conj(p)) == p


def _cd_expanded(x, y):
    # Independent transcription of the doubled product written out in the
    # four A-coordinates; used only to cross-check the quaternion route.
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    return OctonionElt(
        x0 * y0 - x1 * y1.conj() - x2 * y2.conj() - x3.conj() * y3,
        x0 * y1 + x1 * y0.conj() + x2.conj() * y3 - x3 * y2.conj(),
        x0 * y2 - x1.conj() * y3 + x2 * y0.conj() + x3 * y1.conj(),
        x0.conj() * y3 + x1 * y2 - x2 * y1 + x3 * y0,
    )


def test_cd_matches_expanded_form():
    rng = random.Random(12)
    for _ in range(200):
        x, y = rand_pair(rng)
        assert cd_oct_mul(x, y) == _cd_expanded(x, y)


def test_cd_examples():
    rng = random.Random(13)
    y = random_oct(rng)
    assert cd_oct_mul(E(0), y) == y
    assert cd_oct_mul(E(3), E(3)) == -E(0)


def test_iso_examples():
    assert iso_cd_to_yang(OctonionElt.from_coords((0, 0, 0, Z))) == \
        OctonionElt.from_coords((0, 0, 0, Z.conj()))
    fixed = OctonionElt.from_coords((1, Z, 0, 0))
    assert iso_cd_to_yang(fixed) == fixed
    rng = random.Random(14)
    for _ in range(50):
        x = random_oct(rng)
        assert iso_cd_to_yang(iso_cd_to_yang(x)) == x


def test_iso_intertwines_cd_and_yang():
    rng = random.Random(15)
    for _ in range(200):
        x, y = rand_pair(rng)
        assert iso_cd_to_yang(cd_oct_mul(x, y)) == \
            yang_mul(iso_cd_to_yang(x), iso_cd_to_yang(y))


def test_oct_conj():
    assert oct_conj(E(0)) == E(0)
    assert oct_conj(E(2)) == -E(2)
    x = Z * E(0) + E(1)
    assert oct_conj(x) == Z.conj() * E(0) - E(1)
    rng = random.Random(16)
    for _ in range(100):
        x, y = rand_pair(rng)
        assert oct_conj(yang_mul(x, y)) == yang_mul(oct_conj(y), oct_conj(x))
        assert oct_conj(oct_conj(x)) == x


def test_norm_examples():
    assert norm(Z * E(0)) == ONE
    assert norm(OctonionElt.from_coords((1, 1, 1, 1))) == LaurentPoly.const(4)
    assert norm((Z - Z_INV) * E(2)) == LaurentPoly(-2, (-1, 0, 2, 0, -1))
    rng = random.Random(17)
    for _ in range(100):
        x = random_oct(rng)
        assert norm(x) == norm(x).conj()
        assert (norm(x) == LaurentPoly.zero()) == x.is_zero()


def test_polar_q():
    assert polar_q(E(0), E(1)) == LaurentPoly.zero()
    assert polar_q(E(0), E(0)) == LaurentPoly.const(2)
    assert polar_q(Z * E(0), E(0)) == Z + Z.conj()
    rng = random.Random(18)
    for _ in range(100):
        x, y = rand_pair(rng)
        assert polar_q(x, y) == norm(x + y) - norm(x) - norm(y)
        assert polar_q(x, y) == polar_q(y, x)


def test_trace():
    assert trace(E(0)) == LaurentPoly.const(2)
    assert trace(E(1)) == LaurentPoly.zero()
    assert trace(Z * E(0)) == Z + Z.conj()


def test_thakur_examples():
    rng = random.Random(19)
    y = random_oct(rng)
    assert thakur_mul(E(0), y) == y
    assert thakur_mul(y, E(0)) == y
    assert thakur_mul(E(1), E(2)) == E(3)


def test_thakur_equals_yang():
    rng = random.Random(20)
    for _ in range(200):
        x, y = rand_pair(rng)
        assert thakur_mul(x, y) == yang_mul(x, y)


def test_lagrange_identity():
    rng = random.Random(21)
    for _ in range(200):
        x, y = rand_pair(rng)
        assert norm(yang_mul(x, y)) == norm(x) * norm(y)


def test_alternative_laws():
    rng = random.Random(22)
    for _ in range(100):
        x, y = rand_pair(rng)
        assert yang_mul(x, yang_mul(x, y)) == yang_mul(yang_mul(x, x), y)
        assert yang_mul(yang_mul(x, y), y) == yang_mul(x, yang_mul(y, y))


def test_quadratic_identity():
    rng = random.Random(23)
    for _ in range(100):
        x = random_oct(rng)
        assert yang_mul(x, x) - trace(x) * x + norm(x) * E(0) == ZERO


def test_linearized_trace_identity():
    rng = random.Random(24)
    for _ in range(100):
        x, y = rand_pair(rng)
        lhs = yang_mul(x, y) + yang_mul(y, x)
        assert lhs == trace(x) * y + trace(y) * x - polar_q(x, y) * E(0)


def test_adjoint_identity():
    rng = random.Random(25)
    for _ in range(100):
        x, y = rand_pair(rng)
        w = random_oct(rng)
        q = polar_q(yang_mul(x, y), w)
        assert polar_q(x, yang_mul(w, oct_conj(y))) == q
        assert polar_q(y, yang_mul(oct_conj(x), w)) == q


def test_yang_is_not_associative():
    # Integer combinations of e0..e3 are conjugation-fixed, so associativity
    # only breaks once z-scaled basis elements are in play; scan the full
    # rank-8 Z[t]-basis.
    basis = [E(k) for k in range(4)] + [Z * E(k) for k in range(4)]
    witnesses = [
        (x, y, w)
        for x in basis for y in basis for w in basis
        if yang_mul(yang_mul(x, y), w) != yang_mul(x, yang_mul(y, w))
    ]
    assert witnesses
    assert yang_mul(yang_mul(Z * E(1), Z * E(2)), Z * E(3)) == \
        LaurentPoly.term(-1, -3) * E(0)
    assert yang_mul(Z * E(1), yang_mul(Z * E(2), Z * E(3))) == \
        LaurentPoly.term(-1, 3) * E(0)


def test_decompose_unit():
    x = OctonionElt.from_coords((0, LaurentPoly.term(-1, 2), 0, 0))
    assert decompose_unit(x) == (1, UnitA(-1, 2))
    assert decompose_unit(E(3)) == (3, UnitA(1, 0))
    rng = random.Random(26)
    for _ in range(200):
        k = rng.randrange(4)
        u = UnitA(rng.choice((1, -1)), rng.randint(-6, 6))
        assert decompose_unit(u.to_poly() * E(k)) == (k, u)
    with pytest.raises(ValueError):
        decompose_unit(E(0) + E(1))
    with pytest.raises(ValueError):
        decompose_unit(LaurentPoly(0, (1, 1)) * E(0))
    for x in (OctonionElt.zero(), 2 * E(2), LaurentPoly.term(1, 1) * E(0) - E(3)):
        with pytest.raises(ValueError, match="^element is not on the unit sphere"):
            decompose_unit(x)


def test_sign_flip_breaks_lagrange():
    rng = random.Random(28)
    bad = yang_mul_with_sign_flip(0)
    assert any(
        norm(bad(x, y)) != norm(x) * norm(y)
        for x, y in (rand_pair(rng) for _ in range(50))
    )


def test_yang_term_table_shape():
    # Klein pattern: row k pairs x_i with y_j where i xor j == k, and each
    # row uses every left and every right coordinate exactly once
    for k, row in enumerate(_YANG_TERMS):
        assert len(row) == 4
        for (sign, i, ci, j, cj) in row:
            assert sign in (1, -1) and isinstance(ci, bool) and isinstance(cj, bool)
            assert i ^ j == k
        assert sorted(i for (_s, i, _ci, _j, _cj) in row) == [0, 1, 2, 3]
        assert sorted(j for (_s, _i, _ci, j, _cj) in row) == [0, 1, 2, 3]


def _plain_terms(x, y, terms):
    """The product of a term table, summed with LaurentPoly's own ``*``,
    ``+`` and unary ``-`` (the reference for the product kernel)."""
    xs = (x.coords, tuple(c.conj() for c in x.coords))
    ys = (y.coords, tuple(c.conj() for c in y.coords))
    out = []
    for row in terms:
        acc = LaurentPoly.zero()
        for (sign, i, ci, j, cj) in row:
            term = xs[ci][i] * ys[cj][j]
            acc = acc + (term if sign > 0 else -term)
        out.append(acc)
    return OctonionElt(*out)


def test_kernel_products_match_plain_ops():
    rng = random.Random(30)
    pairs = [rand_pair(rng, d, c) for d, c in ((0, 1), (1, 3), (3, 9), (2, 2**70))]
    pairs += [(ZERO, E(1)), (Z * E(2), LaurentPoly.term(-1, -4) * E(3)),
              (E(0) + (Z - Z_INV) * E(3), random_oct(rng, 4, 2**64))]
    for x, y in pairs:
        assert yang_mul(x, y) == _plain_terms(x, y, _YANG_TERMS)
        # the 48 single-term mutants; the first 16 are the sign flips
        for k, (name, terms) in enumerate(single_term_mutants()):
            expected = _plain_terms(x, y, terms)
            assert term_mul(terms)(x, y) == expected, name
            if k < 16:
                assert yang_mul_with_sign_flip(k)(x, y) == expected, name
        plain_norm = LaurentPoly.zero()
        plain_polar = LaurentPoly.zero()
        for a, b in zip(x.coords, y.coords):
            plain_norm = plain_norm + a * a.conj()
            plain_polar = plain_polar + a.conj() * b + a * b.conj()
        assert norm(x) == plain_norm
        assert polar_q(x, y) == plain_polar


# Coefficients up to 2^70, zeros among them.
polys = st.builds(LaurentPoly, st.integers(-8, 8),
                  st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=6))


@settings(max_examples=50, deadline=None)
@given(st.builds(OctonionElt, polys, polys, polys, polys))
def test_octonion_json_round_trip(x):
    assert OctonionElt.from_json(json.loads(json.dumps(x.to_json()))) == x
    with pytest.raises(ValueError):
        OctonionElt.from_json({"x": [LaurentPoly.zero().to_json()] * 3})
    with pytest.raises(ValueError):
        OctonionElt.from_json({"y": []})
