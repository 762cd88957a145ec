"""Tests for the Laurent polynomial layer."""

import math
import random

import pytest

from yangalg.laurent import (
    SPHERE_PRIME_NORM,
    Z,
    Z_MINUS_ZINV,
    LaurentPoly,
    UnitA,
    divexact,
    factor_sphere_prime,
    random_poly,
)

P = LaurentPoly


def lp(lo, *coeffs):
    return P(lo, coeffs)


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


def test_constant_term():
    assert lp(0, 3, 1).constant_term() == 3
    assert lp(5, 1).constant_term() == 0
    prod = lp(0, 1, 1) * lp(-1, 1, 1)
    assert prod.constant_term() == 2  # sum of squares of (1, 1)


def test_eval_int():
    f = Z - Z.conj()
    assert f.eval_int(1) == 0
    assert f.eval_int(-1) == 0
    assert lp(0, 1, 2).eval_int(-1) == -1
    with pytest.raises(ValueError):
        lp(0, 1).eval_int(2)
    rng = random.Random(0)
    for _ in range(100):
        g = random_poly(rng, 5, 9)
        for w in (1, -1):
            assert g.conj().eval_int(w) == g.eval_int(w)


def test_is_symmetric():
    assert lp(-1, 1, 0, 1).is_symmetric()
    assert not Z.is_symmetric()
    assert SPHERE_PRIME_NORM.is_symmetric()
    assert SPHERE_PRIME_NORM == lp(-2, -1, 0, 2, 0, -1)


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
        assert g.is_symmetric() and h.is_symmetric()
        assert g + h * Z == f


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


def test_factor_sphere_prime_examples():
    assert factor_sphere_prime(Z_MINUS_ZINV) == UnitA(1, 0)
    assert factor_sphere_prime(lp(-2, -1, 0, 1)) == UnitA(1, -1)  # 1 - z^-2
    assert factor_sphere_prime(-Z_MINUS_ZINV) == UnitA(-1, 0)
    with pytest.raises(ValueError):
        factor_sphere_prime(Z)


def test_factor_sphere_prime_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        u = UnitA(rng.choice((1, -1)), rng.randint(-6, 6))
        f = Z_MINUS_ZINV * u.to_poly()
        assert factor_sphere_prime(f) == u


def test_ring_axioms():
    rng = random.Random(5)
    for _ in range(300):
        f = random_poly(rng, 4, 9)
        g = random_poly(rng, 4, 9)
        h = random_poly(rng, 4, 9)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_conj_is_ring_involution():
    rng = random.Random(6)
    for _ in range(300):
        f = random_poly(rng, 5, 9)
        g = random_poly(rng, 5, 9)
        assert (f * g).conj() == f.conj() * g.conj()
        assert (f + g).conj() == f.conj() + g.conj()
        assert f.conj().conj() == f


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
        assert is_perfect_square(sq.eval_int(1))
        if not sq.coeffs or (sq.lo == 0 and len(sq.coeffs) == 1):
            assert is_perfect_square(sq.constant_term())
        for m in non_squares:
            assert sq != P.const(m)


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        f = random_poly(rng, 6, 9)
        assert P.from_json(f.to_json()) == f
    assert P.from_json({"lo": 0, "coeffs": []}) == P.zero()


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


def test_str():
    assert str(P.zero()) == "0"
    assert str(lp(-2, -1, 0, 2, 0, -1)) == "-z^2 + 2 - z^-2"
    assert str(lp(0, 1, 1)) == "z + 1"
