"""Tests for the orthogonal-group normal-form calculus."""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from yangalg.laurent import Z, LaurentPoly, UnitA
from yangalg.algebra import OctonionElt, norm, polar_q, yang_mul
from yangalg.ortho import (
    OrthoNF,
    RecognitionError,
    TBASIS,
    random_nf,
    recognize,
)
from helpers import o4z_elements, random_oct, unit_poly

E = OctonionElt.e
ID = UnitA.identity()


def units(*sign_exp_pairs):
    return tuple(UnitA(s, e) for s, e in sign_exp_pairs)


def test_apply_examples():
    sigma = OrthoNF.sigma(units((1, 1), (1, 0), (1, 0), (1, 0)))
    assert sigma.apply(E(0)) == Z * E(0)
    tau0 = OrthoNF.tau((True, False, False, False))
    assert tau0.apply(Z * E(0)) == Z.conj() * E(0)
    swap = OrthoNF.transposition(0, 1)
    assert swap.apply(E(0)) == E(1)


def test_apply_preserves_norm_and_q():
    rng = random.Random(30)
    for _ in range(100):
        phi = random_nf(rng, 4)
        x = random_oct(rng)
        y = random_oct(rng)
        assert norm(phi.apply(x)) == norm(x)
        assert polar_q(phi.apply(x), phi.apply(y)) == polar_q(x, y)


def test_compose_example():
    tau0 = OrthoNF.tau((True, False, False, False))
    sigma = OrthoNF.sigma(units((1, 1), (1, 0), (1, 0), (1, 0)))
    composed = tau0.compose(sigma)
    assert composed.apply(E(0)) == Z.conj() * E(0)
    sigma_conj = OrthoNF.sigma(units((1, -1), (1, 0), (1, 0), (1, 0)))
    other_order = sigma_conj.compose(tau0)
    for b in TBASIS:
        assert composed.apply(b) == other_order.apply(b)
    assert composed == other_order


def test_compose_matches_apply():
    rng = random.Random(31)
    for _ in range(200):
        phi = random_nf(rng, 4)
        psi = random_nf(rng, 4)
        composed = phi.compose(psi)
        for b in TBASIS:
            assert composed.apply(b) == phi.apply(psi.apply(b))
        x = random_oct(rng, 2, 4)
        assert composed.apply(x) == phi.apply(psi.apply(x))


def test_compose_associative():
    rng = random.Random(32)
    for _ in range(100):
        a, b, c = (random_nf(rng, 3) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_identity_and_inverse():
    rng = random.Random(33)
    ident = OrthoNF.identity()
    for _ in range(100):
        phi = random_nf(rng, 4)
        assert phi.compose(ident) == phi
        assert ident.compose(phi) == phi
        assert phi.compose(phi.invert()) == ident
        assert phi.invert().compose(phi) == ident
        assert phi.invert().invert() == phi


def test_invert_examples():
    sigma = OrthoNF.sigma(units((1, 1), (1, 0), (1, 0), (1, 0)))
    assert sigma.invert() == OrthoNF.sigma(units((1, -1), (1, 0), (1, 0), (1, 0)))
    for k in range(4):
        eps = tuple(i == k for i in range(4))
        tau = OrthoNF.tau(eps)
        assert tau.invert() == tau


def images(m):
    """The images of the Z[t]-basis under m."""
    return [m(b) for b in TBASIS]


def test_recognize_round_trip():
    rng = random.Random(34)
    for _ in range(50):
        phi = random_nf(rng, 4)
        assert recognize(images(phi.apply)) == phi


def test_recognize_special_maps():
    assert recognize(TBASIS) == OrthoNF.identity()
    assert recognize(images(lambda x: yang_mul(E(0), x))) == OrthoNF.identity()


def test_recognize_rejects_non_orthogonal():
    with pytest.raises(RecognitionError):
        recognize(images(lambda x: LaurentPoly.const(2) * x))
    with pytest.raises(RecognitionError):
        recognize(images(lambda x: LaurentPoly(0, (1, 1)) * x))
    with pytest.raises(RecognitionError):
        recognize(images(lambda x: OctonionElt.zero()))
    # collapses two coordinates onto one
    def collapse(x):
        return OctonionElt(x.x0 + x.x1, LaurentPoly.zero(), x.x2, x.x3)
    with pytest.raises(RecognitionError):
        recognize(images(collapse))


def test_recognize_rejects_z_image_off_both_branches():
    # e_i's images are those of phi, so perm and units are read off them;
    # the image of z e2 is then u z e_i' and u z^-1 e_i' for neither choice
    # of conjugation bit: z^2 u e_i', z u e_i' + z^-1 u e_i', a right
    # multiple in the wrong slot, the right image negated, and the right
    # image plus another basis vector, next to either right image
    rng = random.Random(35)
    nf = random_nf(rng, 4)
    tgt, u = nf.perm[2], unit_poly(nf.u[nf.perm[2]])
    e, wrong_slot = E(tgt), E((tgt + 1) % 4)
    for eps2 in (False, True):
        phi = OrthoNF(nf.u, nf.perm, nf.eps[:2] + (eps2,) + nf.eps[3:])
        good = images(phi.apply)
        for bad in (Z * Z * u * e, (Z + Z.conj()) * u * e, Z * u * wrong_slot,
                    -good[6], good[6] + wrong_slot):
            with pytest.raises(RecognitionError, match=r"image of z\*e2 matches neither"):
                recognize(good[:6] + [bad] + good[7:])


def test_random_nf_reproducible():
    a = [random_nf(random.Random(99), 4) for _ in range(20)]
    b = [random_nf(random.Random(99), 4) for _ in range(20)]
    assert a == b
    zero_bound = random_nf(random.Random(1), 0)
    assert all(u.exp == 0 for u in zero_bound.u)
    with pytest.raises(ValueError):
        random_nf(random.Random(1), -1)


def test_o4z_count_and_action():
    elems = o4z_elements()
    assert len(elems) == 384
    assert len(set(elems)) == 384
    rng = random.Random(35)
    v = OctonionElt.from_coords(tuple(rng.randint(-9, 9) for _ in range(4)))
    ssq = sum(c * c for c in (v.coords[k].coeff(0) for k in range(4)))
    for phi in elems:
        w = phi.apply(v)
        assert all(len(c.coeffs) <= 1 and c.lo == 0 for c in w.coords)
        assert sum(c.coeff(0) ** 2 for c in w.coords) == ssq


def test_gamma_is_elementary_abelian_16():
    gens = [OrthoNF.tau(tuple(i == k for i in range(4))) for k in range(4)]
    group = {OrthoNF.identity()}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                e = g.compose(h)
                if e not in group:
                    group.add(e)
                    new.append(e)
        frontier = new
    assert len(group) == 16
    for g in group:
        assert g.compose(g) == OrthoNF.identity()
        for h in group:
            assert g.compose(h) == h.compose(g)


def test_sigma_subgroup_abelian():
    rng = random.Random(36)
    for _ in range(100):
        u = tuple(UnitA(rng.choice((1, -1)), rng.randint(-4, 4)) for _ in range(4))
        v = tuple(UnitA(rng.choice((1, -1)), rng.randint(-4, 4)) for _ in range(4))
        su, sv = OrthoNF.sigma(u), OrthoNF.sigma(v)
        product = OrthoNF.sigma(tuple(a * b for a, b in zip(u, v)))
        assert su.compose(sv) == product
        assert sv.compose(su) == product


unit20 = st.builds(UnitA, st.sampled_from((1, -1)), st.integers(-20, 20))
normal_forms = st.builds(OrthoNF, st.tuples(unit20, unit20, unit20, unit20),
                         st.permutations(range(4)).map(tuple),
                         st.tuples(*[st.booleans()] * 4))
# An empty coefficient list makes a zero coordinate; the second example has two.
polys = st.builds(LaurentPoly, st.integers(-8, 8),
                  st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=5))


@settings(max_examples=200, deadline=None)
@given(normal_forms, st.builds(OctonionElt, polys, polys, polys, polys))
@example(OrthoNF.identity(), OctonionElt.zero())
@example(OrthoNF(units((-1, 3), (1, -2), (-1, 0), (1, 20)), (2, 0, 3, 1), (True,) * 4),
         OctonionElt(LaurentPoly.zero(), LaurentPoly(-1, (1, 0, 5)), LaurentPoly.zero(), Z))
def test_apply_matches_unit_multiplication(phi, x):
    # apply shifts and signs each coordinate; the oracle multiplies it by
    # the unit as a polynomial
    y = phi.apply(x)
    for i, f in enumerate(x.coords):
        j = phi.perm[i]
        assert y.coords[j] == unit_poly(phi.u[j]) * (f.conj() if phi.eps[i] else f)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_json_round_trip(rng):
    # unit exponents up to the JSON bound 1024
    phi = random_nf(rng, 1024)
    assert OrthoNF.from_json(json.loads(json.dumps(phi.to_json()))) == phi
    with pytest.raises(ValueError):
        OrthoNF.from_json({"u": [], "perm": [0, 1, 2, 3], "eps": [False] * 4})
    with pytest.raises(ValueError):
        OrthoNF.from_json({"u": [ID.to_json()] * 4, "perm": [0, 0, 2, 3],
                           "eps": [False] * 4})
    with pytest.raises(ValueError):
        OrthoNF.from_json({"u": [ID.to_json()] * 4, "perm": [0, 1, 2, 3],
                           "eps": [0, 0, 0, 0]})
    for bad_unit in ({"sign": True, "exp": 0}, {"sign": 1, "exp": False},
                     {"sign": 2, "exp": 0}):
        with pytest.raises(ValueError):
            UnitA.from_json(bad_unit)
        with pytest.raises(ValueError):
            OrthoNF.from_json({"u": [bad_unit] + [ID.to_json()] * 3,
                               "perm": [0, 1, 2, 3], "eps": [False] * 4})
