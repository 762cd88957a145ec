"""Acceptance suite: every criterion is exact (zero tolerance) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete."""

import random

from yangalg.laurent import UnitA
from yangalg.algebra import (
    OctonionElt,
    cd_oct_mul,
    decompose_unit,
    iso_cd_to_yang,
    norm,
    oct_conj,
    polar_q,
    term_mul,
    thakur_mul,
    trace,
    yang_mul,
)
from yangalg.multable import (
    elduque_check,
    normalize,
    twist,
    verify_certificate,
    yang_table,
)
from yangalg.ortho import TBASIS, random_nf, recognize
from yangalg.sequences import (
    brute_force_tseq,
    goethals_seidel,
    is_hadamard,
    to_pm1_quad,
)
from helpers import o4z_elements, random_oct, unit_poly
from mutants import single_term_mutants

E = OctonionElt.e


def _report(num, desc, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_lagrange_identity():
    rng = random.Random(101)
    ok = all(
        norm(yang_mul(x, y)) == norm(x) * norm(y)
        for x, y in ((random_oct(rng, 6, 9), random_oct(rng, 6, 9))
                     for _ in range(1000))
    )
    _report(1, "Lagrange identity, 1000 random pairs (degree 6, coeffs 9), exact", ok)


def test_criterion_2_cd_yang_isomorphism():
    ok = all(
        iso_cd_to_yang(cd_oct_mul(bi, bj))
        == yang_mul(iso_cd_to_yang(bi), iso_cd_to_yang(bj))
        for bi in TBASIS for bj in TBASIS
    )
    rng = random.Random(102)
    for _ in range(500):
        x, y = random_oct(rng, 4, 9), random_oct(rng, 4, 9)
        if iso_cd_to_yang(cd_oct_mul(x, y)) != \
                yang_mul(iso_cd_to_yang(x), iso_cd_to_yang(y)):
            ok = False
            break
    _report(2, "doubled/Yang isomorphism on the full basis table + 500 random pairs", ok)


def test_criterion_3_composition_algebra_identities():
    rng = random.Random(103)
    ok = True
    for _ in range(500):
        x = random_oct(rng, 3, 9)
        y = random_oct(rng, 3, 9)
        w = random_oct(rng, 3, 9)
        if yang_mul(x, yang_mul(x, y)) != yang_mul(yang_mul(x, x), y):
            ok = False
            break
        if yang_mul(yang_mul(x, y), y) != yang_mul(x, yang_mul(y, y)):
            ok = False
            break
        if yang_mul(x, x) - trace(x) * x + norm(x) * E(0) != OctonionElt.zero():
            ok = False
            break
        if yang_mul(x, y) + yang_mul(y, x) != \
                trace(x) * y + trace(y) * x - polar_q(x, y) * E(0):
            ok = False
            break
        q = polar_q(yang_mul(x, y), w)
        if polar_q(x, yang_mul(w, oct_conj(y))) != q:
            ok = False
            break
        if polar_q(y, yang_mul(oct_conj(x), w)) != q:
            ok = False
            break
    _report(3, "alternative/quadratic/trace/adjoint identities, 500 random triples", ok)


def test_criterion_4_thakur_agreement():
    rng = random.Random(104)
    ok = all(
        thakur_mul(x, y) == yang_mul(x, y)
        for x, y in ((random_oct(rng, 4, 9), random_oct(rng, 4, 9))
                     for _ in range(500))
    )
    _report(4, "hermitian/cross-product formula agrees with yang_mul, 500 pairs", ok)


def test_criterion_5_orthogonal_group_calculus():
    rng = random.Random(105)
    ok = all(recognize([phi.apply(b) for b in TBASIS]) == phi
             for phi in (random_nf(rng, 4) for _ in range(200)))
    if ok:
        for _ in range(200):
            phi, psi = random_nf(rng, 4), random_nf(rng, 4)
            composed = phi.compose(psi)
            if any(composed.apply(b) != phi.apply(psi.apply(b)) for b in TBASIS):
                ok = False
                break
    if ok:
        elems = o4z_elements()
        ok = len(elems) == 384 and len(set(elems)) == 384
        if ok:
            universe = set(elems)
            ok = all(a.compose(b) in universe for a in elems for b in elems)
    _report(5, "recognize/apply round-trip (200), compose homomorphism (200), "
               "signed permutations: 384 elements closed under composition", ok)


def test_criterion_6_sphere_decompositions():
    rng = random.Random(106)
    ok = True
    for _ in range(200):
        k = rng.randrange(4)
        u = UnitA(rng.choice((1, -1)), rng.randint(-6, 6))
        if decompose_unit(unit_poly(u) * E(k)) != (k, u):
            ok = False
            break
    _report(6, "unit-sphere decompositions, 200 round-trips", ok)


def test_criterion_7_normalizer_round_trip():
    rng = random.Random(107)
    yt = yang_table()
    ok = True
    for _ in range(50):
        triple = tuple(random_nf(rng, 3) for _ in range(3))
        table = twist(yt, *triple)
        cert = normalize(table)
        if not verify_certificate(table, cert):
            ok = False
            break
    _report(7, "normalizer certificate replay equals the Yang table, "
               "50 random twist triples (exp bound 3), exact", ok)


def test_criterion_8_subalgebra_splitting():
    report = elduque_check(yang_table())
    ok = all(report.values())
    _report(8, f"subalgebra splitting checks on the Yang table: {sorted(report)}", ok)


def test_criterion_9_combinatorial_pipeline():
    ok = True
    orders = []
    for n in (1, 2, 3, 4):
        quads = brute_force_tseq(n, limit=1)
        if not quads:
            ok = False
            break
        a, b, c, d = to_pm1_quad(quads[0])
        h = goethals_seidel(a, b, c, d)
        if len(h) != 4 * n or any(len(row) != 4 * n for row in h) or not is_hadamard(h):
            ok = False
            break
        orders.append(4 * n)
    _report(9, f"T-sequence search + Goethals-Seidel pipeline, orders {orders}", ok)


def test_criterion_10_mutation_sensitivity():
    ok = True
    undetected = []
    for name, terms in single_term_mutants():
        bad = term_mul(terms)
        rng = random.Random(110)
        for trial in range(1000):
            x, y = random_oct(rng, 6, 9), random_oct(rng, 6, 9)
            if norm(bad(x, y)) != norm(x) * norm(y):
                break
        else:
            undetected.append(name)
            ok = False
    _report(10, "each of the 48 single-term faults (16 sign flips, 32 conjugation "
                f"flips) breaks the Lagrange identity within 1000 random pairs "
                f"(undetected: {undetected})", ok)
