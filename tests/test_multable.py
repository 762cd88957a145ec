"""Tests for multiplication tables, twisting, and the normalizer."""

import dataclasses
import json
import operator
import random
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from yangalg.laurent import Z, Z_INV, LaurentPoly, UnitA, _unpack, divexact
from yangalg.algebra import (
    _YANG_TERMS,
    OctonionElt,
    cd_oct_mul,
    iso_cd_to_yang,
    norm,
    polar_q,
    term_mul,
    thakur_mul,
    trace,
    oct_conj,
    yang_mul,
    yang_mul_with_sign_flip,
)
from yangalg import cli, multable
from yangalg.multable import (
    PROOF_POINTS,
    EquivCertificate,
    LagrangeError,
    LagrangeReport,
    MulTable,
    NormalizationError,
    align_triple_products,
    check_lagrange,
    compose_twists,
    elduque_check,
    kaplansky_unitize,
    normalize,
    proof_point,
    straighten_scalar_action,
    table_of,
    twist,
    verify_certificate,
    yang_table,
    yang_twist,
)
from yangalg.ortho import OrthoNF, TBASIS, random_nf
from helpers import random_oct, unit_poly
from mutants import single_term_mutants

E = OctonionElt.e
ID = UnitA.identity()
IDENTITY_NF = OrthoNF.identity()


def tau_k(k):
    return OrthoNF.tau(tuple(i == k for i in range(4)))


def edited_yang(edits) -> MulTable:
    """The Yang table with entry (i, j) replaced by f(entry) for each
    (i, j): f in ``edits``."""
    entries = [list(row) for row in yang_table().c]
    for (i, j), f in edits.items():
        entries[i][j] = f(entries[i][j])
    return MulTable(entries)


def negated_entry_table(i=1, j=2) -> MulTable:
    return edited_yang({(i, j): operator.neg})


def test_yang_table_entries():
    yt = yang_table()
    assert yt.c[1][2] == E(3)
    assert yt.c[1][1] == -E(0)
    assert yt.c[0][5] == Z * E(1)


def test_cd_table_differs_by_coordinate3_conjugation():
    cd = table_of(cd_oct_mul)
    yt = yang_table()
    assert cd != yt
    # the difference is exactly the last-coordinate conjugation twist
    for i, bi in enumerate(TBASIS):
        for j, bj in enumerate(TBASIS):
            assert iso_cd_to_yang(cd.c[i][j]) == \
                yang_mul(iso_cd_to_yang(bi), iso_cd_to_yang(bj))


def test_eval_is_bilinear_extension():
    yt = yang_table()
    rng = random.Random(40)
    y = random_oct(rng)
    assert yt.eval(E(0), y) == y
    assert yt.eval(Z * E(1), Z * E(2)) == LaurentPoly.term(1, -2) * E(3)
    for _ in range(200):
        x, y = random_oct(rng), random_oct(rng)
        assert yt.eval(x, y) == yang_mul(x, y)


def test_eval_matches_tabulated_function():
    cd = table_of(cd_oct_mul)
    rng = random.Random(41)
    for _ in range(50):
        x, y = random_oct(rng), random_oct(rng)
        assert cd.eval(x, y) == cd_oct_mul(x, y)


# Polynomials with small coefficients (zeros among them) or ones beyond 2^64.
BIG = 2 ** 64
polys = st.builds(LaurentPoly, st.integers(-6, 6), st.lists(st.one_of(
    st.integers(-3, 3), st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG)), max_size=5))
octs = st.builds(OctonionElt, polys, polys, polys, polys)


def eval_oracle(table, x, y):
    """``eval`` as the entry-by-entry loop it replaced, over the split of
    each coordinate by its definition, h = (f - f*)/(z - z^-1)."""
    def expand(v):
        for k, f in enumerate(v.coords):
            h = divexact(f - f.conj(), Z - Z_INV)
            yield k, f - h * Z
            yield k + 4, h

    acc = OctonionElt.zero()
    for i, a in expand(x):
        for j, b in expand(y):
            acc = acc + (a * b) * table.c[i][j]
    return acc


def random_table(seed: int) -> MulTable:
    """A table with random entries: some zero, some scaled beyond 2^64."""
    rng = random.Random(seed)
    scale = LaurentPoly(-2, (BIG + 1, 0, -3))
    return MulTable([[rng.choice((OctonionElt.zero(), random_oct(rng, 2, 3),
                                  random_oct(rng, 2, 3) * scale)) for _ in range(8)]
                     for _ in range(8)])


tables = st.integers(0, 2 ** 32).map(random_table)


@settings(max_examples=60, deadline=None)
@given(tables, octs, octs)
@example(yang_table(), E(0), E(3))
@example(yang_table(), OctonionElt.zero(), Z * E(2))
@example(table_of(cd_oct_mul), Z * E(1), LaurentPoly(-1, (1, 0, 1)) * E(2))
@example(MulTable([[OctonionElt.zero()] * 8] * 8), E(1), E(1))
def test_eval_matches_entry_by_entry_loop(table, x, y):
    assert table.eval(x, y) == eval_oracle(table, x, y)


def test_twist_identity_and_inverse():
    yt = yang_table()
    assert twist(yt, IDENTITY_NF, IDENTITY_NF, IDENTITY_NF) == yt
    cd = table_of(cd_oct_mul)
    assert twist(cd, IDENTITY_NF, IDENTITY_NF, IDENTITY_NF) == cd
    rng = random.Random(42)
    s1, s2, t = (random_nf(rng, 3) for _ in range(3))
    tw = twist(yt, s1, s2, t)
    back = twist(tw, s1.invert(), s2.invert(), t.invert())
    assert back == yt


def test_twist_unit_example():
    u = UnitA(1, 1)  # the unit z
    sigma = OrthoNF.sigma((ID, ID, ID, u))
    tw = twist(yang_table(), sigma, sigma, sigma.invert())
    assert tw.c[1][2] == unit_poly(u.conj()) * E(3)


def test_twist_action_composes():
    yt = yang_table()
    rng = random.Random(43)
    c1 = EquivCertificate(*(random_nf(rng, 2) for _ in range(3)))
    c2 = EquivCertificate(*(random_nf(rng, 2) for _ in range(3)))
    once = twist(twist(yt, c1.sigma1, c1.sigma2, c1.tau),
                 c2.sigma1, c2.sigma2, c2.tau)
    combined = compose_twists(c1, c2)
    assert once == twist(yt, combined.sigma1, combined.sigma2, combined.tau)


def _is_lagrange_witness(table, witness) -> bool:
    """Independent oracle: the pair breaks N(x*y) = N(x)N(y) under eval."""
    x, y = witness
    return norm(table.eval(x, y)) != norm(x) * norm(y)


def test_check_lagrange_pass_and_fail():
    report = check_lagrange(yang_table())
    assert report.ok and report.pairs == 36 * 36 and report.witness is None

    rng = random.Random(45)
    tw = twist(yang_table(), *(random_nf(rng, 2) for _ in range(3)))
    assert check_lagrange(tw).ok

    bad = negated_entry_table()
    report = check_lagrange(bad)
    assert not report.ok
    assert _is_lagrange_witness(bad, report.witness)


def test_check_lagrange_rejects_every_negated_entry():
    for k in range(64):
        bad = negated_entry_table(*divmod(k, 8))
        report = check_lagrange(bad)
        assert not report.ok, f"negated entry {divmod(k, 8)} accepted"
        assert _is_lagrange_witness(bad, report.witness)


def test_check_lagrange_rejects_every_sign_flip():
    # every single-term fault: 16 sign flips and 32 conjugation flips
    for name, terms in single_term_mutants():
        bad = table_of(term_mul(terms))
        report = check_lagrange(bad)
        assert not report.ok, f"{name} accepted"
        assert _is_lagrange_witness(bad, report.witness)


def test_check_lagrange_accepts_other_composition_products():
    assert check_lagrange(table_of(cd_oct_mul)).ok
    assert check_lagrange(table_of(thakur_mul)).ok


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_check_lagrange_accepts_twisted_yang_tables(rng):
    tw = twist(yang_table(), *(random_nf(rng, 3) for _ in range(3)))
    report = check_lagrange(tw)
    assert report.ok and report.pairs == 36 * 36


def test_check_lagrange_witness_is_a_basis_pair_when_one_fails():
    # scaling one entry by 2 breaks the norm on the basis pair itself
    entries = [list(row) for row in yang_table().c]
    entries[2][5] = entries[2][5] * 2
    report = check_lagrange(MulTable(entries))
    assert not report.ok and report.pairs <= 64
    assert report.witness == (TBASIS[2], TBASIS[5])


# The proof point pairs in ``check_lagrange``'s documented order: fewest
# basis terms first.
ORDERED_PAIRS = sorted(product(PROOF_POINTS, repeat=2), key=lambda pq: len(pq[0]) + len(pq[1]))


def lagrange_oracle(table) -> LagrangeReport:
    """``check_lagrange`` as the loop it replaced: N(p*q), summed from the
    table's entries, against N(p)N(q) by ``algebra.norm``, in the order of
    ``ORDERED_PAIRS``."""
    for count, (p, q) in enumerate(ORDERED_PAIRS, 1):
        x, y = proof_point(p), proof_point(q)
        pq = OctonionElt.zero()
        for i in p:
            for j in q:
                pq = pq + table.c[i][j]
        if norm(pq) != norm(x) * norm(y):
            labels = ["+".join(f"b{i}" for i in idx) for idx in (p, q)]
            return LagrangeReport(False, count, (x, y), f"norm not multiplicative at "
                                                        f"proof point pair ({labels[0]}, {labels[1]})")
    return LagrangeReport(True, count)


def assert_matches_lagrange_oracle(table):
    report = check_lagrange(table)
    assert report == lagrange_oracle(table)
    return report


def scaled(table, f, entries=None) -> MulTable:
    """The table with the given entries (default: all) multiplied by f."""
    return MulTable([[e * f if entries is None or (i, j) in entries else e
                      for j, e in enumerate(row)] for i, row in enumerate(table.c)])


def constant_part(table) -> MulTable:
    """Each entry coordinate cut down to its constant term."""
    return MulTable([[OctonionElt.from_coords(f.coeff(0) for f in e.coords)
                      for e in row] for row in table.c])


HUGE = LaurentPoly(-3, (2 ** 80 + 1, 0, -(2 ** 64)))
PINNED_LAGRANGE_TABLES = {
    "yang": yang_table(),
    "cd": table_of(cd_oct_mul),
    "thakur": table_of(thakur_mul),
    "opposite": table_of(lambda x, y: yang_mul(y, x)),
    "conjugated": table_of(lambda x, y: oct_conj(yang_mul(x, y))),
    "zero": MulTable([[OctonionElt.zero()] * 8] * 8),
    "yang with zero entries": edited_yang({(3, 5): lambda e: OctonionElt.zero(),
                                           (6, 6): lambda e: OctonionElt.zero()}),
    "constant part of yang": constant_part(yang_table()),
    "unit entries": MulTable([[E((i + j) % 4) for j in range(8)] for i in range(8)]),
    "scaled by a huge polynomial": scaled(yang_table(), HUGE),
    "one entry scaled by a huge polynomial": scaled(yang_table(), HUGE, {(6, 7)}),
    "scaled by z^5": scaled(yang_table(), LaurentPoly.term(1, 5)),
    "scaled by -z^-7": scaled(yang_table(), LaurentPoly.term(-1, -7)),
    **{f"negated {divmod(k, 8)}": negated_entry_table(*divmod(k, 8)) for k in range(64)},
    **{f"sign flip {k}": table_of(yang_mul_with_sign_flip(k)) for k in range(16)},
}


@pytest.mark.parametrize("name", sorted(PINNED_LAGRANGE_TABLES))
def test_check_lagrange_matches_oracle_on_pinned_tables(name):
    assert_matches_lagrange_oracle(PINNED_LAGRANGE_TABLES[name])


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_check_lagrange_matches_oracle_on_twisted_tables(rng, bound):
    tw = twist(yang_table(), *(random_nf(rng, bound) for _ in range(3)))
    assert assert_matches_lagrange_oracle(tw).ok


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(("negate", "zero", "scale", "constant", "double")))
def test_check_lagrange_matches_oracle_on_mutants(rng, edit):
    """A twisted Yang table with entries negated, zeroed or scaled by a
    polynomial beyond 2^64 with negative lowest exponent, cut to its
    constant terms, or an entry doubled; twisted again or not."""
    tw = twist(yang_table(), *(random_nf(rng, rng.randint(0, 6)) for _ in range(3)))
    entries = {divmod(k, 8) for k in rng.sample(range(64), rng.randint(1, 3))}
    big = LaurentPoly(rng.randint(-6, -1), (rng.randint(BIG, 4 * BIG), rng.randint(-3, 3),
                                             -rng.randint(BIG, 4 * BIG)))
    table = {
        "negate": lambda: scaled(tw, -1, entries),
        "zero": lambda: scaled(tw, 0, entries),
        "scale": lambda: scaled(tw, big, entries),
        "constant": lambda: constant_part(tw),
        "double": lambda: scaled(tw, 2, entries),
    }[edit]()
    if rng.random() < 0.5:
        table = twist(table, *(random_nf(rng, 3) for _ in range(3)))
    assert_matches_lagrange_oracle(table)


def first_norm_failure(table):
    """The first proof point pair of ``ORDERED_PAIRS`` at which N(x*y) !=
    N(x)N(y) under ``eval``, with its 1-based position."""
    for count, (p, q) in enumerate(ORDERED_PAIRS, 1):
        x, y = proof_point(p), proof_point(q)
        if norm(table.eval(x, y)) != norm(x) * norm(y):
            return count, (x, y)
    return None


huge_polys = st.builds(LaurentPoly, st.integers(-1000, 1000), st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-10 ** 300, 10 ** 300)), max_size=12))
huge_octs = st.builds(OctonionElt, huge_polys, huge_polys, huge_polys, huge_polys)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(0, 63), huge_octs), min_size=1, max_size=3))
def test_check_lagrange_witness_is_the_first_entry_off_the_unit_sphere(rng, edits):
    # a twisted Yang table with entries replaced by elements with large
    # coefficients, at least one of them off the unit sphere
    entries = [list(row) for row in
               twist(yang_table(), *(random_nf(rng, 3) for _ in range(3))).c]
    for k, e in edits:
        entries[k // 8][k % 8] = e
    assume(any(norm(e) != 1 for _k, e in edits))
    table = MulTable(entries)
    report = check_lagrange(table)
    assert not report.ok
    assert (report.pairs, report.witness) == first_norm_failure(table)


def test_check_lagrange_rejects_a_dense_huge_entry_at_its_basis_pair():
    # entry (3, 5) replaced by 2001 terms of 10^300: the witness is the basis
    # pair (b3, b5), the 30th pair, as the packed proof would report
    f = LaurentPoly(-1000, (10 ** 300,) * 2001)
    report = check_lagrange(edited_yang({(3, 5): lambda _e: OctonionElt(f, f, f, f)}))
    assert not report.ok and report.pairs == 30
    assert report.witness == (TBASIS[3], TBASIS[5])
    assert report.message == "norm not multiplicative at proof point pair (b3, b5)"


def full_table(m, lo, hi) -> MulTable:
    """Every entry coordinate is m (z^lo + ... + z^hi): at the pair
    (b0 + b1, b0 + b1) the middle coefficient of N(p*q) reaches the bound
    64 (hi - lo + 1) m^2 of ``check_lagrange``'s digit width."""
    f = LaurentPoly(lo, (m,) * (hi - lo + 1))
    return MulTable([[OctonionElt(f, f, f, f)] * 8] * 8)


@pytest.mark.parametrize("table", [
    full_table(1, -1, 1), full_table(3, -4, 2), full_table(-(2 ** 70), 0, 0),
    full_table(5, 2, 9), yang_table(), scaled(yang_table(), HUGE),
    constant_part(yang_table())], ids=[
    "full 1 [-1, 1]", "full 3 [-4, 2]", "full -2^70 [0, 0]", "full 5 [2, 9]", "yang",
    "yang scaled by a huge polynomial", "constant part of yang"])
def test_packed_norms_are_balanced_digits(table):
    # the packed N(p*q) holds each coefficient in one balanced k-bit digit,
    # the bound that makes check_lagrange's integer comparison exact
    k, lo, hi, nprod = multable._packed_norms(table)
    for p, q in multable._proof_pairs():
        assert _unpack(nprod(p, q), k, lo - hi) == norm(table.eval(proof_point(p), proof_point(q)))


def sign_table(seed: int, m: int, lo: int, width: int) -> MulTable:
    """Every entry coordinate is m z^lo times a polynomial of degree at most
    ``width`` with coefficients 1, -1 and (rarely) 0, drawn from ``seed``.
    Equal magnitudes line up in the packed sums: constant entries (``width``
    0) bring the alternative laws and width 1 the adjoint law close to the
    worst case of their digit widths."""
    rng = random.Random(seed)
    return MulTable([[OctonionElt(*(LaurentPoly(lo, [m * rng.choice((1, -1, 1, -1, 0))
                                                     for _ in range(width + 1)])
                                    for _ in range(4))) for _ in range(8)] for _ in range(8)])


def largest_coeff(*polys) -> int:
    return max((abs(c) for f in polys for c in f.coeffs), default=0)


def alternative_oracle(table):
    """The failing points of x(xy) = (xx)y and (xy)y = x(yy), in the order
    of ``alternative_failures``, with both sides through ``MulTable.eval``;
    and the largest coefficient of a side or of the difference of two."""
    ev, failures, top = table.eval, [], 0
    for p in PROOF_POINTS:
        x = proof_point(p)
        xx = ev(x, x)
        for l, b in enumerate(TBASIS):
            for u, v, point in ((ev(x, ev(x, b)), ev(xx, b), (p, (l,))),
                                (ev(ev(b, x), x), ev(b, xx), ((l,), p))):
                top = max(top, largest_coeff(*u.coords, *v.coords, *(u - v).coords))
                if u != v:
                    failures.append(point)
    return failures, top


def adjoint_oracle(table):
    """The failing triples (i, j, l) of Q(xy, w) = Q(x, w y*) = Q(y, x* w)
    at x, y, w = b_i, b_j, b_l through ``MulTable.eval``, ``oct_conj`` and
    ``polar_q``; and the largest coefficient of a value or a difference."""
    ev, failures, top = cache(table.eval), [], 0
    for (i, x), (j, y), (l, w) in product(enumerate(TBASIS), repeat=3):
        v = polar_q(ev(x, y), w)
        u1, u2 = polar_q(x, ev(w, oct_conj(y))), polar_q(y, ev(oct_conj(x), w))
        top = max(top, largest_coeff(u1, u2, v, u1 - v, u2 - v))
        if u1 != v or u2 != v:
            failures.append((i, j, l))
    return failures, top


NEAR_2_40 = 2 ** 40 - 1


@settings(max_examples=3, deadline=None)
@given(st.builds(sign_table, st.integers(0, 2 ** 32), st.integers(1, 2 ** 40),
                 st.integers(-30, 28), st.integers(0, 2)))
@example(sign_table(5, NEAR_2_40, 0, 0))
@example(sign_table(2, NEAR_2_40, -1, 1))
@example(sign_table(3, 3, 28, 2))
@example(yang_table())
@example(table_of(term_mul(next(single_term_mutants())[1])))
def test_packed_laws_match_eval_oracle(table):
    # each packed proof yields the oracle's failing points, and its digit
    # width holds every coefficient of both sides and of their difference,
    # the bound its docstring proves.  The two examples near 2^40 pass half
    # of that bound (a difference of 18 m^2 against 32 m^2 for the
    # alternative laws, 6m against 8m for the adjoint law), so one bit less
    # would not hold them
    failures, top = alternative_oracle(table)
    assert list(multable.alternative_failures(table)) == failures
    assert top < 2 ** (multable._packed_associators(table)[0] - 1)
    failures, top = adjoint_oracle(table)
    assert list(multable.adjoint_failures(table)) == failures
    assert top < 2 ** (multable._packed_polars(table)[0] - 1)


unit20 = st.builds(UnitA, st.sampled_from((1, -1)), st.integers(-20, 20))
normal_forms = st.builds(OrthoNF, st.tuples(unit20, unit20, unit20, unit20),
                         st.permutations(range(4)).map(tuple),
                         st.tuples(*[st.booleans()] * 4))
MUTANT_TABLES = [table_of(term_mul(terms)) for _name, terms in single_term_mutants()]


def twisted_product(table, s1, s2, t):
    """The oracle of ``twist``: x, y -> t(table.eval(s1 x, s2 y))."""
    return lambda x, y: t.apply(table.eval(s1.apply(x), s2.apply(y)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.just(yang_table()),
    st.tuples(normal_forms, normal_forms, normal_forms).map(
        lambda triple: table_of(twisted_product(yang_table(), *triple))),
    st.just(PINNED_LAGRANGE_TABLES["thakur"]),
    st.sampled_from(MUTANT_TABLES),
    tables,
    st.builds(sign_table, st.integers(0, 2 ** 32), st.integers(1, 2 ** 40),
              st.integers(-30, 28), st.integers(0, 2))),
    normal_forms, normal_forms, normal_forms)
@example(yang_table(), IDENTITY_NF, IDENTITY_NF, IDENTITY_NF)
@example(MUTANT_TABLES[47], OrthoNF.sigma((UnitA(-1, 20),) * 4),
         OrthoNF(tuple(UnitA(1, -20) for _ in range(4)), (3, 2, 1, 0), (True,) * 4),
         OrthoNF.tau((True, False, True, False)))
def test_twist_matches_tabulated_twisted_product(table, s1, s2, t):
    # twist sums its entries from the basis images' expansions; the oracle
    # tabulates the twisted product, one eval per entry.  Neither needs a
    # Lagrange table
    assert twist(table, s1, s2, t) == table_of(twisted_product(table, s1, s2, t))


@settings(max_examples=60, deadline=None)
@given(normal_forms, normal_forms, normal_forms)
def test_yang_twist_matches_twist(s1, s2, t):
    assert yang_twist(s1, s2, t) == twist(yang_table(), s1, s2, t)


unit1000 = st.builds(UnitA, st.sampled_from((1, -1)), st.integers(-1000, 1000))
far_normal_forms = st.builds(OrthoNF, st.tuples(unit1000, unit1000, unit1000, unit1000),
                             st.permutations(range(4)).map(tuple),
                             st.tuples(*[st.booleans()] * 4))


@settings(max_examples=40, deadline=None)
@given(far_normal_forms, far_normal_forms, far_normal_forms)
@example(IDENTITY_NF, IDENTITY_NF, IDENTITY_NF)  # the oracle is table_of(yang_mul)
@example(*(OrthoNF.sigma((UnitA(-1, 1000), UnitA(1, -1000)) * 2),) * 3)
def test_yang_twist_matches_tabulated_yang_product(s1, s2, t):
    # the oracle tabulates the twisted product itself: neither twist nor
    # the term lookup
    assert yang_twist(s1, s2, t) == table_of(
        lambda x, y: t.apply(yang_mul(s1.apply(x), s2.apply(y))))


def term_table(terms, s1, s2, t) -> MulTable:
    entry = multable._entries(terms, s1, s2, t)
    return MulTable([[entry(i, j) for j in range(8)] for i in range(8)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["yang", "cd", "thakur", "opposite", "conjugated"]),
       st.tuples(normal_forms, normal_forms, normal_forms),
       st.tuples(normal_forms, normal_forms, normal_forms))
def test_terms_decode_twisted_lagrange_tables(name, made_by, triple):
    # every table equivalent to Yang's is a term table: its 16 blocks
    # rebuild it, and twisting the blocks is twisting the table
    table = twist(PINNED_LAGRANGE_TABLES[name], *made_by)
    terms = multable._terms(table)
    assert term_table(terms, IDENTITY_NF, IDENTITY_NF, IDENTITY_NF) == table
    assert term_table(terms, *triple) == twist(table, *triple)


def test_terms_of_yang_are_its_term_table():
    # term (sign, p, ci, q, cj) of row k is block (p, q) = (k, sign, 0, ci, cj)
    assert multable._terms(yang_table()) == {
        (p, q): (k, sign, 0, ci, cj)
        for k, row in enumerate(_YANG_TERMS) for sign, p, ci, q, cj in row}


def test_kaplansky_on_yang_is_trivial():
    cert = kaplansky_unitize(yang_table())
    assert twist(yang_table(), *cert) == yang_table()
    assert cert == EquivCertificate.identity()


def test_kaplansky_restores_identity():
    rng = random.Random(48)
    for _ in range(5):
        s1, s2 = random_nf(rng, 2), random_nf(rng, 2)
        tw = twist(yang_table(), s1, s2, IDENTITY_NF)
        out = twist(tw, *kaplansky_unitize(tw))
        for j, b in enumerate(TBASIS):
            assert out.c[0][j] == b
            assert out.c[j][0] == b
        assert out.c[0][0] == E(0)


def test_straighten_on_yang_is_trivial():
    cert = straighten_scalar_action(yang_table())
    assert twist(yang_table(), *cert) == yang_table()
    assert cert == EquivCertificate.identity()


def test_straighten_recovers_tau():
    t1 = tau_k(1)
    tw = twist(yang_table(), t1, t1, t1)
    cert = straighten_scalar_action(tw)
    assert cert == EquivCertificate(t1, t1, t1)
    out = twist(tw, *cert)
    assert out == yang_table()
    for j, b in enumerate(TBASIS):
        assert out.c[4][j] == Z * b


def test_align_on_yang_is_trivial():
    cert = align_triple_products(yang_table())
    assert twist(yang_table(), *cert) == yang_table()
    assert cert == EquivCertificate.identity()


def test_align_recovers_unit():
    u = UnitA(1, 1)
    sigma = OrthoNF.sigma((ID, ID, ID, u))
    tw = twist(yang_table(), sigma, sigma, sigma.invert())
    out = twist(tw, *align_triple_products(tw))
    assert out.c[1][2] == E(3)
    assert out.c[2][1] == -E(3)
    assert out == yang_table()


def test_passes_extend_the_certificate_they_are_given():
    # a pass given (table, cert) returns cert composed with its own step on
    # twist(table, *cert), the table it used to receive
    rng = random.Random(50)
    tw = twist(yang_table(), *(random_nf(rng, 2) for _ in range(3)))
    c0 = EquivCertificate(*(random_nf(rng, 2) for _ in range(3)))
    assert kaplansky_unitize(tw, c0) == compose_twists(c0, kaplansky_unitize(twist(tw, *c0)))
    c1 = kaplansky_unitize(tw)
    c2 = straighten_scalar_action(tw, c1)
    assert c2 == compose_twists(c1, straighten_scalar_action(twist(tw, *c1)))
    c3 = align_triple_products(tw, c2)
    assert c3 == compose_twists(c2, align_triple_products(twist(tw, *c2)))
    assert c3 == normalize(tw)


def test_normalize_builds_one_table(monkeypatch):
    # the replay builds the one table, the Yang table twisted by the
    # inverted certificate, from Yang's blocks, and the input table is
    # never twisted.  The passes compute their entries from the table's
    # blocks and the replay from Yang's, so neither sums, splits or calls
    # eval.  Each count is keyed by whether the replay has started
    twists, calls = [], []
    evals, entries, splits = ({True: 0, False: 0} for _ in range(3))
    real_twist, real_yang_twist, real_eval = multable.twist, multable.yang_twist, MulTable.eval
    real_bilinear, real_split = multable._bilinear, LaurentPoly.split_A0

    def counting_twist(*args):
        twists.append(args)
        return real_twist(*args)

    def counting_yang_twist(*args):
        calls.append(args)
        return real_yang_twist(*args)

    def counting_eval(table, x, y):
        evals[bool(calls)] += 1
        return real_eval(table, x, y)

    def counting_bilinear(*args):
        entries[bool(calls)] += 1
        return real_bilinear(*args)

    def counting_split(f):
        splits[bool(calls)] += 1
        return real_split(f)

    rng = random.Random(51)
    tw = real_twist(yang_table(), *(random_nf(rng, 3) for _ in range(3)))
    monkeypatch.setattr(multable, "twist", counting_twist)
    monkeypatch.setattr(multable, "yang_twist", counting_yang_twist)
    monkeypatch.setattr(MulTable, "eval", counting_eval)
    monkeypatch.setattr(multable, "_bilinear", counting_bilinear)
    monkeypatch.setattr(LaurentPoly, "split_A0", counting_split)
    cert = normalize(tw)
    assert twists == []
    assert calls == [(cert.sigma1.invert(), cert.sigma2.invert(), cert.tau.invert())]
    assert evals == {False: 0, True: 0}
    assert entries == {False: 0, True: 0}
    assert splits == {False: 0, True: 0}
    calls.clear()
    evals.update({True: 0, False: 0})
    with pytest.raises(LagrangeError):
        normalize(negated_entry_table())
    assert twists == calls == [] and evals == {True: 0, False: 0}


def test_normalize_multiplies_no_polynomial_past_the_lagrange_proof(monkeypatch):
    # Yang twisted by (sigma, sigma, id) with units z^+-500: a product of
    # polynomials would cost time in the exponents; past check_lagrange
    # there is none
    counts = {"mul": 0, "bilinear": 0, "split": 0}
    lagrange = []
    real_check = multable.check_lagrange

    def counting_check(table):
        lagrange.append(table)
        try:
            return real_check(table)
        finally:
            lagrange.pop()

    def counting(name, real):
        def wrapper(*args):
            counts[name] += not lagrange
            return real(*args)
        return wrapper

    sigma = OrthoNF.sigma((UnitA(1, 500), UnitA(-1, -500), UnitA(1, 499), UnitA(-1, -499)))
    table = yang_twist(sigma, sigma, IDENTITY_NF)
    monkeypatch.setattr(multable, "check_lagrange", counting_check)
    monkeypatch.setattr(LaurentPoly, "__mul__", counting("mul", LaurentPoly.__mul__))
    monkeypatch.setattr(multable, "_bilinear", counting("bilinear", multable._bilinear))
    monkeypatch.setattr(LaurentPoly, "split_A0", counting("split", LaurentPoly.split_A0))
    cert = normalize(table)
    assert counts == {"mul": 0, "bilinear": 0, "split": 0}
    assert verify_certificate(table, cert)


def test_normalize_yang_gives_identity_certificate():
    cert = normalize(yang_table())
    assert cert == EquivCertificate.identity()


def test_normalize_round_trip():
    rng = random.Random(49)
    for _ in range(10):
        triple = tuple(random_nf(rng, 3) for _ in range(3))
        tw = twist(yang_table(), *triple)
        cert = normalize(tw)
        assert verify_certificate(tw, cert)


def test_normalize_cd_table():
    cd_via_iso = table_of(
        lambda x, y: iso_cd_to_yang(cd_oct_mul(iso_cd_to_yang(x), iso_cd_to_yang(y))))
    cert = normalize(cd_via_iso)
    assert cert == EquivCertificate.identity()

    raw_cd = table_of(cd_oct_mul)
    cert = normalize(raw_cd)
    t3 = tau_k(3)
    assert cert == EquivCertificate(t3, t3, t3)
    assert verify_certificate(raw_cd, cert)


def test_normalize_opposite_multiplication():
    # x, y -> y*x is Lagrange-valid but not built as a twist of the Yang
    # table; the normalizer must still reduce it
    opp = table_of(lambda x, y: yang_mul(y, x))
    cert = normalize(opp)
    assert verify_certificate(opp, cert)
    flip = OrthoNF(
        (ID, ID, ID, UnitA(-1, 0)),
        (0, 1, 2, 3),
        (False, True, True, True),
    )
    assert cert == EquivCertificate(flip, flip, flip)


def test_normalize_conjugated_multiplication():
    from yangalg.algebra import oct_conj

    conj_mul = table_of(lambda x, y: oct_conj(yang_mul(x, y)))
    cert = normalize(conj_mul)
    assert cert != EquivCertificate.identity()
    assert verify_certificate(conj_mul, cert)

    rng = random.Random(59)
    tw = twist(conj_mul, *(random_nf(rng, 3) for _ in range(3)))
    cert = normalize(tw)
    assert verify_certificate(tw, cert)


def test_normalize_rejects_bad_table():
    bad = negated_entry_table()
    with pytest.raises(LagrangeError) as info:
        normalize(bad)
    assert _is_lagrange_witness(bad, info.value.report.witness)
    # a file may not claim the check already passed
    with pytest.raises(ValueError):
        MulTable.from_json(dict(bad.to_json(), lagrange_checked=True))


def test_normalize_quadratic_identity_after_unitize():
    rng = random.Random(54)
    tw = twist(yang_table(), random_nf(rng, 2), random_nf(rng, 2), IDENTITY_NF)
    out = twist(tw, *kaplansky_unitize(tw))
    for _ in range(30):
        x = random_oct(rng, 2, 4)
        lhs = out.eval(x, x) - trace(x) * x + norm(x) * E(0)
        assert lhs == OctonionElt.zero()


def test_verify_certificate():
    assert verify_certificate(yang_table(), EquivCertificate.identity())
    t1 = tau_k(1)
    assert not verify_certificate(yang_table(),
                                  EquivCertificate(IDENTITY_NF, IDENTITY_NF, t1))
    rng = random.Random(55)
    cert = EquivCertificate(*(random_nf(rng, 2) for _ in range(3)))
    tw = twist(yang_table(), cert.sigma1, cert.sigma2, cert.tau)
    # the inverse triple sends the twisted table back to Yang
    inverse = EquivCertificate(cert.sigma1.invert(), cert.sigma2.invert(),
                               cert.tau.invert())
    assert verify_certificate(tw, inverse)
    # one unit sign flipped, in any of the three normal forms
    for field in ("sigma1", "sigma2", "tau"):
        nf = getattr(inverse, field)
        for k in range(4):
            u = list(nf.u)
            u[k] = UnitA(-u[k].sign, u[k].exp)
            bad = dataclasses.replace(inverse, **{field: dataclasses.replace(nf, u=tuple(u))})
            assert not verify_certificate(tw, bad), (field, k)


def test_elduque_checks():
    report = elduque_check(yang_table())
    assert all(report.values())
    assert set(report) == {
        "table_is_yang", "p_closed", "e2_Ae1_in_Ae3", "e2_Ae3_in_Ae1",
        "e2_Ae0_in_Ae2", "e2P_spans_Ae2", "e2P_spans_Ae3",
    }
    assert yang_mul(E(2), E(1)) == -E(3)
    assert yang_mul(E(2), Z * E(1)) == -Z.conj() * E(3)
    report = elduque_check(table_of(cd_oct_mul))
    assert not report["table_is_yang"]


@settings(max_examples=25, deadline=None)
@given(tables)
@example(yang_table())
def test_table_json_round_trip(table):
    data = table.to_json()
    assert set(data) == {"basis", "c"}
    assert MulTable.from_json(json.loads(json.dumps(data))) == table
    malformed = [
        {"basis": "other", "c": data["c"]},
        {"basis": data["basis"], "c": data["c"][:7]},
        {"basis": data["basis"], "c": list(range(8))},
        {"basis": data["basis"], "c": [list(range(8))] * 8},
        {"basis": data["basis"], "c": data["c"][:7] + ["row"]},
        dict(data, lagrange_checked=True),
        dict(data, lagrange_checked=False),
        dict(data, lagrange_checked="yes"),
        dict(data, extra=1),
        {"c": data["c"]},
        data["c"],
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            MulTable.from_json(bad)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certificate_json_round_trip(rng):
    # unit exponents up to the JSON bound 1024
    cert = EquivCertificate(*(random_nf(rng, 1024) for _ in range(3)))
    assert EquivCertificate.from_json(json.loads(json.dumps(cert.to_json()))) == cert
    with pytest.raises(ValueError):
        EquivCertificate.from_json({"sigma1": cert.sigma1.to_json()})


# -- every NormalizationError message, one crafted table each ---------------
# Every crafted table fails the Lagrange identity, so only a direct pass
# call, or normalize with check_lagrange forced open, reaches the passes.

def doubled(e):
    return e * 2


def moved_block(dst, src):
    """Edits that overwrite block ``dst`` of the Yang table, its entries
    (p + a, q + b) for a, b in {0, 4}, with block ``src``."""
    (p, q), (r, s) = dst, src
    y = yang_table().c
    return {(p + a, q + b): lambda _e, a=a, b=b: y[r + a][s + b] for a in (0, 4) for b in (0, 4)}


def undecodable(i, j):
    """The message for entry (i, j), off the unit sphere, of its block."""
    return rf"^entry \({i}, {j}\) of block \({i % 4}, {j % 4}\) is not a unit monomial: "


TRANSLATION = r"^translation by e0 is not orthogonal: "
REPLAY = r"^composed certificate fails to replay to the Yang table$"
KAPLANSKY_ENTRIES = [(0, 1), (2, 0), (0, 6), (7, 0)]


@pytest.mark.parametrize("entry", KAPLANSKY_ENTRIES)
def test_kaplansky_rejects_non_orthogonal_translation(entry):
    # the block holding ``entry``, in row or column 0, is overwritten by the
    # next block of that row or column: two basis images of a translation
    # by e0 land in one slot
    p, q = entry[0] % 4, entry[1] % 4
    neighbour = (0, q % 3 + 1) if p == 0 else (p % 3 + 1, 0)
    with pytest.raises(NormalizationError, match=TRANSLATION):
        kaplansky_unitize(edited_yang(moved_block((p, q), neighbour)))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_straighten_rejects_unmatched_scalar_branch(i):
    """``normalize`` cannot reach this message: after ``kaplansky_unitize``
    e0 is a left identity, so block (0, i) is e_i with no shift and entry
    (4, i) is z^±1 e_i.  A direct call on a term table whose e0 is not a
    left identity, e0 e_i = z e_i, reaches it: (z e0) e_i = z^2 e_i."""
    shifted = {(a, i + b): lambda e: Z * e for a in (0, 4) for b in (0, 4)}
    with pytest.raises(NormalizationError,
                       match=rf"^\(z e0\) \* e{i} matches neither scalar-action branch$"):
        straighten_scalar_action(edited_yang(shifted))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_align_rejects_e1e2_off_e3(k):
    with pytest.raises(NormalizationError, match=r"^e1\*e2 is not a unit multiple of e3$"):
        align_triple_products(edited_yang({(1, 2): lambda _e: E(k)}))


# (name, edits, message) for 27 crafted tables, each with the message by
# which ``normalize`` refuses it once the Lagrange proof is forced open: a
# doubled entry that a block is read from does not decode; two row-0 blocks
# in one slot make the translation by e0 non-orthogonal; e1 * e2 = e_k with
# k != 3 fails the alignment.  A negated entry decodes, and the passes get
# through every step, so only the replay sees its fault.
CRAFTED = [
    *[(f"doubled {e}", {e: doubled}, undecodable(*e))
      for e in KAPLANSKY_ENTRIES + [(4, 1), (4, 2), (4, 3), (1, 2)]],
    ("block (0, 2) = block (0, 1)", moved_block((0, 2), (0, 1)), TRANSLATION),
    *[(f"(1, 2) = e{k}", {(1, 2): lambda _e, k=k: E(k)},
       r"^e1\*e2 is not a unit multiple of e3$") for k in [0, 1, 2]],
    *[(f"negated {e}", {e: operator.neg}, REPLAY)
      for e in [(0, 3), (3, 0), (0, 5), (6, 0), (4, 4), (4, 5), (4, 6), (4, 7), (2, 1),
                (2, 3), (3, 2), (3, 1), (1, 3), (1, 2), (5, 6)]],
]


@pytest.mark.parametrize("edits, message", [c[1:] for c in CRAFTED],
                         ids=[c[0] for c in CRAFTED])
def test_normalize_refuses_every_crafted_table(edits, message, tmp_path, monkeypatch, capsys):
    # no table failing the Lagrange identity is equivalent to Yang's, so with
    # the Lagrange proof forced open a pass or the replay refuses it, and the
    # CLI writes no certificate
    table = edited_yang(edits)
    assert not check_lagrange(table).ok
    monkeypatch.setattr(multable, "check_lagrange", lambda table: LagrangeReport(True, 0))
    with pytest.raises(NormalizationError, match=message) as info:
        normalize(table)
    table_file = tmp_path / "crafted.json"
    table_file.write_text(json.dumps(table.to_json()))
    assert cli.main(["normalize", str(table_file)]) == cli.EXIT_NORMALIZE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {info.value}\n"
    assert list(tmp_path.iterdir()) == [table_file]
