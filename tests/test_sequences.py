"""Tests for the T-sequence layer and the Hadamard pipeline."""

import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangalg.laurent import LaurentPoly
from yangalg.sequences import (
    QUAD_ENTRY_BOUND,
    brute_force_tseq,
    format_hadamard,
    format_quad_line,
    goethals_seidel,
    hall_poly,
    is_hadamard,
    is_t_sequence,
    parse_quad_line,
    quad_norm,
    read_quads,
    to_pm1_quad,
    yang_compose,
)
from helpers import parse_hadamard

TRIVIAL = ((1,), (0,), (0,), (0,))
LEN2 = ((1, 0), (0, 1), (0, 0), (0, 0))


def test_hall_poly():
    assert hall_poly((1, 0, -1)) == LaurentPoly(0, (1, 0, -1))
    assert hall_poly((0, 0, 0)) == LaurentPoly.zero()
    assert hall_poly((1, 1)) == LaurentPoly(0, (1, 1))


def _npaf_direct(s, j):
    j = abs(j)
    return sum(s[k] * s[k + j] for k in range(len(s) - j)) if j < len(s) else 0


def _is_t_sequence_direct(q):
    # 0/±1 entries, one nonzero per position, and zero summed nonperiodic
    # autocorrelation at every nonzero shift (shift 0 then sums to n).
    n = len(q[0])
    if any(v not in (-1, 0, 1) for s in q for v in s):
        return False
    if any(sum(1 for s in q if s[k]) != 1 for k in range(n)):
        return False
    return all(sum(_npaf_direct(s, d) for s in q) == 0 for d in range(1, n))


def _quads_over(values, n):
    for flat in itertools.product(values, repeat=4 * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(4))


# Quads whose summed autocorrelation is the constant n although they are not
# T-sequences: a ±2 entry, or overlapping supports that leave a gap.
_NORM_N_NON_TSEQS = (
    ((2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, -2), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 0), (1, 0), (0, 0), (0, 0)),
)


def test_is_t_sequence_matches_direct_predicate():
    for q in _NORM_N_NON_TSEQS:
        n = len(q[0])
        assert sum(_npaf_direct(s, 0) for s in q) == n
        assert all(sum(_npaf_direct(s, d) for s in q) == 0 for d in range(1, n))
        assert not is_t_sequence(q)
    for n in (1, 2, 3, 4):
        # every owner/sign assignment, as in the exhaustive search
        hits = 0
        for assignment in itertools.product(range(8), repeat=n):
            seqs = [[0] * n for _ in range(4)]
            for k, code in enumerate(assignment):
                seqs[code % 4][k] = 1 if code < 4 else -1
            quad = tuple(tuple(s) for s in seqs)
            assert is_t_sequence(quad) == _is_t_sequence_direct(quad), quad
            hits += is_t_sequence(quad)
        assert hits == len(brute_force_tseq(n)) > 0
    # ±2 entries at length 1; overlapping supports and gaps at length 2
    for q in itertools.chain(_quads_over(range(-2, 3), 1), _quads_over((-1, 0, 1), 2)):
        assert is_t_sequence(q) == _is_t_sequence_direct(q), q


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(-3, 3)] * n)] * 4)))
def test_quad_norm_matches_direct_autocorrelation(q):
    n = len(q[0])
    f = quad_norm(q)
    for d in range(-n - 1, n + 2):
        assert f.coeff(d) == sum(_npaf_direct(s, d) for s in q)


def test_is_t_sequence():
    assert is_t_sequence(LEN2)
    assert not is_t_sequence(((1, 1, 0), (0, 0, 1), (0, 0, 0), (0, 0, 0)))
    assert is_t_sequence(TRIVIAL)
    assert not is_t_sequence(((2, 0), (0, 1), (0, 0), (0, 0)))
    assert not is_t_sequence(((1, 0), (1, 1), (0, 0), (0, 0)))
    with pytest.raises(ValueError):
        is_t_sequence(((1,), (0,), (0,)))
    with pytest.raises(ValueError):
        is_t_sequence(((1,), (0, 0), (0,), (0,)))


def test_yang_compose_trivial():
    out = yang_compose(TRIVIAL, TRIVIAL)
    assert out[0] == LaurentPoly.one()
    assert all(f.is_zero() for f in out[1:])


def test_yang_compose_norms():
    out = yang_compose(LEN2, TRIVIAL)
    total = LaurentPoly.zero()
    for f in out:
        total = total + f * f.conj()
    assert total == LaurentPoly.const(2)

    out = yang_compose(LEN2, LEN2)
    total = LaurentPoly.zero()
    for f in out:
        total = total + f * f.conj()
    assert total == LaurentPoly.const(4)


def test_yang_compose_norm_multiplicative_random():
    rng = random.Random(61)
    for _ in range(100):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        x = tuple(tuple(rng.randint(-2, 2) for _ in range(nx)) for _ in range(4))
        y = tuple(tuple(rng.randint(-2, 2) for _ in range(ny)) for _ in range(4))
        out = yang_compose(x, y)
        total = LaurentPoly.zero()
        for f in out:
            total = total + f * f.conj()
        assert total == quad_norm(x) * quad_norm(y)


def _code_quad(assignment):
    # one choice code 2*owner + (sign < 0) per position, as in the search
    n = len(assignment)
    seqs = [[0] * n for _ in range(4)]
    for k, code in enumerate(assignment):
        seqs[code // 2][k] = -1 if code % 2 else 1
    return tuple(tuple(s) for s in seqs)


def _code_key(quad):
    return bytes(2 * j + (s[k] < 0)
                 for k in range(len(quad[0])) for j, s in enumerate(quad) if s[k])


def _reference_tseqs(n, predicate=is_t_sequence):
    # one line at a time over all 8^n assignments, in lexicographic code order
    quads = map(_code_quad, itertools.product(range(8), repeat=n))
    return [q for q in quads if predicate(q)]


def test_brute_force_matches_reference():
    for n in (1, 2, 3):
        assert brute_force_tseq(n) == _reference_tseqs(n)


def test_brute_force_output_pinned_by_direct_oracle():
    for n in (1, 2, 3, 4, 5):
        expected = _reference_tseqs(n, _is_t_sequence_direct)
        assert brute_force_tseq(n) == expected
        for limit in (1, 2, 288, 289):
            assert brute_force_tseq(n, limit=limit) == expected[:limit]
    # at n = 5 the searched subtree, code 0 at position 0, holds 288 quads
    assert len(expected) == 8 * 288
    assert {_code_key(q)[0] for q in expected[:288]} == {0}
    assert _code_key(expected[288])[0] == 1


def test_brute_force_length_6_is_closed_under_signed_permutations():
    found = brute_force_tseq(6)
    keys = [_code_key(q) for q in found]
    assert len(set(found)) == len(found) == 12288
    assert keys == sorted(keys)
    assert all(_is_t_sequence_direct(q) for q in found)
    key_set = set(keys)
    signed_perms = list(itertools.product(itertools.permutations(range(4)),
                                          itertools.product((0, 1), repeat=4)))
    assert len(signed_perms) == 384
    for perm, negate in signed_perms:
        image = bytes(2 * perm[c // 2] + (c % 2 ^ negate[c // 2]) for c in range(8))
        table = bytes.maketrans(bytes(range(8)), image)
        assert {k.translate(table) for k in keys} == key_set


def test_brute_force_examples():
    assert TRIVIAL in brute_force_tseq(1)
    assert LEN2 in brute_force_tseq(2)
    found = brute_force_tseq(3)
    assert found
    assert all(is_t_sequence(q) for q in found)
    assert brute_force_tseq(3, limit=2) == found[:2]
    with pytest.raises(ValueError):
        brute_force_tseq(0)
    with pytest.raises(ValueError):
        brute_force_tseq(9)


@pytest.mark.parametrize("limit", [None, 1])
def test_brute_force_leaves_no_reference_cycle(limit):
    # the search state must be freed on return, not held by a cycle until
    # the next full collection; with the collector off, a cycle left by the
    # call is found by the one explicit collection
    gc.collect()
    gc.disable()
    try:
        brute_force_tseq(5, limit)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_to_pm1_quad():
    folded = to_pm1_quad(TRIVIAL)
    assert folded == ((1,), (1,), (1,), (1,))
    rng = random.Random(62)
    quads = brute_force_tseq(3, limit=20)
    for quad in rng.sample(quads, min(10, len(quads))):
        folded = to_pm1_quad(quad)
        n = len(quad[0])
        assert all(v in (1, -1) for s in folded for v in s)
        for shift in range(1, n):
            assert sum(_npaf_direct(s, shift) for s in folded) == 0
    with pytest.raises(ValueError):
        to_pm1_quad(((1, 1), (0, 0), (0, 0), (0, 0)))


def _np_goethals_seidel(a, b, c, d):
    """The docstring's block array built with numpy, as the oracle."""
    n = len(a)
    A, B, C, D = (np.array([[s[(j - i) % n] for j in range(n)] for i in range(n)])
                  for s in (a, b, c, d))
    R = np.fliplr(np.eye(n, dtype=np.int64))
    return np.block([[A, B @ R, C @ R, D @ R],
                     [-B @ R, A, D.T @ R, -C.T @ R],
                     [-C @ R, -D.T @ R, A, B.T @ R],
                     [-D @ R, C.T @ R, -B.T @ R, A]])


def _np_is_hadamard(h):
    m = np.array(h, dtype=np.int64)
    return bool(np.all(np.abs(m) == 1) and np.array_equal(m @ m.T, len(m) * np.eye(len(m))))


def test_goethals_seidel_order_4():
    h = goethals_seidel((1,), (1,), (1,), (1,))
    assert len(h) == 4 and all(len(row) == 4 for row in h)
    assert is_hadamard(h)


def test_goethals_seidel_rejects():
    with pytest.raises(ValueError):
        goethals_seidel((1,), (1,), (1,), (1, 1))
    with pytest.raises(ValueError):
        goethals_seidel((0,), (1,), (1,), (1,))
    # all-ones length-2 rows: periodic autocorrelations do not cancel
    with pytest.raises(ValueError):
        goethals_seidel((1, 1), (1, 1), (1, 1), (1, 1))


def test_pipeline_through_order_16():
    for n in (1, 2, 3, 4):
        quads = brute_force_tseq(n, limit=20)
        assert quads
        for quad in quads:
            a, b, c, d = to_pm1_quad(quad)
            h = goethals_seidel(a, b, c, d)
            assert len(h) == 4 * n and all(len(row) == 4 * n for row in h)
            assert np.array_equal(np.array(h), _np_goethals_seidel(a, b, c, d))
            assert is_hadamard(h)


def test_is_hadamard():
    assert is_hadamard([[1, 1], [1, -1]])
    assert not is_hadamard([[1, 0], [0, 1]])
    assert not is_hadamard([[1, 1], [1, 1]])
    assert not is_hadamard([[1, 1, 1], [1, -1, 1]])
    assert is_hadamard([[1]])
    # empty, ragged, a 0 entry and a 2 entry
    for h in ([], [[]], [[1, 1], [1]], [[1], [1, -1]], [[0]], [[2]],
              [[1, 1], [1, 0]], [[1, 1], [1, 2]], [[1, 1], [-1, 2]]):
        assert not is_hadamard(h)
    # the pipeline matrices, as the numpy oracle H H^T == m I says
    pipeline = [goethals_seidel(*to_pm1_quad(brute_force_tseq(n, limit=1)[0]))
                for n in range(1, 9)]
    for h in pipeline:
        assert is_hadamard(h) and _np_is_hadamard(h)
    # at order 24 every single-entry flip is refused by both
    rows = [list(row) for row in pipeline[5]]
    for i, j in itertools.product(range(24), repeat=2):
        rows[i][j] = -rows[i][j]
        assert not is_hadamard(rows) and not _np_is_hadamard(rows)
        rows[i][j] = -rows[i][j]


# Quads of length 1 to 5 with entries anywhere inside the bound.
entries = st.integers(-QUAD_ENTRY_BOUND + 1, QUAD_ENTRY_BOUND - 1)
quads = st.integers(1, 5).flatmap(lambda n: st.tuples(
    *[st.lists(entries, min_size=n, max_size=n).map(tuple)] * 4))


@settings(max_examples=100, deadline=None)
@given(quads)
def test_quad_line_round_trip(quad):
    assert parse_quad_line(format_quad_line(quad)) == quad
    assert format_quad_line(LEN2) == "1,0;0,1;0,0;0,0"
    assert read_quads("1;1;1;1\n\n1,0;0,1;0,0;0,0\n") == [((1,), (1,), (1,), (1,)), LEN2]
    with pytest.raises(ValueError):
        parse_quad_line("1,0;0,1;0,0")
    with pytest.raises(ValueError):
        parse_quad_line("1,x;0,1;0,0;0,0")
    # int() reads "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1; the
    # quad format reads none of these
    for entry in ("1_0", "\u0661", "1.0", "", "0x1"):
        with pytest.raises(ValueError, match="bad quad entry"):
            parse_quad_line(f"{entry};0;0;0")
    assert parse_quad_line(" +1 ; -0;0\t;01") == ((1,), (0,), (0,), (1,))
    for v in (QUAD_ENTRY_BOUND, -QUAD_ENTRY_BOUND, 10 ** 3000):
        with pytest.raises(ValueError, match="out of range"):
            parse_quad_line(f"1;{v};0;0")
    with pytest.raises(ValueError):
        read_quads("\n\n")


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
           st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), min_size=n, max_size=n)),
       st.lists(st.integers(1, 8), min_size=4, max_size=4))
def test_hadamard_file_round_trip(rows, lengths):
    # the format holds any square +/- array, Hadamard or not
    h = tuple(map(tuple, rows))
    meta, matrix = parse_hadamard(format_hadamard(h, lengths))
    assert meta == {"order": len(rows), "source_lengths": lengths, "verified": True}
    assert matrix == h
    assert is_hadamard(h) == _np_is_hadamard(h)


@pytest.mark.parametrize("text", [
    "",
    "[4]\n++\n+-\n",
    '{"order": 2}\n',
    '{"order": 2}\n+x\n+-\n',
    '{"order": 2}\n+-+\n+-\n',
    '{"order": 2}\n++\n+-\n--\n',
    '{"order": 4}\n++\n+-\n',
    '{"order": true}\n+\n',
    '{}\n++\n+-\n',
    "not json\n++\n+-\n",
], ids=["empty", "meta-not-object", "no-rows", "bad-char", "ragged", "not-square",
        "order-mismatch", "order-bool", "order-missing", "meta-not-json"])
def test_parse_hadamard_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_hadamard(text)
