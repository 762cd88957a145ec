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

where X' is the transpose of X.
"""

from __future__ import annotations

import numpy as np

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


def brute_force_tseq(n: int, limit: int | None = None):
    """Exhaustive T-sequence search for 1 <= n <= 8.

    Every position is assigned an owning sequence and a sign (8 choices), so
    candidates automatically satisfy the disjoint-cover condition; branches
    are cut when a partial autocorrelation sum can no longer reach zero.
    Returns up to ``limit`` quads in lexicographic assignment order.
    """
    if not 1 <= n <= 8:
        raise ValueError("search supports lengths 1..8")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    seqs = [[0] * n for _ in range(4)]
    owner = [0] * n
    partial = [0] * n  # partial[d] = finished part of the shift-d sum
    found: list[tuple[tuple[int, ...], ...]] = []

    def pairs_left(d: int, k: int) -> int:
        done = min(n - d, max(0, k - d + 1))
        return (n - d) - done

    def rec(k: int):
        if limit is not None and len(found) >= limit:
            return
        if k == n:
            found.append(tuple(tuple(s) for s in seqs))
            return
        for which in range(4):
            for sign in (1, -1):
                deltas = []
                for d in range(1, k + 1):
                    if owner[k - d] == which:
                        deltas.append((d, seqs[which][k - d] * sign))
                for d, dv in deltas:
                    partial[d] += dv
                owner[k] = which
                seqs[which][k] = sign
                if all(abs(partial[d]) <= pairs_left(d, k) for d in range(1, n)):
                    rec(k + 1)
                seqs[which][k] = 0
                for d, dv in deltas:
                    partial[d] -= dv
        return

    rec(0)
    return found


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


def _circulant(s) -> np.ndarray:
    n = len(s)
    m = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            m[i, j] = s[(j - i) % n]
    return m


def goethals_seidel(a, b, c, d) -> np.ndarray:
    """Assemble the 4n x 4n Goethals-Seidel block array from four ±1
    sequences of length n whose periodic autocorrelations sum to zero at
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

    A, B, C, D = (_circulant(s) for s in seqs)
    R = np.fliplr(np.eye(n, dtype=np.int64))
    BR, CR, DR = B @ R, C @ R, D @ R
    BtR, CtR, DtR = B.T @ R, C.T @ R, D.T @ R
    return np.block([
        [A, BR, CR, DR],
        [-BR, A, DtR, -CtR],
        [-CR, -DtR, A, BtR],
        [-DR, CtR, -BtR, A],
    ])


def is_hadamard(h) -> bool:
    """True iff the matrix has ±1 entries and H H^T = m I exactly."""
    m = np.asarray(h, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        return False
    if not np.all(np.abs(m) == 1):
        return False
    order = m.shape[0]
    return bool(np.array_equal(m @ m.T, order * np.eye(order, dtype=np.int64)))


def parse_quad_line(line: str):
    """Parse one quad from the ``a1,a2;b1,b2;c1,c2;d1,d2`` wire format."""
    parts = line.strip().split(";")
    if len(parts) != 4:
        raise ValueError("a quad line has four ;-separated sequences")
    try:
        seqs = tuple(tuple(int(v) for v in part.split(",")) for part in parts)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad quad entry: {exc}") from exc
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


def format_hadamard(h, source_lengths, verified: bool) -> str:
    """The matrix file format: a JSON metadata line, then +/- rows."""
    import json

    m = np.asarray(h, dtype=np.int64)
    meta = json.dumps({
        "order": int(m.shape[0]),
        "source_lengths": list(source_lengths),
        "verified": bool(verified),
    }, sort_keys=True)
    rows = ["".join("+" if v > 0 else "-" for v in row) for row in m]
    return "\n".join([meta] + rows) + "\n"


def parse_hadamard(text: str):
    """Inverse of ``format_hadamard``; returns (metadata, matrix)."""
    import json

    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = json.loads(lines[0])
    rows = [[1 if ch == "+" else -1 for ch in ln] for ln in lines[1:]]
    return meta, np.array(rows, dtype=np.int64)
