"""Multiplications on E as data: structure-constant tables over the rank-8
Z[t]-basis, the twist action of orthogonal triples, and the constructive
normalizer that drives any table satisfying the Lagrange identity back to the
Yang table with an explicit certificate.

The normalizer runs three passes, each mirroring one step of the proof that
all such multiplications are equivalent:

1. ``kaplansky_unitize`` inverts the left/right translations by e0 to
   manufacture an identity element, then moves it onto e0.
2. ``straighten_scalar_action`` conjugates by coordinate conjugations until
   (a e0) * y = a y holds for all a in A.
3. ``align_triple_products`` rescales e3 so that e1 * e2 = e3, which forces
   the whole quaternion triple pattern.

Each pass takes the certificate (sigma1, sigma2, tau) so far, reads only
the entries of the twisted table its step is computed from, and returns the
extended certificate; it raises only when that step cannot be computed.
No pass checks its own result or builds a table: the one full table is the
final replay, whose exact equality with the Yang table is the only proof.
The passes and ``twist`` compute entries through one function,
``_entries``, so the normalizer makes no ``eval`` call.

The normalizer's precondition, the Lagrange identity N(x*y) = N(x)N(y), is
proved exactly by ``check_lagrange``: the defect N(x*y) - N(x)N(y) is an
A0-biquadratic form, so it vanishes identically once it vanishes on the
36 x 36 pairs of proof points b_i and b_i + b_j.  Each pair is one integer
comparison: the table's coordinates are packed at z = 2^k (Kronecker
substitution, as in ``laurent.sums_of_products``) with a digit width that
bounds every coefficient of both sides, so nothing is unpacked.

``MulTable.eval`` extends a table A0-bilinearly through the same kernel, one
``sums_of_products`` call per product; ``_entries`` sums a twisted entry the
same way from the expansions of two basis images.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product

from .laurent import Z, Z_INV, LaurentPoly, UnitA, pack, sums_of_products
from .algebra import (
    OctonionElt,
    decompose_unit,
    norm,
    yang_mul,
)
from .ortho import OrthoNF, RecognitionError, TBASIS, recognize

BASIS_LABEL = "e0..e3,ze0..ze3"


class LagrangeError(ValueError):
    """Raised when a table fails the Lagrange identity check."""

    def __init__(self, report):
        super().__init__(f"table fails the Lagrange identity: {report.message}")
        self.report = report


class NormalizationError(ValueError):
    """Raised when no certificate can be built: a pass cannot compute its
    step, or the composed certificate does not replay to the Yang table."""


class MulTable:
    """Structure constants of an A0-bilinear multiplication on E.

    ``c[i][j]`` is the product b_i * b_j over the Z[t]-basis
    b = (e0, e1, e2, e3, z e0, z e1, z e2, z e3).  Entries are immutable.
    """

    __slots__ = ("c",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 8 or any(len(r) != 8 for r in rows):
            raise ValueError("a multiplication table has 8x8 entries")
        self.c = rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, MulTable):
            return NotImplemented
        return self.c == other.c

    def eval(self, x: OctonionElt, y: OctonionElt) -> OctonionElt:
        """The tabulated multiplication extended A0-bilinearly: each factor
        is expanded once over the Z[t]-basis via the A = A0 + A0*z split
        (``_expand``), and ``_bilinear`` sums the table over the terms."""
        return _bilinear(self.c, _expand(x), _expand(y))

    def to_json(self) -> dict:
        return {"basis": BASIS_LABEL, "c": [[e.to_json() for e in row] for row in self.c]}

    @classmethod
    def from_json(cls, data) -> MulTable:
        """Parse ``{"basis", "c"}``; any other key is an error."""
        if not isinstance(data, dict) or set(data) != {"basis", "c"}:
            raise ValueError("table JSON must have exactly the keys basis, c")
        if data["basis"] != BASIS_LABEL:
            raise ValueError(f"unsupported basis label {data['basis']!r}")
        c = data["c"]
        if not (isinstance(c, list) and len(c) == 8 and all(
                isinstance(row, list) and len(row) == 8
                and all(isinstance(e, dict) for e in row) for row in c)):
            raise ValueError("table JSON needs an 8x8 array of element objects")
        return cls([[OctonionElt.from_json(e) for e in row] for row in c])


def _expand(x: OctonionElt):
    """Coordinates of x over the Z[t]-basis, as (index, symmetric coeff);
    a zero coordinate has none and is not split."""
    out = []
    for k, coord in enumerate(x.coords):
        if coord:
            g, h = coord.split_A0()
            if g:
                out.append((k, g))
            if h:
                out.append((k + 4, h))
    return out


def _bilinear(c, xs, ys) -> OctonionElt:
    """The product of the elements with expansions ``xs`` and ``ys`` under
    the table entries ``c``: coordinate k is sum(a b c[i][j]_k) over the
    terms (i, a) of xs and (j, b) of ys, one kernel row per k."""
    scalars, coords = [], []
    for i, a in xs:
        for j, b in ys:
            scalars.append(a * b)
            coords += c[i][j].coords
    rows = [[(1, t, 4 * t + k) for t in range(len(scalars))] for k in range(4)]
    return OctonionElt(*sums_of_products(scalars, coords, rows))


def table_of(mul) -> MulTable:
    """Tabulate the 64 basis products of a bilinear product function."""
    return MulTable([[mul(bi, bj) for bj in TBASIS] for bi in TBASIS])


@cache
def yang_table() -> MulTable:
    """The table of the Yang multiplication (built once, shared)."""
    return table_of(yang_mul)


@dataclass(frozen=True)
class EquivCertificate:
    """A twisting triple: x, y -> tau(sigma1(x) * sigma2(y)).

    ``normalize`` emits the triple that turns its input table into the Yang
    table; each pass extends the triple it is given by its own step.
    """

    sigma1: OrthoNF
    sigma2: OrthoNF
    tau: OrthoNF

    @classmethod
    def identity(cls) -> EquivCertificate:
        i = OrthoNF.identity()
        return cls(i, i, i)

    def __iter__(self):
        return iter((self.sigma1, self.sigma2, self.tau))

    def to_json(self) -> dict:
        return {
            "sigma1": self.sigma1.to_json(),
            "sigma2": self.sigma2.to_json(),
            "tau": self.tau.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> EquivCertificate:
        if not isinstance(data, dict) or set(data) != {"sigma1", "sigma2", "tau"}:
            raise ValueError("certificate JSON must have keys sigma1, sigma2, tau")
        return cls(
            OrthoNF.from_json(data["sigma1"]),
            OrthoNF.from_json(data["sigma2"]),
            OrthoNF.from_json(data["tau"]),
        )


_NO_TWIST = EquivCertificate.identity()


def _entries(table: MulTable, s1: OrthoNF, s2: OrthoNF, t: OrthoNF):
    """(i, j) -> entry (i, j) of ``twist(table, s1, s2, t)``, each computed
    once.  Each s1(b_i) and s2(b_j) is a signed monomial times a basis
    element, expanded on first use; the entry is t of ``_bilinear`` over
    the two expansions, as ``eval`` would sum it."""
    left = cache(lambda i: _expand(s1.apply(TBASIS[i])))
    right = cache(lambda j: _expand(s2.apply(TBASIS[j])))
    return cache(lambda i, j: t.apply(_bilinear(table.c, left(i), right(j))))


def twist(table: MulTable, s1: OrthoNF, s2: OrthoNF, t: OrthoNF) -> MulTable:
    """Table of the twisted product x, y -> t(table(s1 x, s2 y)): its 64
    ``_entries``, from 16 expanded basis images.  Any bilinear table twists
    this way, Lagrange or not; twisting by orthogonal maps preserves the
    Lagrange property."""
    entry = _entries(table, s1, s2, t)
    return MulTable([[entry(i, j) for j in range(8)] for i in range(8)])


def compose_twists(first: EquivCertificate, second: EquivCertificate) -> EquivCertificate:
    """The single triple equal to twisting by ``first`` and then ``second``."""
    return EquivCertificate(
        sigma1=first.sigma1.compose(second.sigma1),
        sigma2=first.sigma2.compose(second.sigma2),
        tau=second.tau.compose(first.tau),
    )


@dataclass
class LagrangeReport:
    """Outcome of ``check_lagrange``: how many proof point pairs were checked
    and, on failure, the first pair (x, y) with N(x*y) != N(x)N(y)."""

    ok: bool
    pairs: int
    witness: tuple[OctonionElt, OctonionElt] | None = None
    message: str = "ok"


# The proof points b_i and b_i + b_j (i < j) as index sets, basis first.
PROOF_POINTS = tuple((i,) for i in range(8)) + tuple(combinations(range(8), 2))


def proof_point(idx: tuple[int, ...]) -> OctonionElt:
    """The proof point sum(b_i for i in idx)."""
    return reduce(operator.add, (TBASIS[i] for i in idx))


def _point_label(idx: tuple[int, ...]) -> str:
    return "+".join(f"b{i}" for i in idx)


@cache
def _proof_pairs() -> tuple:
    """The 36 x 36 pairs (x indices, y indices) of proof points b_i and
    b_i + b_j (i < j), fewest basis terms first: the 64 basis pairs, then
    the pairs with one sum, then those with two."""
    return tuple(sorted(product(PROOF_POINTS, repeat=2),
                        key=lambda pq: len(pq[0]) + len(pq[1])))


@cache
def _point_norms() -> dict:
    """N(p) for each proof point p: 1 for b_i, 2 for b_i + b_j unless
    j = i + 4, where it is z + 2 + z^-1."""
    return {p: norm(proof_point(p)) for p in PROOF_POINTS}


def _extent(polys, lo: int = 0, hi: int = 0) -> tuple[int, int, int]:
    """``(lo, hi, m)``: the exponent span of the nonzero ``polys``, widened to
    contain the given [lo, hi], and their largest absolute coefficient."""
    m = 0
    for f in polys:
        c = f.coeffs
        if c:
            lo = min(lo, f.lo)
            hi = max(hi, f.lo + len(c) - 1)
            m = max(m, max(c), -min(c))
    return lo, hi, m


def _coords(table: MulTable):
    """Every coordinate of every entry of ``table``."""
    return (f for row in table.c for e in row for f in e.coords)


def _packed_norms(table: MulTable):
    """The packed domain of ``check_lagrange``: ``(k, lo, hi, nprod)``,
    where ``nprod(p, q)`` is the value at z = 2^k of z^(hi-lo) N(p*q) for
    proof points p and q, and [lo, hi] spans the exponents of every entry
    coordinate, padded to contain [-1, 1].

    Each coordinate f of an entry is packed once, as the value at 2^k of
    z^-lo f, and so is its conjugate, as the value of z^hi f*; both have
    no negative exponent.  A coordinate P_k of p * q is then a sum of
    packed entries, and N(p*q) = sum(P_k P_k*) is ``sum(P_k * Pbar_k)``.
    Packing is additive, so the row of p = b_i + b_j is the sum of the
    rows of b_i and b_j; each row is packed on first use.
    """
    lo, hi, m = _extent(_coords(table), -1, 1)
    k = max(64 * (hi - lo + 1) * m * m, 6).bit_length() + 1
    c = table.c

    @cache
    def row(p):
        if len(p) == 2:
            return [tuple(map(operator.add, u, v)) for u, v in zip(row(p[:1]), row(p[1:]))]
        return [tuple(pack(f, k, lo) for f in e.coords)
                + tuple(pack(f.conj(), k, -hi) for f in e.coords) for e in c[p[0]]]

    def nprod(p, q):
        r = row(p)
        u = r[q[0]] if len(q) == 1 else tuple(map(operator.add, r[q[0]], r[q[1]]))
        return u[0] * u[4] + u[1] * u[5] + u[2] * u[6] + u[3] * u[7]

    return k, lo, hi, nprod


def _packed_associators(table: MulTable):
    """The packed domain of ``alternative_failures``: ``(k, assoc)``, a flat
    list with ``assoc[64 i + 8 j + l]`` the associator (b_i b_j) b_l -
    b_i (b_j b_l) of a basis triple, packed as one int.

    Let the table's entry coordinates span the exponents [lo, hi] with
    coefficients at most m in absolute value, and their A0-coordinates
    (``_expand``, at most 8 per entry) span [-d, d], with s the largest sum
    of the absolute coefficients of one entry's A0-coordinates.  An element
    is packed with coordinate n in the n-th slot of w = hi - lo + 2d + 1
    digits of k bits: an entry e as ``sum(pack(e_n, k, lo) << k w n)`` and
    a scalar a as ``pack(a, k, -d)``.  Then ``pack(a) * pack(e)`` is a e
    packed with z^(d - lo) a e_n in slot n, which fits, as a e_n spans
    [lo - d, hi + d].  By A0-bilinearity (b_i b_j) b_l = sum(a b_n b_l)
    over the A0-coordinates a b_n of b_i b_j, and b_i (b_j b_l) =
    sum(a b_i b_n) over those of b_j b_l: each triple product sums at most
    8 products of a packed scalar and a packed entry.
    """
    c = table.c
    lo, hi, m = _extent(_coords(table))
    expansions = [_expand(e) for row in c for e in row]
    d = _extent(a for x in expansions for _n, a in x)[1]
    s = max(sum(abs(v) for _n, a in x for v in a.coeffs) for x in expansions)
    k = (8 * s * m).bit_length() + 1
    w = k * (hi - lo + 2 * d + 1)
    packed = [sum(pack(f, k, lo) << w * n for n, f in enumerate(e.coords))
              for row in c for e in row]
    scalars = [[(n, pack(a, k, -d)) for n, a in x] for x in expansions]
    i_jl = [sum(a * packed[8 * i + n] for n, a in x) for i in range(8) for x in scalars]
    return k, [sum(a * packed[8 * n + l] for n, a in x) - i_jl[8 * ij + l]
               for ij, x in enumerate(scalars) for l in range(8)]


def alternative_failures(table: MulTable):
    """Yield the failing points ``(x, y)`` of x(xy) = (xx)y and (xy)y =
    x(yy), as proof point index tuples, for the product of ``table``.

    Both laws are quadratic in one argument and linear in the other, so
    they hold everywhere iff they hold for x a proof point p and y a basis
    element b_l, and for x = b_l and y = p.  For p the sum of the b_i with
    i in p, A0-trilinearity of the associator [x, y, w] = (xy)w - x(yw)
    gives (xx) b_l - x(x b_l) = sum([b_i, b_j, b_l]) and (b_l x) x -
    b_l (xx) = sum([b_l, b_i, b_j]) over i, j in p: each law is a sum of
    at most 4 of the packed associators of ``_packed_associators`` compared
    with 0.  Per proof point, the left law at b_l, then the right law at
    b_l, for l = 0..7.

    The comparison is exact.  A coefficient of a e_n is at most |a|_1 m,
    |a|_1 the sum of a's absolute coefficients, so a triple product's
    coefficients are at most s m, a side's (a sum of at most 4) at most
    4 s m, and the difference of the two sides at most 8 s m in absolute
    value.  With ``k = (8 s m).bit_length() + 1`` all of these lie strictly
    between -2^(k-1) and 2^(k-1), so the difference is its coordinates
    written in balanced k-bit digits, slot by slot.  A nonzero balanced
    digit string is a nonzero int, as its lowest nonzero digit is not a
    multiple of 2^k; so the sum is 0 iff the two sides are equal.
    """
    _k, assoc = _packed_associators(table)
    for p in PROOF_POINTS:
        pairs = [8 * i + j for i in p for j in p]
        for l in range(8):
            if sum(assoc[8 * ij + l] for ij in pairs):
                yield p, (l,)
            if sum(assoc[64 * l + ij] for ij in pairs):
                yield (l,), p


def _packed_polars(table: MulTable):
    """The packed domain of ``adjoint_failures``: ``(k, q)``, a flat list
    with ``q[64 i + 8 j + n]`` the value at z = 2^k of z^(D+2) Q(b_i b_j, b_n),
    D the largest absolute exponent of an entry coordinate.

    For b_n = z^s e_m, Q(v, b_n) = z^s v_m* + z^-s v_m, a read of one
    coordinate: with v_m and v_m* packed as the values V and V* of
    z^(D+2) v_m and z^(D+2) v_m*, which have no exponent below 2, it is
    ``V* + V`` for s = 0 and ``(V* << k) + (V >> k)`` for s = 1.
    """
    lo, hi, m = _extent(_coords(table))
    base = -max(-lo, hi) - 2
    k = (8 * m).bit_length() + 1
    q = []
    for row in table.c:
        for e in row:
            v = [pack(f, k, base) for f in e.coords]
            vc = [pack(f.conj(), k, base) for f in e.coords]
            q += [a + b for a, b in zip(vc, v)]
            q += [(a << k) + (b >> k) for a, b in zip(vc, v)]
    return k, q


def adjoint_failures(table: MulTable):
    """Yield the basis index triples ``(i, j, l)`` at which Q(xy, w) =
    Q(x, w y*) = Q(y, x* w) fails for x = b_i, y = b_j, w = b_l, in that
    order.  The law is A0-linear in each argument, so these 512 points
    prove it.

    Every value of the law is read off the table: b_i* is b_i for e0, -b_i
    for e1..e3 and z e1..z e3, and (z e0)* = t e0 - z e0 with t = z + z^-1,
    so b_i* b_l and b_l b_j* are A0-combinations of entries.  As Q is
    A0-bilinear and symmetric, Q(b_i* b_l, b_j) is q(i, l, j), -q(i, l, j)
    or t q(0, l, j) - q(4, l, j) in the packed reads q of
    ``_packed_polars``, and likewise Q(b_l b_j*, b_i); multiplying by t is
    ``(P << k) + (P >> k)``, exact as P has no digit at z^0.

    Each comparison is exact: a coefficient of Q(v, b_n) sums at most two
    coefficients of v, so it is at most 2m, m the largest entry
    coefficient; a combination with t is at most 4m + 2m, and its
    difference with a read at most 8m.  With ``k = (8m).bit_length() + 1``
    all of these lie strictly between -2^(k-1) and 2^(k-1), so, as in
    ``alternative_failures``, the two ints are equal iff the two values are.
    """
    k, q = _packed_polars(table)

    def star(r, v, v0):
        """Q(.. b_r* ..) from v = Q(.. b_r ..) and v0 = Q(.. b_0 ..)."""
        if r == 4:
            return (v0 << k) + (v0 >> k) - v
        return v if r == 0 else -v

    for i, j, l in product(range(8), repeat=3):
        v = q[64 * i + 8 * j + l]
        if (star(j, q[64 * l + 8 * j + i], q[64 * l + i]) != v
                or star(i, q[64 * i + 8 * l + j], q[8 * l + j]) != v):
            yield i, j, l


def check_lagrange(table: MulTable) -> LagrangeReport:
    """Prove or refute N(x*y) = N(x)N(y) for all x, y in E.

    The defect F(x, y) = N(x*y) - N(x)N(y) is biquadratic over A0 in the
    Z[t]-coordinates of x and y.  A quadratic form q is fixed by its values
    q(b_i) and q(b_i + b_j), whose difference with q(b_i) + q(b_j) is the
    cross coefficient; so F vanishes identically iff it vanishes on the
    36 x 36 pairs of proof points b_i, b_i + b_j, and no division is needed.

    Each pair is one integer comparison in the packed domain of
    ``_packed_norms``: ``nprod(p, q)``, which is z^(hi-lo) N(p*q) at
    z = 2^k, against packed N(p) times packed N(q), each norm packed as
    z N at 2^k and the product shifted by hi - lo - 2 digits.  The
    comparison is exact:

    - A coordinate of p * q sums at most 4 entry coordinates, so its
      coefficients are at most 4m in absolute value, m the largest entry
      coefficient, and its exponents lie in [lo, hi].  A coefficient of
      its product with its conjugate sums at most hi - lo + 1 products of
      two of these, so a coefficient of N(p*q), summed over 4
      coordinates, is at most 64 (hi - lo + 1) m^2.
    - N(p)N(q) is a product of two of 1, 2 and z + 2 + z^-1: its
      coefficients are at most 6 and its exponents lie in [-2, 2].  The
      padding lo <= -1 and 1 <= hi makes z^(hi-lo) N(p)N(q) a polynomial.
    - With ``k = max(64 (hi - lo + 1) m^2, 6).bit_length() + 1`` every
      coefficient on both sides lies strictly between -2^(k-1) and
      2^(k-1), so each side is its polynomial written in balanced k-bit
      digits.  Those digits are unique, so the two integers are equal iff
      N(p*q) = N(p)N(q).  Nothing is unpacked.

    The 64 basis pairs are checked first; the first failing pair, which has
    the fewest basis terms, is the witness.
    """
    k, lo, hi, nprod = _packed_norms(table)
    norms = {p: pack(n, k, -1) for p, n in _point_norms().items()}
    shift = k * (hi - lo - 2)
    for count, (p, q) in enumerate(_proof_pairs(), 1):
        if nprod(p, q) != norms[p] * norms[q] << shift:
            return LagrangeReport(
                False, count, (proof_point(p), proof_point(q)),
                f"norm not multiplicative at proof point pair "
                f"({_point_label(p)}, {_point_label(q)})")
    return LagrangeReport(True, count)


def kaplansky_unitize(table: MulTable, cert: EquivCertificate = _NO_TWIST) -> EquivCertificate:
    """Extend ``cert`` so that e0 becomes the two-sided identity.

    The left and right translations L(y) = e0*y and R(x) = x*e0 of the
    twisted product preserve the norm, hence are recognized as normal forms
    and inverted; the product x*y -> R^-1(x) * L^-1(y) has identity element
    c = e0*e0 = L(e0), a unit times e_i with i and the unit read off L's
    normal form, which a final conjugation by some sigma with sigma(e0) = c
    moves onto e0.  Reads row and column 0, the images of L and R.
    """
    entry = _entries(table, *cert)
    try:
        l_nf = recognize([entry(0, j) for j in range(8)])
        r_nf = recognize([entry(i, 0) for i in range(8)])
    except RecognitionError as exc:
        raise NormalizationError(f"translation by e0 is not orthogonal: {exc}") from exc

    idx = l_nf.perm[0]
    units = [UnitA.identity()] * 4
    units[idx] = l_nf.u[idx]
    sigma = OrthoNF.sigma(units).compose(OrthoNF.transposition(0, idx))
    return compose_twists(cert, EquivCertificate(
        r_nf.invert().compose(sigma), l_nf.invert().compose(sigma), sigma.invert()))


def straighten_scalar_action(table: MulTable,
                             cert: EquivCertificate = _NO_TWIST) -> EquivCertificate:
    """Extend ``cert`` so that the left action of scalars is A-linear:
    (a e0) * y = a y.

    For i = 1, 2, 3 the product (z e0) * e_i is either z e_i or z^-1 e_i;
    the latter branch is repaired by conjugating the i-th coordinate.  The
    fix is the self-twist x*y -> tau(tau(x) * tau(y)) by the collected
    conjugations.  Reads entry (4, i), (z e0) * e_i, for i = 1, 2, 3.
    """
    entry = _entries(table, *cert)
    eps = [False] * 4
    for i in range(1, 4):
        probe = entry(4, i)
        if probe == Z_INV * OctonionElt.e(i):
            eps[i] = True
        elif probe != Z * OctonionElt.e(i):
            raise NormalizationError(f"(z e0) * e{i} matches neither scalar-action branch")
    tau = OrthoNF.tau(eps)
    return compose_twists(cert, EquivCertificate(tau, tau, tau))


def align_triple_products(table: MulTable,
                          cert: EquivCertificate = _NO_TWIST) -> EquivCertificate:
    """Extend ``cert`` so that e1 * e2 = e3, which for a Lagrange table
    forces the cyclic pattern e_i e_j = e_k = -e_j e_i.

    e1 * e2 is necessarily of the form u e3; conjugating by
    sigma_(1,1,1,u) removes the unit.  Reads entry (1, 2), e1 * e2.
    """
    try:
        idx, u = decompose_unit(_entries(table, *cert)(1, 2))
    except ValueError as exc:
        raise NormalizationError(f"e1*e2 is not on the unit sphere: {exc}") from exc
    if idx != 3:
        raise NormalizationError("e1*e2 is not a unit multiple of e3")
    sigma = OrthoNF.sigma((UnitA.identity(),) * 3 + (u,))
    return compose_twists(cert, EquivCertificate(sigma, sigma, sigma.invert()))


def normalize(table: MulTable) -> EquivCertificate:
    """Drive a Lagrange-valid table to the Yang table; return the certificate.

    Proves the Lagrange identity first (``check_lagrange``, raising
    ``LagrangeError`` with the witness pair), then threads the certificate
    through the three passes, which read only the 19 twisted entries their
    steps are computed from.  The one full table is built by
    ``verify_certificate``, whose exact replay to the Yang table is the only
    check of the passes' result: a table that passes the Lagrange proof is
    equivalent to the Yang table, so for such a table neither the passes nor
    the replay raise ``NormalizationError``.
    """
    report = check_lagrange(table)
    if not report.ok:
        raise LagrangeError(report)
    cert = align_triple_products(
        table, straighten_scalar_action(table, kaplansky_unitize(table)))
    if not verify_certificate(table, cert):
        raise NormalizationError("composed certificate fails to replay to the Yang table")
    return cert


def verify_certificate(table: MulTable, cert: EquivCertificate) -> bool:
    """True iff twisting the table by the certificate gives the Yang table."""
    return twist(table, *cert) == yang_table()


def elduque_check(table: MulTable) -> dict[str, bool]:
    """Verify the subalgebra splitting of the Yang table: P = A e0 + A e1 is
    closed under the product, e2 * P lands in A e2 + A e3 with the expected
    cross pattern, and P together with e2 * P spans the rank-8 module.

    Returns one named boolean per checked inclusion.
    """
    p_idx = (0, 1, 4, 5)

    def support(elt: OctonionElt):
        return {k for k, c in enumerate(elt.coords) if not c.is_zero()}

    report: dict[str, bool] = {}
    report["table_is_yang"] = table == yang_table()
    report["p_closed"] = all(
        support(table.c[i][j]) <= {0, 1} for i in p_idx for j in p_idx)
    report["e2_Ae1_in_Ae3"] = all(
        support(table.c[2][j]) <= {3} for j in (1, 5))
    report["e2_Ae3_in_Ae1"] = all(
        support(table.c[2][j]) <= {1} for j in (3, 7))
    report["e2_Ae0_in_Ae2"] = all(
        support(table.c[2][j]) <= {2} for j in (0, 4))

    # Direct sum: the images of (e0, z e0) under left e2-multiplication must
    # span A e2 over A0, and those of (e1, z e1) must span A e3; each pair is
    # a 2x2 change of basis over A0 whose determinant must be a unit (±1).
    def spans(col_a: int, col_b: int, coord: int) -> bool:
        a = table.c[2][col_a].coords[coord]
        b = table.c[2][col_b].coords[coord]
        g1, h1 = a.split_A0()
        g2, h2 = b.split_A0()
        det = g1 * h2 - g2 * h1
        return det == LaurentPoly.one() or det == -LaurentPoly.one()

    report["e2P_spans_Ae2"] = spans(0, 4, 2)
    report["e2P_spans_Ae3"] = spans(1, 5, 3)
    return report
