"""Code only the tests use: random inputs, the 384 signed permutations, a
unit as a polynomial, and the reader of ``hadamard``'s matrix files."""

import itertools
import json

from yangalg.algebra import OctonionElt
from yangalg.laurent import LaurentPoly, UnitA
from yangalg.ortho import OrthoNF


def random_poly(rng, degree_bound: int = 3, coeff_bound: int = 9) -> LaurentPoly:
    """A random polynomial with exponents in [-degree_bound, degree_bound]
    and coefficients uniform in [-coeff_bound, coeff_bound]."""
    coeffs = [rng.randint(-coeff_bound, coeff_bound)
              for _ in range(2 * degree_bound + 1)]
    return LaurentPoly(-degree_bound, coeffs)


def random_oct(rng, degree_bound: int = 3, coeff_bound: int = 9) -> OctonionElt:
    """An element with four independent random coordinates."""
    return OctonionElt(*(random_poly(rng, degree_bound, coeff_bound)
                         for _ in range(4)))


def unit_poly(u: UnitA) -> LaurentPoly:
    """The unit sign * z^exp as a polynomial."""
    return LaurentPoly.term(u.sign, u.exp)


def o4z_elements() -> list[OrthoNF]:
    """The 384 signed permutations: the norm-preserving maps fixing Z^4,
    i.e. the semidirect product of sign changes by coordinate permutations."""
    out = []
    for signs in itertools.product((1, -1), repeat=4):
        u = tuple(UnitA(s, 0) for s in signs)
        for perm in itertools.permutations(range(4)):
            out.append(OrthoNF(u, perm, (False,) * 4))
    return out


def parse_hadamard(text: str):
    """Inverse of ``sequences.format_hadamard``; returns (metadata, tuple of
    ±1 rows).

    Raises ValueError unless the rows form a square +/- array whose size is
    the metadata ``order``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict):
        raise ValueError("matrix metadata is not a JSON object")
    rows = lines[1:]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix rows do not form a square array")
    if any(set(r) - {"+", "-"} for r in rows):
        raise ValueError("matrix entries must be + or -")
    order = meta.get("order")
    if type(order) is not int or order != len(rows):
        raise ValueError(f"metadata order {order!r} does not match {len(rows)} rows")
    return meta, tuple(tuple(1 if ch == "+" else -1 for ch in r) for r in rows)
