"""The orthogonal group of the norm form on E, as computable normal forms.

Every norm-preserving A0-linear map factors as sigma_u . beta . tau: four
coordinate conjugations (tau, by input slot), a coordinate permutation
(beta), then four unit scalings (sigma, by output slot).  Composition and
inversion are done symbolically through the commutation rules between the
three layers, and ``recognize`` rebuilds the normal form of a map from its
images of the eight-element Z[t]-basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import Z, Z_INV, LaurentPoly, UnitA
from .algebra import OctonionElt, decompose_unit

_ID_UNITS = (UnitA.identity(),) * 4
_ID_PERM = (0, 1, 2, 3)
_NO_EPS = (False,) * 4
_ZERO = LaurentPoly.zero()


class RecognitionError(ValueError):
    """Raised when basis images are not those of an orthogonal map."""


@dataclass(frozen=True)
class OrthoNF:
    """Normal form sigma_u . beta_perm . tau^eps of an orthogonal map.

    ``perm[i]`` is the image slot of coordinate i; ``u`` is indexed by output
    slot and ``eps`` by input slot.  Applied to x, coordinate i is first
    conjugated when eps[i] holds, moved to slot perm[i], then scaled by
    u[perm[i]].
    """

    u: tuple[UnitA, UnitA, UnitA, UnitA]
    perm: tuple[int, int, int, int]
    eps: tuple[bool, bool, bool, bool]

    def __post_init__(self):
        if len(self.u) != 4 or not all(isinstance(x, UnitA) for x in self.u):
            raise ValueError("u must be four units")
        if sorted(self.perm) != [0, 1, 2, 3]:
            raise ValueError("perm must be a permutation of 0..3")
        if len(self.eps) != 4 or not all(isinstance(b, bool) for b in self.eps):
            raise ValueError("eps must be four booleans")

    @classmethod
    def identity(cls) -> OrthoNF:
        return cls(_ID_UNITS, _ID_PERM, _NO_EPS)

    @classmethod
    def sigma(cls, units) -> OrthoNF:
        """Coordinate scaling by four units."""
        return cls(tuple(units), _ID_PERM, _NO_EPS)

    @classmethod
    def from_perm(cls, perm) -> OrthoNF:
        """Coordinate permutation sending slot i to slot perm[i]."""
        return cls(_ID_UNITS, tuple(perm), _NO_EPS)

    @classmethod
    def tau(cls, eps) -> OrthoNF:
        """Coordinate-wise conjugations."""
        return cls(_ID_UNITS, _ID_PERM, tuple(bool(b) for b in eps))

    @classmethod
    def transposition(cls, i: int, j: int) -> OrthoNF:
        perm = list(_ID_PERM)
        perm[i], perm[j] = perm[j], perm[i]
        return cls.from_perm(perm)

    def apply(self, x: OctonionElt) -> OctonionElt:
        """The image of x: coordinate i, conjugated when eps[i] holds, is
        scaled by u[perm[i]] into slot perm[i].  A unit scaling is a shift
        and a sign (``UnitA.scale``), not a polynomial multiplication."""
        out: list[LaurentPoly | None] = [None] * 4
        for i, c in enumerate(x.coords):
            j = self.perm[i]
            if self.eps[i]:
                c = c.conj()
            out[j] = self.u[j].scale(c)
        return OctonionElt(*out)

    def compose(self, other: OrthoNF) -> OrthoNF:
        """Normal form of self ∘ other (other acts first).

        Uses the layer commutation rules: beta sigma_u = sigma_{beta(u)} beta,
        tau_k sigma_u = sigma_{u with u_k conjugated} tau_k, and
        tau^eps beta = beta tau^{eps after beta}.
        """
        inv = _inverse_perm(self.perm)
        vp = tuple(other.u[k].conj() if self.eps[k] else other.u[k]
                   for k in range(4))
        u = tuple(self.u[j] * vp[inv[j]] for j in range(4))
        perm = tuple(self.perm[other.perm[i]] for i in range(4))
        eps = tuple(self.eps[other.perm[i]] ^ other.eps[i] for i in range(4))
        return OrthoNF(u, perm, eps)

    def invert(self) -> OrthoNF:
        """The inverse normal form; built from the factor inverses
        tau^-1 = tau, beta^-1, sigma_u^-1 = sigma_{u*}."""
        tau_inv = OrthoNF.tau(self.eps)
        beta_inv = OrthoNF.from_perm(_inverse_perm(self.perm))
        sigma_inv = OrthoNF.sigma(tuple(x.conj() for x in self.u))
        return tau_inv.compose(beta_inv).compose(sigma_inv)

    def to_json(self) -> dict:
        return {
            "u": [x.to_json() for x in self.u],
            "perm": list(self.perm),
            "eps": list(self.eps),
        }

    @classmethod
    def from_json(cls, data) -> OrthoNF:
        if not isinstance(data, dict) or set(data) != {"u", "perm", "eps"}:
            raise ValueError("normal form JSON must have keys u, perm, eps")
        u = data["u"]
        perm = data["perm"]
        eps = data["eps"]
        if not isinstance(u, list) or len(u) != 4:
            raise ValueError("u must be a list of four units")
        if not isinstance(perm, list) or not isinstance(eps, list):
            raise ValueError("perm and eps must be lists")
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in perm):
            raise ValueError("perm entries must be integers")
        if not all(isinstance(b, bool) for b in eps):
            raise ValueError("eps entries must be booleans")
        return cls(tuple(UnitA.from_json(x) for x in u), tuple(perm), tuple(eps))

    def __str__(self) -> str:
        us = ",".join(f"{'+' if x.sign > 0 else '-'}z^{x.exp}" for x in self.u)
        es = "".join("1" if b else "0" for b in self.eps)
        return f"sigma({us}).perm{self.perm}.tau({es})"


def _inverse_perm(perm):
    inv = [0] * 4
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _times_e(f: LaurentPoly, k: int) -> OctonionElt:
    """f e_k."""
    return OctonionElt(*(f if i == k else _ZERO for i in range(4)))


# The Z[t]-basis e0..e3, z e0..z e3.
TBASIS = tuple(_times_e(f, i) for f in (LaurentPoly.one(), Z) for i in range(4))


def recognize(images) -> OrthoNF:
    """Reconstruct the normal form of the norm-preserving A0-linear map with
    the given images of the eight Z[t]-basis elements.

    Each image of e_i must be a unit times a basis vector, fixing the
    permutation and the units; comparing the image of z e_i against u z e_i'
    and u z^-1 e_i' fixes each conjugation bit.  Both comparisons are exact,
    so the normal form, which is orthogonal by construction, reproduces all
    eight images, and hence the A0-linear map they define.
    """
    perm = [0] * 4
    units = [None] * 4
    for i in range(4):
        try:
            tgt, u = decompose_unit(images[i])
        except ValueError as exc:
            raise RecognitionError(f"image of e{i} is not on the unit sphere: {exc}") from exc
        perm[i] = tgt
        units[tgt] = u
    if sorted(perm) != [0, 1, 2, 3]:
        raise RecognitionError("basis images do not hit distinct coordinates")

    eps = [False] * 4
    for i, tgt in enumerate(perm):
        img = images[4 + i]
        if img == _times_e(units[tgt].scale(Z_INV), tgt):
            eps[i] = True
        elif img != _times_e(units[tgt].scale(Z), tgt):
            raise RecognitionError(f"image of z*e{i} matches neither conjugation branch")
    return OrthoNF(tuple(units), tuple(perm), tuple(eps))


def random_nf(rng, exp_bound: int = 3) -> OrthoNF:
    """A random normal form with unit exponents in [-exp_bound, exp_bound].

    Fully determined by the rng state, so seeded streams reproduce.
    """
    if exp_bound < 0:
        raise ValueError("exp_bound must be nonnegative")
    u = tuple(UnitA(rng.choice((1, -1)), rng.randint(-exp_bound, exp_bound))
              for _ in range(4))
    perm = list(range(4))
    rng.shuffle(perm)
    eps = tuple(bool(rng.getrandbits(1)) for _ in range(4))
    return OrthoNF(u, tuple(perm), eps)
