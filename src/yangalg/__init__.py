"""Exact octonion algebra over Z[z, 1/z], its orthogonal-group calculus,
multiplication-table normalization, and T-sequence/Hadamard constructions."""

from .laurent import (
    LaurentPoly,
    UnitA,
    divexact,
)
from .algebra import (
    OctonionElt,
    QuaternionElt,
    cd_oct_mul,
    decompose_unit,
    iso_cd_to_yang,
    norm,
    oct_conj,
    polar_q,
    quat_conj,
    quat_mul,
    thakur_mul,
    trace,
    yang_mul,
)
from .ortho import OrthoNF, RecognitionError, random_nf, recognize
from .multable import (
    EquivCertificate,
    LagrangeError,
    MulTable,
    NormalizationError,
    align_triple_products,
    check_lagrange,
    elduque_check,
    kaplansky_unitize,
    normalize,
    straighten_scalar_action,
    table_of,
    twist,
    verify_certificate,
    yang_table,
    yang_twist,
)
from .sequences import (
    brute_force_tseq,
    goethals_seidel,
    hall_poly,
    is_hadamard,
    is_t_sequence,
    to_pm1_quad,
    yang_compose,
)

__version__ = "0.1.0"
