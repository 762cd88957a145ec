"""The single-term mutants of Yang's product, shared by the tests that
validate the identity checks against transcription slips."""

from yangalg.algebra import _YANG_TERMS


def single_term_mutants():
    """Yield ``(name, terms)`` for the 48 term tables that differ from
    ``_YANG_TERMS`` in one field of one term k (row k // 4, slot k % 4):
    first its sign negated (``sign k``, the table of
    ``yang_mul_with_sign_flip(k)``), then its left and then its right
    conjugation flag toggled (``conj_i k``, ``conj_j k``)."""
    for name, field in (("sign", 0), ("conj_i", 2), ("conj_j", 4)):
        for k in range(16):
            terms = [list(row) for row in _YANG_TERMS]
            term = list(terms[k // 4][k % 4])
            term[field] = -term[field] if name == "sign" else not term[field]
            terms[k // 4][k % 4] = tuple(term)
            yield f"{name} {k}", terms
