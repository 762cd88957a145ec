"""Command-line front end: verification suites, table normalization,
sequence composition, and Hadamard generation.

Every command is one-shot and fully determined by its input files and its
flags (``--seed`` drives ``twist random`` only), so reruns with the same
flags produce byte-identical reports.  Exit codes:

    0   success
    1   verification suite found a counterexample, or ``hadamard``'s
        assembled matrix failed its Hadamard check (nothing is written)
    2   bad input: a file failed to parse, a flag is out of range, or an
        output file cannot be written
    3   table failed the Lagrange identity check
    4   no certificate could be built: a normalization pass could not
        compute its step, or the certificate does not replay to the Yang
        table; by the paper's theorem this cannot happen for a table that
        passes the Lagrange proof
    5   input quad is not a T-sequence
    6   T-sequence search exhausted without a hit

A command either returns 0 or raises ``_Failure(code, message)``; ``main``
alone catches it and prints the one ``error: {message}`` line on stderr
(exit 3 adds the witness pair as a second, JSON line).  Flags that argparse
rejects exit 2 through its own usage text.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import product
from pathlib import Path

from . import multable, sequences
from .algebra import (
    OctonionElt,
    iso_cd_to_yang,
    cd_oct_mul,
    norm,
    thakur_mul,
    yang_mul,
)
from .laurent import Z, Z_INV, LaurentPoly
from .multable import (
    PROOF_POINTS,
    EquivCertificate,
    LagrangeError,
    MulTable,
    NormalizationError,
    elduque_check,
    normalize,
    proof_point,
    twist,
    yang_table,
)
from .ortho import OrthoNF, TBASIS, random_nf

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_LAGRANGE = 3
EXIT_NORMALIZE = 4
EXIT_NOT_TSEQ = 5
EXIT_SEARCH_EXHAUSTED = 6


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 200
    output_format: str = "text"


def _oct_pair_json(x: OctonionElt, y: OctonionElt) -> dict:
    return {"x": x.to_json(), "y": y.to_json()}


# A fixed generic pair: no coordinate is zero or symmetric.
_GENERIC_PAIR = tuple(OctonionElt.from_coords(LaurentPoly(lo, cs) for lo, cs in x) for x in (
    ((0, (1, 1)), (-2, (1, 0, -3)), (0, (2, -1)), (0, (1, 0, 0, 5))),
    ((-1, (3, 0, 2)), (0, (-1, 4)), (-3, (2, 0, 0, 1)), (-1, (1, -2, 0, 7)))))
_E0 = OctonionElt.e(0)
_BASIS_PAIRS = tuple(product(enumerate(TBASIS), repeat=2))


def run_verify(config: RunConfig, mul=None):
    """Prove the identity suite for ``mul``; returns (all_passed, report dict).

    ``mul`` substitutes the product under test (used to validate that the
    suite catches faulty transcriptions); default is the Yang product.  It
    must be A0-bilinear, as every ``term_mul`` product is; the ``bilinear``
    entry probes this at a generic pair against its table.  As ``trace`` and
    ``oct_conj`` are A0-linear, ``norm`` quadratic and ``polar_q`` bilinear,
    each identity is then A0-linear or quadratic in each argument, so it
    holds everywhere iff it holds on its proof points: b_i for a linear
    argument, b_i and b_i + b_j for a quadratic one.  The suite stops at the
    first failing point, the counterexample.  Nothing is sampled: ``seed``
    and ``trials`` are only echoed.

    ``lagrange``, ``alternative_laws``, ``quadratic``, ``linearized_trace``,
    ``adjoint`` and ``elduque`` read the entries of ``table_of(mul)``.  The
    Lagrange, alternative and adjoint proofs compare packed integers
    (``multable.check_lagrange``, ``alternative_failures`` and
    ``adjoint_failures``), each with a digit width that its docstring
    proves holds every coefficient of both sides and of their difference,
    so one integer comparison decides one point exactly.

    ``linearized_trace`` and ``quadratic`` read one list of basis defects
    D(i, j) = c[i][j] + c[j][i] - v(i, j), where v(i, j) = T(b_i) b_j +
    T(b_j) b_i - Q(b_i, b_j) e0 (``_linearized_trace_values``).
    ``linearized_trace`` fails at (i, j) iff D(i, j) != 0.  The quadratic
    law is the diagonal of its polarization, so at the proof point x = sum
    of b_i over i in p, 2(x x - T(x) x + N(x) e0) is the sum of D(i, j) over
    i, j in p; as the octonions over A are torsion-free, ``quadratic`` fails
    at p iff that sum is nonzero.

    ``mul`` is called 130 times: 64 to build the table, once by
    ``bilinear``, which ties it to the table, and 65 times by
    ``cd_yang_iso_*``, which compare it with the Cayley-Dickson product;
    ``thakur_agreement`` compares the table with ``thakur_mul``.  These
    cross-checks go through the independently written products on purpose.
    """
    identities = {}
    for name, points, failures in _proofs(mul or yang_mul):
        witness = next(failures, None)
        identities[name] = {"points": points, "passed": witness is None}
        if witness is not None:
            identities[name]["counterexample"] = witness
            break
    ok = witness is None
    return ok, {"seed": config.seed, "trials": config.trials,
                "identities": identities, "all_passed": ok}


def _proofs(mul):
    """(name, proof point count, counterexamples) per identity, in proof
    order; each step's set-up runs only once the previous identity passed,
    so a faulty product is rejected before its table is built."""
    yield "cd_yang_iso_random", 1, _cd_iso_failures(mul, [_GENERIC_PAIR])
    table = multable.table_of(mul)
    c = table.c
    yield "bilinear", 1, (_oct_pair_json(x, y) for x, y in [_GENERIC_PAIR]
                          if mul(x, y) != table.eval(x, y))
    yield "lagrange", len(PROOF_POINTS) ** 2, (
        _oct_pair_json(*r.witness) for r in map(multable.check_lagrange, [table]) if not r.ok)
    yield "alternative_laws", 2 * 8 * len(PROOF_POINTS), _alternative_failures(table)
    d = [c[i][j] + c[j][i] - v  # D(i, j) of run_verify's docstring, at 8 i + j
         for ((i, _), (j, _)), v in zip(_BASIS_PAIRS, _linearized_trace_values())]
    yield "quadratic", len(PROOF_POINTS), (
        {"x": proof_point(p).to_json()} for p in PROOF_POINTS
        if not sum((d[8 * i + j] for i in p for j in p), OctonionElt.zero()).is_zero())
    yield "linearized_trace", 64, (_oct_pair_json(x, y) for ((_, x), (_, y)), dij
                                   in zip(_BASIS_PAIRS, d) if not dij.is_zero())
    yield "adjoint", 512, _adjoint_failures(table)
    yield "thakur_agreement", 64, (_oct_pair_json(x, y) for (i, x), (j, y) in _BASIS_PAIRS
                                   if thakur_mul(x, y) != c[i][j])
    yield "cd_yang_iso_basis", 64, _cd_iso_failures(mul, product(TBASIS, repeat=2))
    failed = [name for name, ok in elduque_check(table).items() if not ok]
    yield "elduque", 64, iter([{"checks": failed}] if failed else [])


def _cd_iso_failures(mul, pairs):
    """iso(cd(x, y)) = mul(iso x, iso y), the Cayley-Dickson isomorphism."""
    return (_oct_pair_json(x, y) for x, y in pairs
            if iso_cd_to_yang(cd_oct_mul(x, y)) != mul(iso_cd_to_yang(x), iso_cd_to_yang(y)))


def _alternative_failures(table):
    """x(xy) = (xx)y and (yx)x = y(xx), quadratic in x and linear in y; a
    witness names x and y as in x(xy) = (xx)y and (xy)y = x(yy)."""
    return (_oct_pair_json(proof_point(p), proof_point(q))
            for p, q in multable.alternative_failures(table))


@cache
def _linearized_trace_values() -> tuple[OctonionElt, ...]:
    """T(x) y + T(y) x - Q(x, y) e0 for the basis pairs of ``_BASIS_PAIRS``:
    T(b_i) is 2 for e0, t = z + z^-1 for z e0 and 0 otherwise, and Q(b_i,
    b_j) is 0 unless i = j mod 4, then 2 if i = j and t otherwise."""
    t = Z + Z_INV
    traces = (2, 0, 0, 0, t, 0, 0, 0)
    return tuple(traces[i] * y + traces[j] * x - (0 if (i - j) % 4 else 2 if i == j else t) * _E0
                 for (i, x), (j, y) in _BASIS_PAIRS)


def _adjoint_failures(table):
    """Q(xy, w) = Q(x, w y*) = Q(y, x* w) on basis triples; w is named z."""
    return ({"x": TBASIS[i].to_json(), "y": TBASIS[j].to_json(), "z": TBASIS[l].to_json()}
            for i, j, l in multable.adjoint_failures(table))


def _emit_report(report: dict, config: RunConfig):
    if config.output_format == "json":
        print(json.dumps(report, sort_keys=True))
        return
    for name, entry in report.get("identities", {}).items():
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{status} {name} ({entry['points']} proof points)")
        if not entry["passed"] and "counterexample" in entry:
            print(f"  counterexample: {json.dumps(entry['counterexample'], sort_keys=True)}")
    print("all passed" if report["all_passed"] else "FAILED")


def cmd_verify(config: RunConfig, mul=None) -> int:
    ok, report = run_verify(config, mul=mul)
    _emit_report(report, config)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


class _Failure(Exception):
    """A command's one way to fail: ``main`` prints ``error: {message}`` and
    returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _reading(what: str):
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_PARSE, f"cannot read {what}: {exc}") from None


def _write(path: Path, text: str, what: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _Failure(EXIT_PARSE, f"cannot write {what}: {exc}") from None


def cmd_normalize(table_file: str, out: str | None = None) -> int:
    with _reading("table"):
        table = MulTable.from_json(_load_json(table_file))
    try:
        cert = normalize(table)
    except LagrangeError as exc:
        witness = json.dumps(_oct_pair_json(*exc.report.witness), sort_keys=True)
        raise _Failure(EXIT_LAGRANGE, f"{exc}\n{witness}") from None
    except NormalizationError as exc:
        raise _Failure(EXIT_NORMALIZE, str(exc)) from None
    out_path = Path(out) if out else Path(table_file).with_suffix(".cert.json")
    _write(out_path, json.dumps(cert.to_json(), sort_keys=True) + "\n", "certificate")
    print(f"certificate written to {out_path}")
    return EXIT_OK


def _load_nf(source: str, rng) -> OrthoNF:
    if source == "random":
        return random_nf(rng)
    return OrthoNF.from_json(_load_json(source))


def cmd_twist(s1: str, s2: str, t: str, config: RunConfig,
              out: str, triple_out: str | None = None) -> int:
    rng = random.Random(config.seed)
    with _reading("normal form"):
        triple = EquivCertificate(*[_load_nf(source, rng) for source in (s1, s2, t)])
    table = twist(yang_table(), *triple).to_json()
    try:  # entries add up the units' exponents: emit only what reads back
        MulTable.from_json(table)
    except ValueError as exc:
        raise _Failure(EXIT_PARSE, f"twisted table is not readable: {exc}") from None
    out_path = Path(out)
    triple_path = Path(triple_out) if triple_out else out_path.with_suffix(".triple.json")
    _write(out_path, json.dumps(table, sort_keys=True) + "\n", "output")
    try:
        _write(triple_path, json.dumps(triple.to_json(), sort_keys=True) + "\n", "output")
    except _Failure:
        out_path.unlink(missing_ok=True)  # a table without its triple is half an output
        raise
    print(f"twisted table written to {out}; triple written to {triple_path}")
    return EXIT_OK


def _read_quad(path: str):
    """The one quad of a quad file; more than one is an error rather than
    a silent choice of the first."""
    quads = sequences.read_quads(Path(path).read_text())
    if len(quads) != 1:
        raise ValueError(f"{path} holds {len(quads)} quads, expected one")
    return quads[0]


def cmd_hadamard(tseq_file: str | None, search: int | None,
                 out: str | None = None) -> int:
    if search is not None:
        try:
            quads = sequences.brute_force_tseq(search, limit=1)
        except ValueError as exc:
            raise _Failure(EXIT_PARSE, str(exc)) from None
        if not quads:
            raise _Failure(EXIT_SEARCH_EXHAUSTED, f"no T-sequence of length {search} found")
        quad = quads[0]
    else:
        with _reading("quad"):
            quad = _read_quad(tseq_file)
    n = len(quad[0])
    try:
        # to_pm1_quad proves the T-property itself, once per run
        a, b, c, d = sequences.to_pm1_quad(quad)
    except ValueError:
        raise _Failure(EXIT_NOT_TSEQ, "input quad is not a T-sequence") from None
    matrix = sequences.goethals_seidel(a, b, c, d)
    if not sequences.is_hadamard(matrix):
        raise _Failure(EXIT_VERIFY_FAILED, f"the order-{4 * n} matrix is not Hadamard")
    out_path = Path(out) if out else Path(f"hadamard_{4 * n}.txt")
    _write(out_path, sequences.format_hadamard(matrix, [n] * 4), "matrix")
    print(f"order-{4 * n} matrix written to {out_path} (verified=True)")
    return EXIT_OK


def cmd_compose(x_file: str, y_file: str, config: RunConfig) -> int:
    with _reading("quad"):
        xq, yq = _read_quad(x_file), _read_quad(y_file)
    p, q, r, s = sequences.yang_compose(xq, yq)
    nx = sequences.quad_norm(xq)
    ny = sequences.quad_norm(yq)
    product = nx * ny
    nz = norm(OctonionElt(p, q, r, s))
    if config.output_format == "json":
        print(json.dumps({
            "p": p.to_json(), "q": q.to_json(), "r": r.to_json(), "s": s.to_json(),
            "norm_x": nx.to_json(), "norm_y": ny.to_json(),
            "norm_product": product.to_json(), "norm_output": nz.to_json(),
            "norm_multiplicative": nz == product,
        }, sort_keys=True))
        return EXIT_OK
    for label, value in (("p =", p), ("q =", q), ("r =", r), ("s =", s),
                         ("norm(x) =", nx), ("norm(y) =", ny),
                         ("norm(x)*norm(y) =", product), ("norm(output) =", nz),
                         ("norm multiplicative:", nz == product)):
        print(label, value)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yangalg",
        description="Exact octonion-algebra calculus over Z[z, 1/z] and "
                    "T-sequence/Hadamard constructions.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200,
                        help="ignored and echoed in verify's report: verify and "
                             "normalize prove their identities exactly")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="prove the identity suite on finite proof points")

    p_norm = sub.add_parser("normalize", help="normalize a table file to a certificate")
    p_norm.add_argument("table_file")
    p_norm.add_argument("--out", default=None)

    p_twist = sub.add_parser("twist", help="twist the Yang table by three normal forms")
    p_twist.add_argument("sigma1", help="normal-form JSON file or 'random'")
    p_twist.add_argument("sigma2", help="normal-form JSON file or 'random'")
    p_twist.add_argument("tau", help="normal-form JSON file or 'random'")
    p_twist.add_argument("--out", default="twisted_table.json")
    p_twist.add_argument("--triple-out", default=None)

    p_had = sub.add_parser("hadamard", help="build a verified Hadamard matrix from a T-sequence")
    p_had.add_argument("tseq_file", nargs="?", default=None)
    p_had.add_argument("--search", type=int, default=None, metavar="N",
                       help="search for a T-sequence of length N instead of reading a file")
    p_had.add_argument("--out", default=None)

    p_comp = sub.add_parser("compose", help="compose two sequence quads")
    p_comp.add_argument("x_file")
    p_comp.add_argument("y_file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(seed=args.seed, trials=args.trials, output_format=args.format)
    try:
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "normalize":
            return cmd_normalize(args.table_file, out=args.out)
        if args.command == "twist":
            return cmd_twist(args.sigma1, args.sigma2, args.tau, config,
                             out=args.out, triple_out=args.triple_out)
        if args.command == "hadamard":
            if (args.tseq_file is None) == (args.search is None):
                parser.error("hadamard needs a quad file or --search N")
            return cmd_hadamard(args.tseq_file, args.search, out=args.out)
        return cmd_compose(args.x_file, args.y_file, config)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
