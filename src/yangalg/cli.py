"""Command-line front end: verification suites, table normalization,
sequence composition, and Hadamard generation.

Every command is one-shot and fully determined by its input files and its
flags (``--seed`` drives ``twist random`` only), so reruns with the same
flags produce byte-identical reports.  Exit codes:

    0   success
    1   verification suite found a counterexample
    2   bad input: a file failed to parse, a flag is out of range, or an
        output file cannot be written
    3   table failed the Lagrange identity check
    4   a normalization pass rejected the table
    5   input quad is not a T-sequence
    6   T-sequence search exhausted without a hit
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from . import multable, sequences
from .algebra import (
    OctonionElt,
    iso_cd_to_yang,
    cd_oct_mul,
    norm,
    oct_conj,
    polar_q,
    thakur_mul,
    trace,
    yang_mul,
)
from .laurent import LaurentPoly
from .multable import (
    PROOF_POINTS,
    EquivCertificate,
    LagrangeError,
    MulTable,
    NormalizationError,
    elduque_check,
    normalize,
    point_products,
    proof_point,
    twist,
    yang_table,
)
from .ortho import _PROBE, OrthoNF, TBASIS, random_nf

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
_GENERIC_PAIR = (_PROBE, OctonionElt.from_coords(LaurentPoly(lo, cs) for lo, cs in (
    (-1, (3, 0, 2)), (0, (-1, 4)), (-3, (2, 0, 0, 1)), (-1, (1, -2, 0, 7)))))
_E0 = OctonionElt.e(0)
_BASIS_PAIRS = tuple(product(enumerate(TBASIS), repeat=2))


def run_verify(config: RunConfig, mul=None):
    """Prove the identity suite for ``mul``; returns (all_passed, report dict).

    ``mul`` substitutes the product under test (used to validate that the
    suite catches faulty transcriptions); default is the Yang product.  It
    must be A0-bilinear, as every sign-vector product is; the ``bilinear``
    entry probes this at a generic pair against its table.  As ``trace`` and
    ``oct_conj`` are A0-linear, ``norm`` quadratic and ``polar_q`` bilinear,
    each identity is then A0-linear or quadratic in each argument, so it
    holds everywhere iff it holds on its proof points: b_i for a linear
    argument, b_i and b_i + b_j for a quadratic one.  The suite stops at the
    first failing point, the counterexample.  Nothing is sampled: ``seed``
    and ``trials`` are only echoed.
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
    prod = point_products(table)
    yield "alternative_laws", 2 * 8 * len(PROOF_POINTS), _alternative_failures(mul, prod)
    yield "quadratic", len(PROOF_POINTS), (
        {"x": x.to_json()} for p, x in zip(PROOF_POINTS, map(proof_point, PROOF_POINTS))
        if not (prod(p, p) - trace(x) * x + norm(x) * _E0).is_zero())
    yield "linearized_trace", 64, (
        _oct_pair_json(x, y) for (i, x), (j, y) in _BASIS_PAIRS
        if c[i][j] + c[j][i] != trace(x) * y + trace(y) * x - polar_q(x, y) * _E0)
    yield "adjoint", 512, _adjoint_failures(mul, c)
    yield "thakur_agreement", 64, (_oct_pair_json(x, y) for (i, x), (j, y) in _BASIS_PAIRS
                                   if thakur_mul(x, y) != c[i][j])
    yield "cd_yang_iso_basis", 64, _cd_iso_failures(mul, product(TBASIS, repeat=2))
    failed = [name for name, ok in elduque_check(table).items() if not ok]
    yield "elduque", 64, iter([{"checks": failed}] if failed else [])


def _cd_iso_failures(mul, pairs):
    """iso(cd(x, y)) = mul(iso x, iso y), the Cayley-Dickson isomorphism."""
    return (_oct_pair_json(x, y) for x, y in pairs
            if iso_cd_to_yang(cd_oct_mul(x, y)) != mul(iso_cd_to_yang(x), iso_cd_to_yang(y)))


def _alternative_failures(mul, prod):
    """x(xy) = (xx)y and (yx)x = y(xx), quadratic in x and linear in y; a
    witness names x and y as in x(xy) = (xx)y and (xy)y = x(yy)."""
    for p in PROOF_POINTS:
        x, xx = proof_point(p), prod(p, p)
        for k, b in enumerate(TBASIS):
            if mul(x, prod(p, (k,))) != mul(xx, b):
                yield _oct_pair_json(x, b)
            if mul(prod((k,), p), x) != mul(b, xx):
                yield _oct_pair_json(b, x)


def _adjoint_failures(mul, c):
    """Q(xy, w) = Q(x, w y*) = Q(y, x* w) on basis triples; w is named z."""
    conj = [oct_conj(b) for b in TBASIS]
    w_yc = [[mul(w, yc) for yc in conj] for w in TBASIS]
    xc_w = [[mul(xc, w) for w in TBASIS] for xc in conj]
    for ((i, x), (j, y)), (k, w) in product(_BASIS_PAIRS, enumerate(TBASIS)):
        q = polar_q(c[i][j], w)
        if polar_q(x, w_yc[k][j]) != q or polar_q(y, xc_w[i][k]) != q:
            yield {"x": x.to_json(), "y": y.to_json(), "z": w.to_json()}


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


def cmd_normalize(table_file: str, out: str | None = None) -> int:
    try:
        table = MulTable.from_json(_load_json(table_file))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read table: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cert = normalize(table)
    except LagrangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        x, y = exc.report.witness
        print(json.dumps(_oct_pair_json(x, y), sort_keys=True), file=sys.stderr)
        return EXIT_LAGRANGE
    except NormalizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NORMALIZE
    out_path = Path(out) if out else Path(table_file).with_suffix(".cert.json")
    try:
        out_path.write_text(json.dumps(cert.to_json(), sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write certificate: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"certificate written to {out_path}")
    return EXIT_OK


def _load_nf(source: str, rng) -> OrthoNF:
    if source == "random":
        return random_nf(rng)
    return OrthoNF.from_json(_load_json(source))


def cmd_twist(s1: str, s2: str, t: str, config: RunConfig,
              out: str, triple_out: str | None = None) -> int:
    rng = random.Random(config.seed)
    try:
        nf1 = _load_nf(s1, rng)
        nf2 = _load_nf(s2, rng)
        nf3 = _load_nf(t, rng)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read normal form: {exc}", file=sys.stderr)
        return EXIT_PARSE
    table = twist(yang_table(), nf1, nf2, nf3)
    triple = EquivCertificate(nf1, nf2, nf3)
    out_path = Path(out)
    triple_path = Path(triple_out) if triple_out else out_path.with_suffix(".triple.json")
    try:
        out_path.write_text(json.dumps(table.to_json(), sort_keys=True) + "\n")
        try:
            triple_path.write_text(json.dumps(triple.to_json(), sort_keys=True) + "\n")
        except OSError:
            # a table without its triple is half an output
            out_path.unlink(missing_ok=True)
            raise
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if not quads:
            print(f"error: no T-sequence of length {search} found", file=sys.stderr)
            return EXIT_SEARCH_EXHAUSTED
        quad = quads[0]
    else:
        try:
            quad = _read_quad(tseq_file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read quad: {exc}", file=sys.stderr)
            return EXIT_PARSE
    n = len(quad[0])
    try:
        # to_pm1_quad proves the T-property itself, once per run
        a, b, c, d = sequences.to_pm1_quad(quad)
    except ValueError:
        print("error: input quad is not a T-sequence", file=sys.stderr)
        return EXIT_NOT_TSEQ
    matrix = sequences.goethals_seidel(a, b, c, d)
    verified = sequences.is_hadamard(matrix)
    out_path = Path(out) if out else Path(f"hadamard_{4 * n}.txt")
    try:
        out_path.write_text(sequences.format_hadamard(matrix, [n] * 4, verified))
    except OSError as exc:
        print(f"error: cannot write matrix: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"order-{4 * n} matrix written to {out_path} (verified={verified})")
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


def cmd_compose(x_file: str, y_file: str, config: RunConfig) -> int:
    try:
        xq = _read_quad(x_file)
        yq = _read_quad(y_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read quad: {exc}", file=sys.stderr)
        return EXIT_PARSE
    p, q, r, s = sequences.yang_compose(xq, yq)
    nx = sequences.quad_norm(xq)
    ny = sequences.quad_norm(yq)
    product = nx * ny
    nz = norm(OctonionElt(p, q, r, s))
    payload = {
        "p": p.to_json(), "q": q.to_json(), "r": r.to_json(), "s": s.to_json(),
        "norm_x": nx.to_json(), "norm_y": ny.to_json(),
        "norm_product": product.to_json(), "norm_output": nz.to_json(),
        "norm_multiplicative": nz == product,
    }
    if config.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"p = {p}")
        print(f"q = {q}")
        print(f"r = {r}")
        print(f"s = {s}")
        print(f"norm(x) = {nx}")
        print(f"norm(y) = {ny}")
        print(f"norm(x)*norm(y) = {product}")
        print(f"norm(output) = {nz}")
        print(f"norm multiplicative: {nz == product}")
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
    if args.command == "compose":
        return cmd_compose(args.x_file, args.y_file, config)
    parser.error(f"unknown command {args.command}")
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
