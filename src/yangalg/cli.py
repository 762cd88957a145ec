"""Command-line front end: verification suites, table normalization,
sequence composition, and Hadamard generation.

Every command is one-shot and fully determined by its input files and the
flags (seed, trials, degree bound), so reruns with the same flags produce
byte-identical reports.  Exit codes:

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
from pathlib import Path

from . import multable, sequences
from .algebra import (
    OctonionElt,
    iso_cd_to_yang,
    cd_oct_mul,
    norm,
    oct_conj,
    polar_q,
    random_oct,
    thakur_mul,
    trace,
    yang_mul,
)
from .multable import (
    EquivCertificate,
    LagrangeError,
    MulTable,
    NormalizationError,
    elduque_check,
    normalize,
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
    degree_bound: int = 3
    output_format: str = "text"

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _oct_pair_json(x: OctonionElt, y: OctonionElt) -> dict:
    return {"x": x.to_json(), "y": y.to_json()}


def run_verify(config: RunConfig, mul=None):
    """Run the full identity suite; returns (all_passed, report dict).

    ``mul`` substitutes the product under test (used to validate that the
    suite catches faulty transcriptions); default is the Yang product.
    """
    if mul is None:
        mul = yang_mul
    rng = config.rng()
    n, d = config.trials, config.degree_bound
    identities = {}
    report = {
        "seed": config.seed,
        "trials": n,
        "degree_bound": d,
        "identities": identities,
        "all_passed": True,
    }

    def rand():
        return random_oct(rng, d)

    def run(name, check):
        entry = {"trials": n, "passed": True}
        identities[name] = entry
        for _ in range(n):
            witness = check()
            if witness is not None:
                entry["passed"] = False
                entry["counterexample"] = witness
                report["all_passed"] = False
                return False
        return True

    def lagrange():
        x, y = rand(), rand()
        if norm(mul(x, y)) != norm(x) * norm(y):
            return _oct_pair_json(x, y)

    def alternative():
        x, y = rand(), rand()
        left = mul(x, mul(x, y)) == mul(mul(x, x), y)
        right = mul(mul(x, y), y) == mul(x, mul(y, y))
        if not (left and right):
            return _oct_pair_json(x, y)

    def quadratic():
        x = rand()
        if mul(x, x) - trace(x) * x + norm(x) * OctonionElt.e(0) != OctonionElt.zero():
            return {"x": x.to_json()}

    def linearized_trace():
        x, y = rand(), rand()
        lhs = mul(x, y) + mul(y, x)
        rhs = trace(x) * y + trace(y) * x - polar_q(x, y) * OctonionElt.e(0)
        if lhs != rhs:
            return _oct_pair_json(x, y)

    def adjoint():
        x, y, w = rand(), rand(), rand()
        q = polar_q(mul(x, y), w)
        if polar_q(x, mul(w, oct_conj(y))) != q or polar_q(y, mul(oct_conj(x), w)) != q:
            return {"x": x.to_json(), "y": y.to_json(), "z": w.to_json()}

    def cd_iso():
        x, y = rand(), rand()
        if iso_cd_to_yang(cd_oct_mul(x, y)) != mul(iso_cd_to_yang(x), iso_cd_to_yang(y)):
            return _oct_pair_json(x, y)

    def thakur():
        x, y = rand(), rand()
        if thakur_mul(x, y) != mul(x, y):
            return _oct_pair_json(x, y)

    ok = (
        run("lagrange", lagrange)
        and run("alternative_laws", alternative)
        and run("quadratic", quadratic)
        and run("linearized_trace", linearized_trace)
        and run("adjoint", adjoint)
        and run("cd_yang_iso_random", cd_iso)
        and run("thakur_agreement", thakur)
    )

    if ok:
        basis_ok = all(
            iso_cd_to_yang(cd_oct_mul(bi, bj))
            == mul(iso_cd_to_yang(bi), iso_cd_to_yang(bj))
            for bi in TBASIS for bj in TBASIS)
        identities["cd_yang_iso_basis"] = {"trials": 64, "passed": basis_ok}
        elduque = elduque_check(multable.table_of(mul))
        identities["elduque"] = {"trials": 1, "passed": all(elduque.values()),
                                 "checks": elduque}
        if not basis_ok or not all(elduque.values()):
            report["all_passed"] = False
    return report["all_passed"], report


def _emit_report(report: dict, config: RunConfig):
    if config.output_format == "json":
        print(json.dumps(report, sort_keys=True))
        return
    for name, entry in report.get("identities", {}).items():
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{status} {name} ({entry['trials']} trials)")
        if not entry["passed"] and "counterexample" in entry:
            print(f"  counterexample: {json.dumps(entry['counterexample'], sort_keys=True)}")
    print("all passed" if report["all_passed"] else "FAILED")


def cmd_verify(config: RunConfig, mul=None) -> int:
    # With no trials, or only zero elements to sample, every identity would
    # pass vacuously.
    if config.trials < 1 or config.degree_bound < 0:
        print("error: verify needs --trials >= 1 and --degree-bound >= 0", file=sys.stderr)
        return EXIT_PARSE
    ok, report = run_verify(config, mul=mul)
    _emit_report(report, config)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _load_json(path: str):
    return json.loads(Path(path).read_text())


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
    rng = config.rng()
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
        if not sequences.is_t_sequence(quad):
            print("error: input quad is not a T-sequence", file=sys.stderr)
            return EXIT_NOT_TSEQ
    n = len(quad[0])
    a, b, c, d = sequences.to_pm1_quad(quad)
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
                        help="random trials per identity in verify; normalize "
                             "proves the Lagrange identity exactly and ignores it")
    parser.add_argument("--degree-bound", type=int, default=3,
                        help="exponent bound of verify's random elements")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the full identity suite")

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
    config = RunConfig(seed=args.seed, trials=args.trials,
                       degree_bound=args.degree_bound, output_format=args.format)
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
