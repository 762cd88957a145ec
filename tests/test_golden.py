"""Golden corpus: outputs that must stay byte-identical across changes.

The files under ``tests/golden/`` hold the ``normalize`` certificates of 43
Lagrange-valid tables, exit 3's stderr for 96 tables that fail the Lagrange
identity, the hashes of 16 seeded ``twist random`` tables and triples, one
``--format json verify`` report with hashes of every single-term
mutant's report and failure lists, and the Hadamard matrix files of
``hadamard --search n`` with a hash of every T-sequence search's output,
and the exit code, output and files left behind of 17 failing ``normalize``,
``twist``, ``hadamard`` and ``compose`` runs.  A change that alters one of
these outputs on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md; every other change must pass unchanged.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from yangalg import cli
from yangalg.algebra import cd_oct_mul, oct_conj, term_mul, yang_mul, yang_mul_with_sign_flip
from yangalg.multable import MulTable, check_lagrange, normalize, table_of, twist, yang_table
from yangalg.ortho import OrthoNF, random_nf
from yangalg.sequences import brute_force_tseq, format_quad_line
from mutants import single_term_mutants

GOLDEN = Path(__file__).resolve().parent / "golden"


def valid_tables():
    """(label, table): 40 twisted Yang tables (seed 2026, unit exponents in
    [-3, 3]), then the CD, opposite and conjugated products."""
    rng = random.Random(2026)
    for k in range(40):
        yield f"twisted {k}", twist(yang_table(), *(random_nf(rng, 3) for _ in range(3)))
    yield "cd", table_of(cd_oct_mul)
    yield "opposite", table_of(lambda x, y: yang_mul(y, x))
    yield "conjugated", table_of(lambda x, y: oct_conj(yang_mul(x, y)))


def lagrange_failures():
    """(label, table): the Yang table with one of its 64 entries negated,
    the tables of the 16 single-sign-flip products, and 16 negated-entry
    tables twisted by a random triple (seed 2027), as the benchmark's."""
    negated = []
    for k in range(64):
        entries = [list(row) for row in yang_table().c]
        entries[k // 8][k % 8] = -entries[k // 8][k % 8]
        negated.append(MulTable(entries))
        yield f"negated {divmod(k, 8)}", negated[k]
    for k in range(16):
        yield f"sign flip {k}", table_of(yang_mul_with_sign_flip(k))
    rng = random.Random(2027)
    for k in rng.sample(range(64), 16):
        yield f"twisted negated {divmod(k, 8)}", twist(
            negated[k], *(random_nf(rng, 3) for _ in range(3)))


def run_cli_with(command) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = command()
    return code, out.getvalue(), err.getvalue()


def run_cli(argv) -> tuple[int, str, str]:
    return run_cli_with(lambda: cli.main(argv))


def certificates(_work: Path) -> str:
    """One line per valid table: its label, then the certificate exactly as
    ``normalize --out`` writes it."""
    return "".join(f"{label}\t{json.dumps(normalize(t).to_json(), sort_keys=True)}\n"
                   for label, t in valid_tables())


def lagrange_witnesses(work: Path) -> str:
    """Per failing table: a header with its label, exit code and the number
    of proof pairs checked, then ``normalize``'s stderr."""
    blocks = []
    for label, table in lagrange_failures():
        path = work / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, _out, err = run_cli(["normalize", str(path), "--out", str(work / "cert.json")])
        blocks.append(f"# {label}: exit {code}, pairs {check_lagrange(table).pairs}\n{err}")
    return "".join(blocks)


def verify_report(_work: Path) -> str:
    code, out, _err = run_cli(["--seed", "7", "--format", "json", "verify"])
    return f"exit {code}\n{out}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_mutants(_work: Path) -> str:
    """Per single-term mutant: the exit code and the sha256 of ``verify``'s
    ``--format json`` report, then, per identity run on its own through
    ``cli._proofs``, the number of failing points and the sha256 of the full
    failure list, in proof order, as sorted-key JSON."""
    blocks = []
    for name, terms in single_term_mutants():
        mul = term_mul(terms)
        code, out, _err = run_cli_with(lambda: cli.cmd_verify(
            cli.RunConfig(seed=7, output_format="json"), mul=mul))
        lines = [f"# {name}: exit {code}, report sha256 {_sha256(out)}\n"]
        for identity, _points, failures in cli._proofs(mul):
            failures = list(failures)
            lines.append(f"{identity} {len(failures)} "
                         f"{_sha256(json.dumps(failures, sort_keys=True))}\n")
        blocks.append("".join(lines))
    return "".join(blocks)


def _cli_error_argvs(work: Path) -> list[list[str]]:
    """Write the input files of ``cli_errors`` into ``work``; return the argv
    of each failing invocation, with paths relative to ``work``."""
    entries = [list(row) for row in yang_table().c]
    entries[1][2] = -entries[1][2]
    far = OrthoNF.identity().to_json()
    far["u"][0] = {"sign": 1, "exp": 1000}
    files = {
        "bad.json": "{not json", "deep.json": "[" * 100000,
        "neg.json": json.dumps(MulTable(entries).to_json()),
        "yang.json": json.dumps(yang_table().to_json()), "far.json": json.dumps(far),
        "nont.txt": "1,1;0,0;0,0;0,0\n", "two.txt": "1;0;0;0\n1,0;0,1;0,0;0,0\n",
        "big.txt": "9" * 3000 + ";7;0;0\n", "one.txt": "1;0;0;0\n",
    }
    for name, text in files.items():
        (work / name).write_text(text)
    return [
        ["normalize", "missing.json"], ["normalize", "bad.json"], ["normalize", "deep.json"],
        ["normalize", "neg.json"], ["normalize", "yang.json", "--out", "nodir/c.json"],
        ["twist", "bad.json", "random", "random"], ["twist", "far.json", "far.json", "random"],
        ["twist", "random", "random", "random", "--out", "nodir/t.json"],
        ["twist", "random", "random", "random", "--out", "t.json",
         "--triple-out", "nodir/x.json"],
        ["hadamard", "--search", "9"], ["hadamard", "nont.txt"], ["hadamard", "two.txt"],
        ["hadamard", "big.txt"], ["hadamard", "--search", "2", "--out", "nodir/h.txt"],
        ["compose", "missing.txt", "one.txt"],
        ["--format", "json", "compose", "big.txt", "one.txt"],
        ["compose", "two.txt", "one.txt"],
    ]


def cli_errors(work: Path) -> str:
    """Per failing invocation of ``cli.main``, run in ``work`` with relative
    paths: the argv, the exit code, the files it left behind, stdout and
    stderr."""
    blocks = []
    argvs, cwd = _cli_error_argvs(work), os.getcwd()
    os.chdir(work)  # contextlib.chdir needs Python 3.11
    try:
        for argv in argvs:
            before = set(Path().rglob("*"))
            code, out, err = run_cli(argv)
            created = sorted(map(str, set(Path().rglob("*")) - before))
            blocks.append(f"$ {' '.join(argv)}\nexit {code}, created {created}\n"
                          f"stdout {out!r}\nstderr {err!r}\n")
    finally:
        os.chdir(cwd)
    return "".join(blocks)


def twist_files(work: Path) -> str:
    """The exit codes of ``--seed s twist random random random`` for s =
    1..16, then the sha256 of its 16 table files and of its 16 triple
    files, each concatenated in seed order."""
    codes, tables, triples = [], [], []
    for s in range(1, 17):
        table, triple = work / f"twist_{s}.json", work / f"twist_{s}.triple.json"
        code, _out, _err = run_cli(["--seed", str(s), "twist", "random", "random", "random",
                                    "--out", str(table), "--triple-out", str(triple)])
        codes.append(code)
        tables.append(table.read_text())
        triples.append(triple.read_text())
    return (f"# twist --seed 1..16 random random random: exits {codes}\n"
            f"tables sha256 {_sha256(''.join(tables))}\n"
            f"triples sha256 {_sha256(''.join(triples))}\n")


def hadamard_files(work: Path) -> str:
    """Per n = 1..8: the exit code and the exact file of ``hadamard --search
    n``; per n = 1..7: the sha256 of every quad ``brute_force_tseq(n)``
    returns, one quad line each, in the returned order."""
    blocks = []
    for n in range(1, 9):
        path = work / f"hadamard_{n}.txt"
        code, _out, _err = run_cli(["hadamard", "--search", str(n), "--out", str(path)])
        blocks.append(f"# hadamard --search {n}: exit {code}\n{path.read_text()}")
    for n in range(1, 8):
        quads = brute_force_tseq(n)
        lines = "".join(format_quad_line(q) + "\n" for q in quads)
        digest = hashlib.sha256(lines.encode()).hexdigest()
        blocks.append(f"# brute_force_tseq({n}): {len(quads)} quads, sha256 {digest}\n")
    return "".join(blocks)


ARTIFACTS = {
    "certificates.txt": certificates,
    "cli_errors.txt": cli_errors,
    "hadamard.txt": hadamard_files,
    "lagrange_witnesses.txt": lagrange_witnesses,
    "twist_tables.txt": twist_files,
    "verify.txt": verify_report,
    "verify_mutants.txt": verify_mutants,
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_golden_corpus(name, tmp_path):
    assert ARTIFACTS[name](tmp_path) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, make in ARTIFACTS.items():
            (GOLDEN / name).write_text(make(Path(work)))
