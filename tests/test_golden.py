"""Golden corpus: outputs that must stay byte-identical across changes.

The files under ``tests/golden/`` hold the ``normalize`` certificates of 43
Lagrange-valid tables, exit 3's stderr for 96 tables that fail the Lagrange
identity, and one ``--format json verify`` report.  A change that alters one
of these outputs on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md; every other change must pass unchanged.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from yangalg import cli
from yangalg.algebra import cd_oct_mul, oct_conj, yang_mul, yang_mul_with_sign_flip
from yangalg.multable import MulTable, check_lagrange, normalize, table_of, twist, yang_table
from yangalg.ortho import random_nf

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


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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


ARTIFACTS = {
    "certificates.txt": certificates,
    "lagrange_witnesses.txt": lagrange_witnesses,
    "verify.txt": verify_report,
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
