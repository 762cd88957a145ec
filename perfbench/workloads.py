"""The benchmark's workloads: seeded inputs, ops and output checks.

Every workload makes all its inputs from the run seed before timing.  The
program receives only argv and files: ops go through the in-process CLI
``yangalg.cli.main(argv)`` with stdout captured, or through the public API.

Ops come in cycles of four: three that must succeed and one that must be
rejected, so every workload has a reject path and a run always holds whole
cycles.  Each op's output is checked after its latency is taken; where the
program already checks itself (``is_hadamard``, ``norm_multiplicative``) the
benchmark checks again with its own code.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

from yangalg import cli, sequences
from yangalg.algebra import yang_mul, yang_mul_with_sign_flip
from yangalg.laurent import UnitA
from yangalg.multable import EquivCertificate, MulTable, table_of, twist, yang_table
from yangalg.ortho import OrthoNF, random_nf

CYCLE = ("accept", "accept", "accept", "reject")


def capture(fn) -> tuple[int | None, str]:
    """Run a CLI entry point with stdout and stderr captured; returns the
    exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fn()
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, out.getvalue()


def call_cli(argv) -> tuple[int | None, str]:
    return capture(lambda: cli.main(argv))


class Workload:
    """Base: op ``i`` is an accept op or a reject op by its place in the
    cycle; accept ops and reject ops are numbered separately."""

    name = ""
    quads_found = 0     # T-sequences returned by checked searches

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        # a fresh --seed for every op, cycled if a run outlasts the list
        self.op_seeds = [self.rng.randrange(2**31) for _ in range(4096)]

    @staticmethod
    def kind(i: int) -> str:
        return CYCLE[i % len(CYCLE)]

    @staticmethod
    def ordinal(i: int) -> int:
        """Index of op ``i`` among the ops of its kind."""
        cycle, pos = divmod(i, len(CYCLE))
        return cycle * (len(CYCLE) - 1) + pos if pos < len(CYCLE) - 1 else cycle

    def op_seed(self, i: int) -> int:
        return self.op_seeds[i % len(self.op_seeds)]

    def run(self, i: int):
        """Run op ``i`` and return its raw result (the timed part)."""
        raise NotImplementedError

    def check(self, i: int, raw) -> str | None:
        """Return why op ``i``'s output is wrong, or None if it is right."""
        raise NotImplementedError

    def wrong_outputs(self):
        """Deliberately wrong outputs as ``(label, op index, raw)``; each must
        fail ``check``, or the failure count would be vacuous."""
        raise NotImplementedError


# -- verify -------------------------------------------------------------------

IDENTITIES = ("lagrange", "alternative_laws", "quadratic", "linearized_trace",
              "adjoint", "cd_yang_iso_random", "thakur_agreement",
              "cd_yang_iso_basis", "elduque")
VERIFY_TRIALS = 50


class Verify(Workload):
    """The identity suite; reject ops run it on a sign-flipped product."""

    name = "verify"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # reject ops run the suite on one of the 16 single-sign-flip products
        self.flips = self.rng.sample(range(16), 16)
        self.faulty = {k: yang_mul_with_sign_flip(k) for k in range(16)}

    def _run(self, seed: int, flip: int | None):
        if flip is None:
            return call_cli(["--seed", str(seed), "--trials", str(VERIFY_TRIALS),
                             "--format", "json", "verify"])
        config = cli.RunConfig(seed=seed, trials=VERIFY_TRIALS, output_format="json")
        return capture(lambda: cli.cmd_verify(config, mul=self.faulty[flip]))

    def run(self, i):
        if self.kind(i) == "accept":
            return self._run(self.op_seed(i), None)
        return self._run(self.op_seed(i), self.flips[self.ordinal(i) % len(self.flips)])

    def check(self, i, raw):
        code, out = raw
        try:
            report = json.loads(out)
        except ValueError:
            return "stdout is not one JSON report"
        if not isinstance(report, dict) or not isinstance(report.get("identities"), dict):
            return "report has no identities"
        if report.get("seed") != self.op_seed(i) or report.get("trials") != VERIFY_TRIALS:
            return "report seed or trials differ from argv"
        ids = report["identities"]
        if self.kind(i) == "accept":
            if code != 0:
                return f"exit {code}, expected 0"
            bad = [n for n in IDENTITIES if not (isinstance(ids.get(n), dict)
                                                 and ids[n].get("passed") is True)]
            if bad or report.get("all_passed") is not True:
                return f"identities missing or failed: {bad}"
            return None
        if code != 1:
            return f"exit {code}, expected 1 for a faulty product"
        failed = [n for n, e in ids.items() if e.get("passed") is False]
        if report.get("all_passed") is not False or not failed:
            return "faulty product passed the identity suite"
        if any("counterexample" not in ids[n] for n in failed):
            return "failed identity carries no counterexample"
        return None

    def wrong_outputs(self):
        seed = self.op_seed(0)
        code, out = self._run(seed, None)
        report = json.loads(out)
        no_elduque = dict(report, identities={
            k: v for k, v in report["identities"].items() if k != "elduque"})
        one_failed = json.loads(out)
        one_failed["identities"]["thakur_agreement"]["passed"] = False
        faulty = json.loads(self._run(self.op_seed(3), self.flips[0])[1])
        return [
            ("verify report without the elduque entry", 0, (code, json.dumps(no_elduque))),
            ("verify report with one identity failed", 0, (code, json.dumps(one_failed))),
            ("passing verify report with exit 1", 0, (1, out)),
            ("faulty product's report with exit 0", 0, (0, json.dumps(dict(faulty, seed=seed)))),
            ("genuine product's report with exit 1 on a reject op", 3,
             (1, json.dumps(dict(report, seed=self.op_seed(3))))),
        ]


# -- normalize ----------------------------------------------------------------

N_VALID, N_MUTANT = 36, 12


class Normalize(Workload):
    """Table normalization; reject ops feed tables with one entry negated."""

    name = "normalize"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        base = yang_table()
        # built here, apart from yang_table()'s cached entries, as the oracle
        self.yang_ref = table_of(yang_mul)
        self.valid = []     # (path, table, generating triple)
        for k in range(N_VALID):
            triple = tuple(random_nf(self.rng) for _ in range(3))
            self.valid.append(self._write(f"valid-{k}", twist(base, *triple), triple))
        self.mutants = []
        for k, entry in enumerate(self.rng.sample(range(64), N_MUTANT)):
            row, col = divmod(entry, 8)
            entries = [list(r) for r in base.c]
            entries[row][col] = -entries[row][col]
            triple = tuple(random_nf(self.rng) for _ in range(3))
            self.mutants.append(self._write(f"mutant-{k}", twist(MulTable(entries), *triple),
                                            triple))

    def _write(self, stem, table, triple):
        path = self.work / f"{stem}.json"
        path.write_text(json.dumps(table.to_json(), sort_keys=True) + "\n")
        return path, table, triple

    def _input(self, i):
        pool = self.valid if self.kind(i) == "accept" else self.mutants
        return pool[self.ordinal(i) % len(pool)]

    def run(self, i):
        path, _table, _triple = self._input(i)
        cert = self.work / f"cert-{i}.json"
        code, _out = call_cli(["--seed", str(self.op_seed(i)), "normalize", str(path),
                               "--out", str(cert)])
        return code, cert

    def check(self, i, raw):
        code, cert = raw
        written = cert.exists()
        try:
            if self.kind(i) == "reject":
                if code != 3:
                    return f"mutant table: exit {code}, expected 3"
                return "mutant table: a certificate was written" if written else None
            if code != 0:
                return f"exit {code}, expected 0"
            try:
                c = EquivCertificate.from_json(json.loads(cert.read_text()))
            except (OSError, ValueError) as exc:
                return f"certificate unreadable: {exc}"
            if twist(self._input(i)[1], c.sigma1, c.sigma2, c.tau) != self.yang_ref:
                return "certificate does not twist the table to the Yang table"
            return None
        finally:
            cert.unlink(missing_ok=True)

    def wrong_outputs(self):
        _path, _table, (s1, s2, t) = self.valid[0]
        # the generating triple's inverse is a correct certificate by construction
        good = EquivCertificate(s1.invert(), s2.invert(), t.invert())
        u = list(good.sigma1.u)
        u[0] = UnitA(-u[0].sign, u[0].exp)
        bad = EquivCertificate(OrthoNF(tuple(u), good.sigma1.perm, good.sigma1.eps),
                               good.sigma2, good.tau)
        cases = []
        for label, cert, code, i in (
                ("certificate with one unit sign flipped", bad, 0, 0),
                ("mutant table accepted with exit 0", good, 0, 3),
                ("mutant table rejected but a certificate written", good, 3, 3),
                ("valid table rejected with exit 3", None, 3, 0)):
            path = self.work / f"selfcheck-{len(cases)}.json"
            if cert is not None:
                path.write_text(json.dumps(cert.to_json()))
            cases.append((label, i, (code, path)))
        return cases


# -- tseq ---------------------------------------------------------------------

TSEQ_N, TSEQ_COUNT = 6, 12288
N_SAMPLE, N_PAIRS, N_POOL, N_BAD = 8, 4, 32, 8


def is_tseq(q) -> bool:
    """Own T-sequence test: 0/±1 entries, one nonzero per position, and zero
    summed nonperiodic autocorrelation at every nonzero shift."""
    n = len(q[0])
    if len(q) != 4 or any(len(s) != n or any(v not in (-1, 0, 1) for v in s) for s in q):
        return False
    if any(sum(1 for s in q if s[k]) != 1 for k in range(n)):
        return False
    return all(sum(s[k] * s[k + d] for s in q for k in range(n - d)) == 0
               for d in range(1, n))


def norm_sum(polys) -> dict[int, int]:
    """Own sum of f f* over JSON polynomials, as {exponent: coeff}."""
    out: dict[int, int] = {}
    for p in polys:
        c = p["coeffs"]
        for d in range(-len(c) + 1, len(c)):
            out[d] = out.get(d, 0) + sum(c[k] * c[k + d] for k in range(max(0, -d),
                                                                       min(len(c), len(c) - d)))
    return {d: v for d, v in out.items() if v}


def check_hadamard_file(path: Path, order: int) -> str | None:
    try:
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
    except (OSError, ValueError, IndexError) as exc:
        return f"matrix file unreadable: {exc}"
    rows = lines[1:]
    if meta.get("order") != order or meta.get("verified") is not True:
        return f"matrix metadata {meta}"
    if len(rows) != order or any(len(r) != order or set(r) - {"+", "-"} for r in rows):
        return "matrix is not an order x order +/- array"
    h = np.array([[1 if ch == "+" else -1 for ch in r] for r in rows], dtype=np.int64)
    if not np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)):
        return "H H^T != 4n I"
    return None


class Tseq(Workload):
    """T-sequence search plus Hadamard and compose runs; reject ops feed a
    quad with one sign flipped to ``hadamard``."""

    name = "tseq"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.reference = sequences.brute_force_tseq(TSEQ_N)
        if (len(self.reference) != TSEQ_COUNT or len(set(self.reference)) != TSEQ_COUNT
                or not all(is_tseq(q) for q in self.reference)):
            raise RuntimeError(f"set-up search did not give {TSEQ_COUNT} distinct T-sequences")
        self.pool = []
        for k, q in enumerate(self.rng.sample(self.reference, N_POOL)):
            self.pool.append(self._write(f"quad-{k}", q))
        # reject inputs: one sign flipped where it breaks the autocorrelation
        self.bad = []
        for k, q in enumerate(self.rng.sample(self.reference, N_BAD)):
            spots = [(s, p) for s in range(4) for p in range(TSEQ_N) if q[s][p]]
            for s, p in self.rng.sample(spots, len(spots)):
                seqs = [list(x) for x in q]
                seqs[s][p] = -seqs[s][p]
                if not is_tseq(seqs):
                    self.bad.append(self._write(f"bad-{k}", seqs))
                    break
        if len(self.bad) != N_BAD:
            raise RuntimeError("could not corrupt every sampled quad")

    def _write(self, stem, quad) -> Path:
        path = self.work / f"{stem}.txt"
        path.write_text(sequences.format_quad_line(quad) + "\n")
        return path

    def _out(self, i, m) -> Path:
        return self.work / f"h-{i}-{m}.txt"

    def run(self, i):
        a = self.ordinal(i)
        if self.kind(i) == "reject":
            out = self._out(i, 0)
            code, _ = call_cli(["hadamard", str(self.bad[a % len(self.bad)]), "--out", str(out)])
            return code, out
        quads = sequences.brute_force_tseq(TSEQ_N)
        hadamard = []
        for m in range(N_SAMPLE):
            quad = self.pool[(N_SAMPLE * a + m) % N_POOL]
            out = self._out(i, m)
            hadamard.append((call_cli(["hadamard", str(quad), "--out", str(out)])[0], out))
        compose = []
        for m in range(N_PAIRS):
            x = self.pool[(N_SAMPLE * a + 2 * m) % N_POOL]
            y = self.pool[(N_SAMPLE * a + 2 * m + 1) % N_POOL]
            compose.append(call_cli(["--format", "json", "compose", str(x), str(y)]))
        return quads, hadamard, compose

    def check(self, i, raw):
        if self.kind(i) == "reject":
            code, out = raw
            written = out.exists()
            out.unlink(missing_ok=True)
            if code != 5:
                return f"non-T-sequence quad: exit {code}, expected 5"
            return "non-T-sequence quad: a matrix was written" if written else None
        quads, hadamard, compose = raw
        self.quads_found += len(quads)
        problems = []
        if len(quads) != TSEQ_COUNT or quads != self.reference:
            problems.append(f"search gave {len(quads)} quads, not the {TSEQ_COUNT} expected")
        for code, out in hadamard:
            problems.append(f"hadamard exit {code}" if code != 0
                            else check_hadamard_file(out, 4 * TSEQ_N))
            out.unlink(missing_ok=True)
        for code, text in compose:
            problems.append(self._check_compose(code, text))
        problems = [p for p in problems if p]
        return "; ".join(problems) if problems else None

    @staticmethod
    def _check_compose(code, text) -> str | None:
        if code != 0:
            return f"compose exit {code}"
        try:
            payload = json.loads(text)
            own = norm_sum([payload[k] for k in "pqrs"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"compose output unreadable: {exc}"
        square = TSEQ_N * TSEQ_N
        if (payload.get("norm_output") != {"lo": 0, "coeffs": [square]}
                or payload.get("norm_multiplicative") is not True or own != {0: square}):
            return f"composed norm is not the constant {square}"
        return None

    def wrong_outputs(self):
        out = self.work / "selfcheck-h.txt"
        code, _ = call_cli(["hadamard", str(self.pool[0]), "--out", str(out)])
        lines = out.read_text().splitlines()
        lines[1] = ("-" if lines[1][0] == "+" else "+") + lines[1][1:]
        out.write_text("\n".join(lines) + "\n")
        comp = call_cli(["--format", "json", "compose", str(self.pool[0]), str(self.pool[1])])
        payload = json.loads(comp[1])
        payload["p"]["coeffs"][0] += 1
        return [
            ("matrix with one entry flipped", 0, (self.reference, [(code, out)], [])),
            ("compose output with one coefficient changed", 0,
             (self.reference, [], [(comp[0], json.dumps(payload))])),
            ("search missing one quad", 0, (self.reference[:-1], [], [])),
            ("non-T-sequence quad accepted with exit 0", 3, (0, self.work / "missing.txt")),
        ]


WORKLOADS = {w.name: w for w in (Verify, Normalize, Tseq)}
