"""Tests for the command-line front end and its exit-code contract."""

import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from yangalg import cli, multable
from yangalg.algebra import (
    OctonionElt,
    cd_oct_mul,
    iso_cd_to_yang,
    norm,
    oct_conj,
    polar_q,
    term_mul,
    thakur_mul,
    trace,
    yang_mul,
    yang_mul_with_sign_flip,
)
from yangalg.cli import RunConfig, main, run_verify
from yangalg.laurent import UnitA
from yangalg.multable import (
    EquivCertificate,
    MulTable,
    elduque_check,
    table_of,
    twist,
    verify_certificate,
    yang_table,
)
from yangalg.ortho import TBASIS, OrthoNF, random_nf
from yangalg.sequences import is_hadamard
from helpers import parse_hadamard
from mutants import single_term_mutants


def small_config(**kw):
    defaults = dict(seed=1, trials=20)
    defaults.update(kw)
    return RunConfig(**defaults)


# The size of each identity's proof set; an identity proved on no point
# would pass vacuously.
POINTS = {
    "cd_yang_iso_random": 1, "bilinear": 1, "lagrange": 36 * 36,
    "alternative_laws": 2 * 36 * 8, "quadratic": 36, "linearized_trace": 64,
    "adjoint": 512, "thakur_agreement": 64, "cd_yang_iso_basis": 64, "elduque": 64,
}


def test_run_verify_passes():
    ok, report = run_verify(small_config())
    assert ok and report["all_passed"]
    assert report["identities"] == {
        name: {"points": n, "passed": True} for name, n in POINTS.items()}


def test_verify_text_reports_proof_points(capsys):
    assert cli.cmd_verify(small_config()) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {name} ({n} proof points)"
                     for name, n in POINTS.items()] + ["all passed"]


def test_run_verify_deterministic():
    _, a = run_verify(small_config())
    _, b = run_verify(small_config())
    assert a == b
    ok, c = run_verify(small_config(seed=2))
    assert ok and c["seed"] == 2


def test_verify_json_ignores_seed_and_trials(capsys):
    # nothing is sampled: the report differs only in the echoed seed
    outputs = set()
    for seed in range(5):
        assert main(["--seed", str(seed), "--trials", "50", "--format", "json",
                     "verify"]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report.pop("seed") == seed and report["trials"] == 50
        outputs.add(json.dumps(report, sort_keys=True))
    assert len(outputs) == 1


def test_run_verify_catches_faulty_product():
    ok, report = run_verify(small_config(trials=200), mul=yang_mul_with_sign_flip(5))
    assert not ok
    failing = [n for n, e in report["identities"].items() if not e["passed"]]
    assert failing
    first = report["identities"][failing[0]]
    assert "counterexample" in first


def test_cmd_verify_exit_codes(capsys):
    assert cli.cmd_verify(small_config()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all passed" in out
    assert cli.cmd_verify(small_config(trials=100),
                          mul=yang_mul_with_sign_flip(0)) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out


def _fails_at(name, mul, witness):
    """Whether identity ``name`` fails for ``mul`` at the counterexample,
    computed directly through ``mul`` rather than through its table."""
    if name == "elduque":
        checks = elduque_check(table_of(mul))
        return bool(witness["checks"]) and not any(checks[c] for c in witness["checks"])
    x, y, w = (OctonionElt.from_json(witness[k]) if k in witness else None
               for k in ("x", "y", "z"))
    e0 = OctonionElt.e(0)
    if name in ("cd_yang_iso_random", "cd_yang_iso_basis"):
        return iso_cd_to_yang(cd_oct_mul(x, y)) != mul(iso_cd_to_yang(x), iso_cd_to_yang(y))
    if name == "bilinear":
        return mul(x, y) != table_of(mul).eval(x, y)
    if name == "lagrange":
        return norm(mul(x, y)) != norm(x) * norm(y)
    if name == "alternative_laws":
        return (mul(x, mul(x, y)) != mul(mul(x, x), y)
                or mul(mul(x, y), y) != mul(x, mul(y, y)))
    if name == "quadratic":
        return not (mul(x, x) - trace(x) * x + norm(x) * e0).is_zero()
    if name == "linearized_trace":
        return mul(x, y) + mul(y, x) != trace(x) * y + trace(y) * x - polar_q(x, y) * e0
    if name == "adjoint":
        q = polar_q(mul(x, y), w)
        return polar_q(x, mul(w, oct_conj(y))) != q or polar_q(y, mul(oct_conj(x), w)) != q
    assert name == "thakur_agreement"
    return thakur_mul(x, y) != mul(x, y)


# The 48 single-term faults: 0-15 flip a sign (the products
# yang_mul_with_sign_flip(k)), 16-47 flip a conjugation flag.
MUTANTS = list(single_term_mutants())


@pytest.mark.parametrize("k", range(len(MUTANTS)))
def test_verify_refutes_every_sign_flip(k, capsys):
    mul = term_mul(MUTANTS[k][1])
    assert cli.cmd_verify(small_config(output_format="json"), mul=mul) == cli.EXIT_VERIFY_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    failed = [(n, e) for n, e in report["identities"].items() if not e["passed"]]
    assert len(failed) == 1
    name, entry = failed[0]
    assert entry["points"] == POINTS[name]
    assert _fails_at(name, mul, entry["counterexample"])


def test_every_proof_refutes_sign_flips():
    # each proof run on its own, past the generic pair that rejects first:
    # every identity but the bilinearity probe refutes every single-term
    # fault (a flipped conjugation is still A0-linear, so the probe cannot
    # see it), except that x0 y0 with its sign flipped keeps the adjoint law
    for fault, terms in MUTANTS:
        mul = term_mul(terms)
        refuted = set()
        for name, points, failures in cli._proofs(mul):
            assert points == POINTS[name]
            witness = next(failures, None)
            if witness is not None:
                assert _fails_at(name, mul, witness), (fault, name)
                refuted.add(name)
        expected = set(POINTS) - {"bilinear"} - ({"adjoint"} if fault == "sign 0" else set())
        assert refuted == expected, fault


# The oracle products of the table-read proofs: the 48 single-term mutants,
# so that index k < 16 is yang_mul_with_sign_flip(k), then six twisted Yang
# products, which are bilinear but not built from a term table.
_TWIST_RNG = random.Random(17)
ORACLE_PRODUCTS = [(fault, term_mul(terms)) for fault, terms in MUTANTS] + [
    (f"twisted {n}", twist(yang_table(), *(random_nf(_TWIST_RNG) for _ in range(3))).eval)
    for n in range(6)]


@pytest.mark.parametrize("k", range(len(ORACLE_PRODUCTS)))
def test_alternative_proof_yields_every_failing_point(k):
    # both laws on every proof point, against the products computed through
    # mul itself rather than read from the table
    mul = ORACLE_PRODUCTS[k][1]
    expected, right_law_failures = [], 0
    for p in multable.PROOF_POINTS:
        x = multable.proof_point(p)
        xx = mul(x, x)
        for b in TBASIS:
            if mul(x, mul(x, b)) != mul(xx, b):
                expected.append({"x": x.to_json(), "y": b.to_json()})
            if mul(mul(b, x), x) != mul(b, xx):
                expected.append({"x": b.to_json(), "y": x.to_json()})
                right_law_failures += 1
    assert right_law_failures > 0
    assert list(cli._alternative_failures(table_of(mul))) == expected


@pytest.mark.parametrize("k", range(len(ORACLE_PRODUCTS)))
def test_adjoint_proof_yields_every_failing_point(k):
    # Q(xy, w) = Q(x, w y*) = Q(y, x* w) on every basis triple, through mul,
    # oct_conj and polar_q rather than read from the table; x0 y0 with its
    # sign flipped is the one fault that keeps the law
    fault, mul = ORACLE_PRODUCTS[k]
    expected = []
    for x, y, w in product(TBASIS, repeat=3):
        q = polar_q(mul(x, y), w)
        if polar_q(x, mul(w, oct_conj(y))) != q or polar_q(y, mul(oct_conj(x), w)) != q:
            expected.append({"x": x.to_json(), "y": y.to_json(), "z": w.to_json()})
    assert bool(expected) == (fault != "sign 0")
    assert list(cli._adjoint_failures(table_of(mul))) == expected


def test_verify_probes_bilinearity():
    # right at the generic pair, wrong wherever the norm of x differs from
    # the probe's: not A0-bilinear, so the finite proofs would not apply
    probe_norm = norm(cli._GENERIC_PAIR[0])

    def mul(x, y):
        return yang_mul(x, y) + (norm(x) - probe_norm) * OctonionElt.e(0)

    ok, report = run_verify(small_config(), mul=mul)
    assert not ok and list(report["identities"]) == ["cd_yang_iso_random", "bilinear"]
    assert _fails_at("bilinear", mul, report["identities"]["bilinear"]["counterexample"])


def test_main_verify_roundtrip_bytes(capsys):
    assert main(["--seed", "3", "--trials", "10", "--format", "json", "verify"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "3", "--trials", "10", "--format", "json", "verify"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True


def test_twist_and_normalize_round_trip(tmp_path, capsys):
    table_file = tmp_path / "twisted.json"
    triple_file = tmp_path / "twisted.triple.json"
    assert main(["--seed", "7", "twist", "random", "random", "random",
                 "--out", str(table_file)]) == 0
    assert table_file.exists() and triple_file.exists()

    # deterministic fixture: same seed, same bytes
    again = tmp_path / "again.json"
    assert main(["--seed", "7", "twist", "random", "random", "random",
                 "--out", str(again)]) == 0
    assert again.read_text() == table_file.read_text()

    cert_file = tmp_path / "cert.json"
    assert main(["--trials", "30", "normalize", str(table_file),
                 "--out", str(cert_file)]) == 0
    cert = EquivCertificate.from_json(json.loads(cert_file.read_text()))
    table = MulTable.from_json(json.loads(table_file.read_text()))
    assert verify_certificate(table, cert)


def test_normalize_yang_table_gives_identity(tmp_path):
    table_file = tmp_path / "yang.json"
    table_file.write_text(json.dumps(yang_table().to_json()))
    cert_file = tmp_path / "yang.cert.json"
    assert main(["--trials", "20", "normalize", str(table_file),
                 "--out", str(cert_file)]) == 0
    cert = EquivCertificate.from_json(json.loads(cert_file.read_text()))
    assert cert == EquivCertificate.identity()


def test_twist_identity_triple(tmp_path):
    nf_file = tmp_path / "id.json"
    nf_file.write_text(json.dumps(OrthoNF.identity().to_json()))
    out = tmp_path / "out.json"
    assert main(["twist", str(nf_file), str(nf_file), str(nf_file),
                 "--out", str(out)]) == 0
    assert MulTable.from_json(json.loads(out.read_text())) == yang_table()


def test_twist_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert main(["twist", str(bad), "random", "random",
                 "--out", str(out)]) == cli.EXIT_PARSE


def test_twist_rejects_boolean_unit_sign(tmp_path, capsys):
    nf = OrthoNF.identity().to_json()
    nf["u"][0] = {"sign": True, "exp": 0}
    nf_file = tmp_path / "bool_sign.json"
    nf_file.write_text(json.dumps(nf))
    out = tmp_path / "out.json"
    assert main(["twist", str(nf_file), "random", "random",
                 "--out", str(out)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["normalize", "twist"])
def test_deeply_nested_json_exits_2(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    out = tmp_path / "out.json"
    args = [str(deep)] * (1 if command == "normalize" else 3)
    assert main([command, *args, "--out", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert list(tmp_path.iterdir()) == [deep]


def _exits_2_on_exponent(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "[-1024, 1024]" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("poly", [{"lo": 2**63, "coeffs": [1]},
                                  {"lo": 10**400, "coeffs": [1]},
                                  {"lo": -1025, "coeffs": [1]},
                                  {"lo": 1000, "coeffs": [1] * 30}],
                         ids=["lo-2**63", "lo-10**400", "lo--1025", "hi-1029"])
def test_normalize_huge_exponent_exits_2(poly, tmp_path, capsys):
    table = yang_table().to_json()
    table["c"][1][2]["x"][0] = poly
    table_file = tmp_path / "huge.json"
    table_file.write_text(json.dumps(table))
    _exits_2_on_exponent(["normalize", str(table_file)], tmp_path, capsys)


def test_twist_huge_unit_exponent_exits_2(tmp_path, capsys):
    nf = OrthoNF.identity().to_json()
    nf["u"][1]["exp"] = 10**400
    nf_file = tmp_path / "huge.json"
    nf_file.write_text(json.dumps(nf))
    _exits_2_on_exponent(["twist", str(nf_file), "random", "random"], tmp_path, capsys)


@pytest.mark.parametrize("exp, code", [(340, cli.EXIT_OK), (350, cli.EXIT_PARSE)])
def test_twist_writes_only_tables_it_can_read_back(exp, code, tmp_path, capsys):
    # every unit lies within the exponent bound, but the entries add up the
    # three exponents: 3 * 350 + 2 = 1052 is past it, 3 * 340 + 2 = 1022 is not
    nf = OrthoNF.identity().to_json()
    nf["u"][0] = {"sign": 1, "exp": exp}
    nf_file = tmp_path / "far.json"
    nf_file.write_text(json.dumps(nf))
    out = tmp_path / "out.json"
    assert main(["twist", *[str(nf_file)] * 3, "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_OK:
        MulTable.from_json(json.loads(out.read_text()))
        return
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "[-1024, 1024]" in captured.err
    assert list(tmp_path.iterdir()) == [nf_file]


def _yang_table_file(tmp_path):
    table_file = tmp_path / "yang.json"
    table_file.write_text(json.dumps(yang_table().to_json()))
    return table_file


@pytest.mark.parametrize("argv", [
    lambda tmp, out: ["normalize", str(_yang_table_file(tmp)), "--out", out],
    lambda tmp, out: ["twist", "random", "random", "random", "--out", out],
    lambda tmp, out: ["--seed", "1", "twist", "random", "random", "random",
                      "--out", str(tmp / "t.json"), "--triple-out", out],
    lambda tmp, out: ["hadamard", "--search", "2", "--out", out],
], ids=["normalize", "twist", "twist-triple", "hadamard"])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "out.json")
    assert main(argv(tmp_path, out)) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_normalize_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["normalize", str(bad)]) == cli.EXIT_PARSE
    missing = tmp_path / "missing.json"
    assert main(["normalize", str(missing)]) == cli.EXIT_PARSE


def test_normalize_malformed_table_exits_2(tmp_path, capsys):
    good = yang_table().to_json()
    for k, c in enumerate((list(range(1, 9)), [list(range(8))] * 8,
                           good["c"][:7] + [None])):
        table_file = tmp_path / f"malformed-{k}.json"
        table_file.write_text(json.dumps({"basis": good["basis"], "c": c}))
        assert main(["normalize", str(table_file)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "cannot read table" in err and "Traceback" not in err


def _negated_entry_file(tmp_path, **extra):
    entries = [list(row) for row in yang_table().c]
    entries[1][2] = -entries[1][2]
    bad = MulTable(entries)
    bad_file = tmp_path / "bad_table.json"
    bad_file.write_text(json.dumps(dict(bad.to_json(), **extra)))
    return bad, bad_file


def test_normalize_lagrange_failure(tmp_path, capsys):
    bad, bad_file = _negated_entry_file(tmp_path)
    assert main(["--trials", "200", "normalize", str(bad_file)]) == cli.EXIT_LAGRANGE
    err = capsys.readouterr().err
    assert "norm not multiplicative at proof point pair" in err
    # the last stderr line is the witness pair, checked through eval
    pair = json.loads(err.strip().splitlines()[-1])
    x, y = OctonionElt.from_json(pair["x"]), OctonionElt.from_json(pair["y"])
    assert norm(bad.eval(x, y)) != norm(x) * norm(y)
    assert not (tmp_path / "bad_table.cert.json").exists()


def test_normalize_rejects_stored_lagrange_flag(tmp_path, capsys):
    # a table file has exactly the keys basis and c: a file that claims the
    # Lagrange check already passed is malformed, not proved or trusted
    _bad, bad_file = _negated_entry_file(tmp_path, lagrange_checked=True)
    assert main(["normalize", str(bad_file)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read table") and len(err.splitlines()) == 1
    assert not (tmp_path / "bad_table.cert.json").exists()


def test_normalize_ignores_sampling_flags(tmp_path):
    rng = random.Random(8)
    table = twist(yang_table(), *(random_nf(rng, 2) for _ in range(3)))
    table_file = tmp_path / "twisted.json"
    table_file.write_text(json.dumps(table.to_json()))
    certs = set()
    for k, flags in enumerate((["--trials", "0"], ["--trials", "200"],
                               ["--seed", "1"], ["--seed", "2"])):
        cert_file = tmp_path / f"cert-{k}.json"
        assert main(flags + ["normalize", str(table_file),
                             "--out", str(cert_file)]) == cli.EXIT_OK
        certs.add(cert_file.read_bytes())
    assert len(certs) == 1
    cert = EquivCertificate.from_json(json.loads(certs.pop()))
    assert verify_certificate(table, cert)


def test_hadamard_search(tmp_path):
    out = tmp_path / "h12.txt"
    assert main(["hadamard", "--search", "3", "--out", str(out)]) == 0
    meta, matrix = parse_hadamard(out.read_text())
    assert meta["order"] == 12 and meta["verified"] is True
    assert is_hadamard(matrix)


def test_hadamard_from_file(tmp_path):
    quad_file = tmp_path / "quad.txt"
    quad_file.write_text("1,0;0,1;0,0;0,0\n")
    out = tmp_path / "h8.txt"
    assert main(["hadamard", str(quad_file), "--out", str(out)]) == 0
    meta, matrix = parse_hadamard(out.read_text())
    assert meta["order"] == 8
    assert is_hadamard(matrix)

    quad_file.write_text("1;0;0;0\n")
    out4 = tmp_path / "h4.txt"
    assert main(["hadamard", str(quad_file), "--out", str(out4)]) == 0
    meta, matrix = parse_hadamard(out4.read_text())
    assert meta["order"] == 4 and is_hadamard(matrix)


def test_hadamard_error_paths(tmp_path, monkeypatch):
    not_tseq = tmp_path / "not_tseq.txt"
    not_tseq.write_text("1,1;0,1;0,0;0,0\n")
    assert main(["hadamard", str(not_tseq),
                 "--out", str(tmp_path / "x.txt")]) == cli.EXIT_NOT_TSEQ

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1,0;0,1;0,0\n")
    assert main(["hadamard", str(malformed),
                 "--out", str(tmp_path / "y.txt")]) == cli.EXIT_PARSE

    assert main(["hadamard", "--search", "9",
                 "--out", str(tmp_path / "z.txt")]) == cli.EXIT_PARSE

    monkeypatch.setattr(cli.sequences, "brute_force_tseq", lambda n, limit: [])
    assert main(["hadamard", "--search", "3",
                 "--out", str(tmp_path / "w.txt")]) == cli.EXIT_SEARCH_EXHAUSTED


def test_hadamard_writes_no_unverified_matrix(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.sequences, "is_hadamard", lambda h: False)
    out = tmp_path / "h.txt"
    assert main(["hadamard", "--search", "3", "--out", str(out)]) == cli.EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == "error: the order-12 matrix is not Hadamard\n"


def test_hadamard_proves_t_property_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = cli.sequences.is_t_sequence

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(cli.sequences, "is_t_sequence", counting)
    quad_file = tmp_path / "q.txt"
    quad_file.write_text("1,1,0,0,0;0,0,1,-1,0;0,0,0,0,1;0,0,0,0,0\n")
    out = tmp_path / "h20.txt"
    assert main(["hadamard", str(quad_file), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert is_hadamard(parse_hadamard(out.read_text())[1])
    capsys.readouterr()

    # one sign flipped: still exit 5 with the same single line, no matrix
    quad_file.write_text("1,1,0,0,0;0,0,-1,-1,0;0,0,0,0,1;0,0,0,0,0\n")
    flipped = tmp_path / "flipped.txt"
    calls.clear()
    assert main(["hadamard", str(quad_file), "--out", str(flipped)]) == cli.EXIT_NOT_TSEQ
    assert len(calls) == 1 and not flipped.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input quad is not a T-sequence\n"


def test_compose(tmp_path, capsys):
    x_file = tmp_path / "x.txt"
    y_file = tmp_path / "y.txt"
    x_file.write_text("1;0;0;0\n")
    y_file.write_text("1;0;0;0\n")
    assert main(["compose", str(x_file), str(y_file)]) == 0
    out = capsys.readouterr().out
    assert "norm multiplicative: True" in out

    x_file.write_text("1,0;0,1;0,0;0,0\n")
    y_file.write_text("1,0;0,1;0,0;0,0\n")
    assert main(["--format", "json", "compose", str(x_file), str(y_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm_multiplicative"] is True
    assert payload["norm_output"] == {"lo": 0, "coeffs": [4]}

    # mismatched lengths are fine at the polynomial level
    y_file.write_text("1;0;0;0\n")
    assert main(["compose", str(x_file), str(y_file)]) == 0

    assert main(["compose", str(x_file), str(tmp_path / "nope.txt")]) == cli.EXIT_PARSE


def test_compose_norm_report_values(tmp_path, capsys):
    x_file = tmp_path / "x.txt"
    x_file.write_text("1,0;0,1;0,0;0,0\n")
    assert main(["--format", "json", "compose", str(x_file), str(x_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm_x"] == {"lo": 0, "coeffs": [2]}
    assert payload["norm_product"] == {"lo": 0, "coeffs": [4]}


@pytest.mark.parametrize("triple_out", ["t.json", "./t.json"])
def test_twist_refuses_one_file_for_table_and_triple(triple_out, tmp_path, monkeypatch, capsys):
    # writing both would leave only the triple in the file
    monkeypatch.chdir(tmp_path)
    assert main(["twist", "random", "random", "random", "--out", "t.json",
                 "--triple-out", triple_out]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --out and --triple-out both name t.json\n"
    assert list(tmp_path.iterdir()) == []


def test_normalize_twisted_yang_table_with_large_exponents(tmp_path, capsys):
    # units near z^+-500: the entries add up two of them and stay within the
    # exponent bound
    nf = OrthoNF.sigma((UnitA(1, 500), UnitA(-1, -500), UnitA(1, 499), UnitA(-1, -499)))
    nf_file, id_file = tmp_path / "sigma.json", tmp_path / "id.json"
    nf_file.write_text(json.dumps(nf.to_json()))
    id_file.write_text(json.dumps(OrthoNF.identity().to_json()))
    table_file, cert_file = tmp_path / "far.json", tmp_path / "far.cert.json"
    assert main(["twist", str(nf_file), str(nf_file), str(id_file),
                 "--out", str(table_file)]) == 0
    assert main(["normalize", str(table_file)]) == 0
    assert capsys.readouterr().out.endswith(f"certificate written to {cert_file}\n")
    table = MulTable.from_json(json.loads(table_file.read_text()))
    assert verify_certificate(table, EquivCertificate.from_json(json.loads(cert_file.read_text())))


def test_twist_leaves_no_partial_output(tmp_path, capsys):
    table = tmp_path / "t.json"
    assert main(["twist", "random", "random", "random", "--out", str(table),
                 "--triple-out", str(tmp_path / "missing-dir" / "x.json")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["hadamard", "compose"])
def test_quad_entry_past_the_bound_exits_2(command, fmt, tmp_path, capsys):
    # a 3000-digit entry: the product's digits would pass the limit on
    # printing an int
    big = tmp_path / "big.txt"
    big.write_text("9" * 3000 + ";7;0;0\n")
    small = tmp_path / "r.txt"
    small.write_text("1;0;0;0\n")
    out = tmp_path / "h.txt"
    argv = ["hadamard", str(big), "--out", str(out)] if command == "hadamard" \
        else ["compose", str(big), str(small)]
    assert main(["--format", fmt, *argv]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot read quad: quad entry out of range")


@pytest.mark.parametrize("argv", [
    lambda two, out: ["hadamard", two, "--out", out],
    lambda two, out: ["--format", "json", "compose", two, two],
], ids=["hadamard", "compose"])
def test_quad_file_with_two_quads_exits_2(argv, tmp_path, capsys):
    two = tmp_path / "two.txt"
    two.write_text("1;0;0;0\n1,0;0,1;0,0;0,0\n")
    out = tmp_path / "h.txt"
    assert main(argv(str(two), str(out))) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "2 quads" in captured.err


def _edited(doc: dict, edit) -> str:
    data = json.loads(json.dumps(doc))
    edit(data)
    return json.dumps(data)


def _fuzz_cases():
    """(command, case, file content) for every input file a command reads:
    the table of ``normalize``, the normal forms of ``twist`` and the quad
    files of ``hadamard`` and ``compose``."""
    table, nf = yang_table().to_json(), OrthoNF.identity().to_json()
    json_cases = {
        "empty": ("", ""),
        "truncated": (json.dumps(table)[:900], json.dumps(nf)[:60]),
        "scalar": ("3", "3"),
        "null": ("null", "null"),
        "list": ("[1, 2]", "[1, 2]"),
        "non-utf8": (b"\xff\xfe{", b"\xff\xfe{"),
        "bool-int": (_edited(table, lambda t: t["c"][0][0]["x"][0].update(lo=True)),
                     _edited(nf, lambda n: n["u"][0].update(exp=True))),
        "float-int": (_edited(table, lambda t: t["c"][0][0]["x"][0].update(coeffs=[1.0])),
                      _edited(nf, lambda n: n["u"][0].update(exp=0.0))),
    }
    for case, (table_text, nf_text) in json_cases.items():
        yield "normalize", case, table_text
        yield "twist", case, nf_text
    yield "twist", "perm-range", _edited(nf, lambda n: n.update(perm=[0, 1, 2, 4]))
    yield "twist", "int-eps", _edited(nf, lambda n: n.update(eps=[0, 0, 0, 0]))
    yield "twist", "u-not-list", _edited(nf, lambda n: n.update(u={"sign": 1, "exp": 0}))
    quad_cases = {
        "empty": "", "non-utf8": b"\xff\xfe1;0;0;0\n", "three-seqs": "1;0;0\n",
        "float-entry": "1.0;0;0;0\n", "blank-entry": "1,;0,0;0,0;0,0\n",
        "mismatched": "1,0;0;0;0\n", "underscore": "1_0;0;0;0\n",
        "arabic-digit": "\u0661;0;0;0\n",
    }
    for case, text in quad_cases.items():
        yield "hadamard", case, text
        yield "compose", case, text


@pytest.mark.parametrize("command, content", [(c, t) for c, _, t in _fuzz_cases()],
                         ids=[f"{c}-{case}" for c, case, _ in _fuzz_cases()])
def test_malformed_input_exits_2(command, content, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    out = str(tmp_path / "out")
    argv = {"normalize": [bad, "--out", out], "twist": [bad, bad, bad, "--out", out],
            "hadamard": [bad, "--out", out], "compose": [bad, bad]}[command]
    assert main([command, *map(str, argv)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("n", ["0", "-3", "9"])
def test_hadamard_search_out_of_range_exits_2(n, tmp_path, monkeypatch, capsys):
    # the search covers lengths 1..8; no matrix file appears, not even at
    # the default output path
    monkeypatch.chdir(tmp_path)
    assert main(["hadamard", "--search", n]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [10**30, -5])
def test_twist_accepts_any_seed(seed, tmp_path, capsys):
    out = tmp_path / "t.json"
    argv = ["--seed", str(seed), "twist", "random", "random", "random", "--out", str(out)]
    assert main(argv) == cli.EXIT_OK
    table = MulTable.from_json(json.loads(out.read_text()))
    triple = EquivCertificate.from_json(json.loads(out.with_suffix(".triple.json").read_text()))
    assert twist(yang_table(), *triple) == table
    first = out.read_bytes()
    assert main(argv) == cli.EXIT_OK and out.read_bytes() == first


@pytest.mark.parametrize("flags", [["--trials", "abc"], ["--format", "xml"]])
def test_verify_rejected_flag_exits_2(flags, capsys):
    # argparse rejects the flag: its usage text, then one error line
    with pytest.raises(SystemExit) as exc:
        main([*flags, "verify"])
    assert exc.value.code == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: yangalg ")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].startswith(f"yangalg: error: argument {flags[0]}: ")


def test_cli_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, yangalg.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout == "False\n"


def test_cli_import_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import yangalg.cli as c; print(c._build_parser.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout == "0\n"


def test_main_reuses_one_parser_and_no_flag_carries_over(capsys):
    # the parser is built once per process; each call parses into a fresh
    # namespace, so --format json does not leak into the next call
    assert main(["--format", "json", "verify"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    parser = cli._build_parser()
    assert main(["verify"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {name} ({n} proof points)" for name, n in POINTS.items()] + ["all passed"]
    assert cli._build_parser() is parser
