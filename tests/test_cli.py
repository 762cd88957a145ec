"""Tests for the command-line front end and its exit-code contract."""

import json
import random

import pytest

from yangalg import cli, multable
from yangalg.algebra import OctonionElt, norm, yang_mul_with_sign_flip
from yangalg.cli import RunConfig, main, run_verify
from yangalg.multable import (
    EquivCertificate,
    LagrangeReport,
    MulTable,
    twist,
    verify_certificate,
    yang_table,
)
from yangalg.ortho import OrthoNF, random_nf
from yangalg.sequences import is_hadamard, parse_hadamard


def small_config(**kw):
    defaults = dict(seed=1, trials=20, degree_bound=2)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_verify_passes():
    ok, report = run_verify(small_config())
    assert ok and report["all_passed"]
    names = set(report["identities"])
    assert {"lagrange", "alternative_laws", "quadratic", "linearized_trace",
            "adjoint", "cd_yang_iso_random", "cd_yang_iso_basis",
            "thakur_agreement", "elduque"} == names
    assert all(e["passed"] for e in report["identities"].values())


def test_run_verify_deterministic():
    _, a = run_verify(small_config())
    _, b = run_verify(small_config())
    assert a == b
    ok, c = run_verify(small_config(seed=2))
    assert ok and c["seed"] == 2


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


@pytest.mark.parametrize("flag, value", [("--trials", 0), ("--trials", -3),
                                         ("--degree-bound", -1)])
def test_verify_rejects_vacuous_sampling(flag, value, capsys):
    # no trials, or only zero elements to sample, would pass every identity
    assert main([flag, str(value), "verify"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    field = flag[2:].replace("-", "_")
    assert cli.cmd_verify(small_config(**{field: value})) == cli.EXIT_PARSE


def test_main_verify_roundtrip_bytes(capsys):
    assert main(["--seed", "3", "--trials", "10", "--degree-bound", "2",
                 "--format", "json", "verify"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "3", "--trials", "10", "--degree-bound", "2",
                 "--format", "json", "verify"]) == 0
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
        table_file.write_text(json.dumps({"basis": good["basis"], "c": c,
                                          "lagrange_checked": False}))
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


def test_normalize_ignores_stored_lagrange_flag(tmp_path, capsys):
    # a file that claims the check already passed is proved all the same
    _bad, bad_file = _negated_entry_file(tmp_path, lagrange_checked=True)
    assert main(["normalize", str(bad_file)]) == cli.EXIT_LAGRANGE
    assert "norm not multiplicative" in capsys.readouterr().err


def test_normalize_pass_rejection(tmp_path, monkeypatch, capsys):
    _bad, bad_file = _negated_entry_file(tmp_path)
    # force the Lagrange gate open: the passes must still reject
    monkeypatch.setattr(multable, "check_lagrange",
                        lambda table: LagrangeReport(True, 0))
    assert main(["normalize", str(bad_file)]) == cli.EXIT_NORMALIZE
    assert "error" in capsys.readouterr().err


def test_normalize_ignores_sampling_flags(tmp_path):
    rng = random.Random(8)
    table = twist(yang_table(), *(random_nf(rng, 2) for _ in range(3)))
    table_file = tmp_path / "twisted.json"
    table_file.write_text(json.dumps(table.to_json()))
    certs = set()
    for k, flags in enumerate((["--trials", "0"], ["--trials", "200"],
                               ["--degree-bound", "-1"], ["--seed", "1"],
                               ["--seed", "2"])):
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


def test_twist_leaves_no_partial_output(tmp_path, capsys):
    table = tmp_path / "t.json"
    assert main(["twist", "random", "random", "random", "--out", str(table),
                 "--triple-out", str(tmp_path / "missing-dir" / "x.json")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


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
