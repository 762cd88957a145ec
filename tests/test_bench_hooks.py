"""The benchmark under ``perfbench/`` reaches into yangalg by name: its
tracer wraps listed functions and methods, and its workloads import and call
CLI and library names.  These tests fail when a rename or deletion in
yangalg would break a benchmark run."""

import importlib
import os
from pathlib import Path

import pytest

import yangalg
import yangalg.cli  # noqa: F401  (imports every module the tracer patches)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return (importlib.import_module("perfbench.spans"),
            importlib.import_module("perfbench.workloads"))


@pytest.fixture
def bench_run(perfbench, monkeypatch):
    """``perfbench/run.py`` as a module; it imports ``calibration`` from its
    own directory and pins the BLAS thread variables, restored here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    return importlib.import_module("perfbench.run")


def _namespaces():
    """Every namespace the tracer may patch: yangalg modules and the classes
    whose methods it wraps."""
    modules = [m for name, m in vars(yangalg).items()
               if getattr(m, "__name__", "").startswith("yangalg.")]
    modules.append(yangalg)
    classes = [yangalg.LaurentPoly, yangalg.OrthoNF, yangalg.MulTable]
    return modules + classes


def _snapshot():
    return {(ns, key): value for ns in _namespaces()
            for key, value in list(vars(ns).items())}


def test_tracer_wraps_every_layer_and_restores(perfbench):
    spans, _workloads = perfbench
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the wrappers carry the wrapped function's name (functools.wraps)
        wrapped = {value.__name__ for key, value in _snapshot().items()
                   if value is not before[key]}
        for layer, (_module, attrs) in spans.LAYERS.items():
            for attr in attrs:
                assert attr.split(".")[-1] in wrapped, layer
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_verify_workload_runs_traced(perfbench, tmp_path):
    spans, workloads = perfbench
    assert set(workloads.WORKLOADS) == {"verify", "normalize", "tseq"}
    workload = workloads.WORKLOADS["verify"](1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in (0, 3):  # one accepted op, one rejected op
            with tracer.op(i, workload.kind(i)):
                raw = workload.run(i)
            assert workload.check(i, raw) is None
    finally:
        tracer.uninstall()
    totals = tracer.totals([0])
    assert totals["algebra.yang_mul"][0] > 0 and totals["cli"][0] > 0


def test_tseq_workload_checks_search_output(perfbench, tmp_path):
    # building the workload runs the length-6 search and requires 12288
    # distinct T-sequences; each op's check compares against that list
    _spans, workloads = perfbench
    workload = workloads.WORKLOADS["tseq"](1, tmp_path)
    assert [workload.kind(i) for i in (0, 3)] == ["accept", "reject"]
    for i in (0, 3):
        assert workload.check(i, workload.run(i)) is None
    for label, i, raw in workload.wrong_outputs():
        assert workload.check(i, raw) is not None, label


def test_normalize_workload_runs_traced(perfbench, tmp_path):
    spans, workloads = perfbench
    workload = workloads.WORKLOADS["normalize"](1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in (0, 3):  # one accepted op, one rejected op
            with tracer.op(i, workload.kind(i)):
                raw = workload.run(i)
            assert workload.check(i, raw) is None
    finally:
        tracer.uninstall()
    for label, i, raw in workload.wrong_outputs():
        assert workload.check(i, raw) is not None, label
    # the accepted op builds one full table: the certificate's replay
    assert tracer.totals([0])["multable.twist"][0] == 1


@pytest.mark.parametrize("name", ["verify", "normalize", "tseq"])
def test_workload_cycle_passes_the_run_checks(perfbench, bench_run, tmp_path, name):
    # what makes run.py print "correct": false, short of the timing-based
    # coverage gate: a wrong output its checks do not count, or a failed op
    # in one whole cycle, run untraced and then traced
    spans, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, tmp_path)
    for label, i, raw in workload.wrong_outputs():
        assert workload.check(i, raw) is not None, label
    untraced = [bench_run.execute(workload, i) for i in range(4)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [bench_run.execute(workload, i, tracer) for i in range(4)]
    finally:
        tracer.uninstall()
    for kind, _latency, problem in untraced + traced:
        assert problem is None, (name, kind, problem)
    assert [r[0] for r in traced] == list(workloads.CYCLE)
    assert sorted(tracer.ops) == [0, 1, 2, 3]


def test_normalize_workload_accepts_every_valid_table(perfbench, tmp_path):
    # 12 cycles: ops 0-47 normalize each of the 36 valid tables and each of
    # the 12 mutants once
    _spans, workloads = perfbench
    workload = workloads.WORKLOADS["normalize"](1, tmp_path)
    ops = range(4 * len(workload.mutants))
    assert {workload._input(i)[0] for i in ops} == {
        path for path, _table, _triple in workload.valid + workload.mutants}
    for i in ops:
        assert workload.check(i, workload.run(i)) is None, (i, workload.kind(i))
