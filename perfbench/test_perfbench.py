"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import random
import signal
import sys
import time

import pytest

import layertrace
import run
import workloads

sys.path.insert(0, run.SRC)


def _quiet(_msg):
    pass


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_inputs_load(name, seed, tmp_path):
    rio, _ = run._import_repherd()
    wl = workloads.build(name, random.Random(seed), str(tmp_path), run.ROOT)
    assert wl.requests and wl.algebras
    for path in wl.algebras:
        rio.load_algebra(path)
    for request in wl.requests:
        if request.argv[0] == "check-module":
            rio.load_module(rio.load_algebra(request.argv[1]), request.argv[2])


def test_inputs_repeat_for_a_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.build("oracle-gfp", random.Random(7), str(tmp_path / "a"), run.ROOT)
    b = workloads.build("oracle-gfp", random.Random(7), str(tmp_path / "b"), run.ROOT)
    for ra, rb in zip(a.requests, b.requests):
        assert ra.label == rb.label
        with open(ra.argv[1], encoding="utf-8") as fa, open(rb.argv[1], encoding="utf-8") as fb:
            assert fa.read() == fb.read()


def test_every_alias_is_wrapped():
    run._import_repherd()
    tracer = layertrace.Tracer()
    originals = {id(fn) for _, fn in tracer.originals()}
    tracer.install()
    try:
        for modname, mod in list(sys.modules.items()):
            if modname == "repherd" or modname.startswith("repherd."):
                left = [attr for attr, value in vars(mod).items() if id(value) in originals]
                assert not left, "%s still binds unwrapped %s" % (modname, left)
        # the alias solve_linear = solve is wrapped too
        assert sys.modules["repherd.linalg"].solve_linear is sys.modules["repherd.linalg"].solve
    finally:
        tracer.uninstall()
    assert {id(fn) for _, fn in tracer.originals()} == originals


def test_speed_is_sampled_during_a_call():
    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    with run.SAMPLER:
        mark = len(run.SAMPLER.samples)
        _, elapsed, scaled = run.calibrated(busy)
        taken = len(run.SAMPLER.samples) - mark
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert taken >= 5
    # the probes' own time is taken out of the call's
    assert 0.1 < elapsed < 0.2 and scaled > 0


def test_self_time_on_a_synthetic_tree():
    # root [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60].
    spans = [(0, 0, 100, -1, 0), (1, 10, 30, 0, 0), (2, 40, 90, 0, 0), (3, 50, 60, 2, 0)]
    assert layertrace.span_self_times(spans) == [30, 20, 40, 10]


def test_split_by_cause_on_a_synthetic_tree():
    t = layertrace.Tracer()
    ix = t.index
    t.spans = [
        (ix["endo.oracle"], 0, 100, -1, 0),
        (ix["endo.global_dimension"], 10, 90, 0, 0),
        (ix["endo.radical"], 20, 30, 1, 0),       # radical under the oracle, via global_dimension
        (ix["modules.decompose"], 200, 300, -1, 1),
        (ix["endo.idempotents"], 210, 260, 3, 1),
        (ix["endo.radical"], 220, 240, 4, 1),     # radical under decomposition, via idempotents
        (ix["endo.radical"], 400, 405, -1, 2),    # radical with no cause: in neither split
    ]
    out = t.layer_metrics()
    assert out["endo.radical.calls.in_oracle"] == 1
    assert out["endo.radical.calls.in_decompose"] == 1
    assert out["endo.radical.s.in_oracle"] == pytest.approx(10e-9)
    assert out["endo.radical.s.in_decompose"] == pytest.approx(20e-9)
    assert out["endo.idempotents.calls.in_decompose"] == 1
    assert out["endo.idempotents.s.in_decompose"] == pytest.approx(30e-9)
    assert out["modules.decompose.s"] == pytest.approx(50e-9)


def _small_fixture_workload(tmp_path, monkeypatch, exit_codes):
    monkeypatch.setattr(workloads, "FIXTURE_EXIT", exit_codes)
    monkeypatch.setattr(workloads, "FIXTURE_MODULES", [("kron", "kron_regular", 0, [(1, 1)])])
    return workloads.build("fixtures-q", random.Random(1), str(tmp_path), run.ROOT)


def test_right_expectations_pass(tmp_path, monkeypatch):
    wl = _small_fixture_workload(tmp_path, monkeypatch, {"a2": 2, "a3": 0})
    attempted, failed, metrics = run.timed_run(wl, 0, _quiet)
    assert (attempted, failed) == (4, 0)
    assert metrics["ok_ratio"] == 1.0


def test_wrong_expected_verdict_counts_as_failed(tmp_path, monkeypatch):
    # a2 is Degenerate (exit 2); expecting Holds must fail the request
    wl = _small_fixture_workload(tmp_path, monkeypatch, {"a2": 0, "a3": 0})
    attempted, failed, metrics = run.timed_run(wl, 0, _quiet)
    assert (attempted, failed) == (4, 1)
    assert metrics["ok_ratio"] == 0.75


def test_traced_counts_repeat(tmp_path, monkeypatch):
    wl = _small_fixture_workload(tmp_path, monkeypatch, {"a2": 2, "a3": 0})
    units = run.declared_units()["per_layer"]
    counts = []
    for k in range(2):
        _, failed, metrics = run.traced_run(wl, str(tmp_path / ("out%d" % k)), 1, _quiet)
        assert failed == 0
        assert set(metrics) == set(units)
        counts.append({n: v for n, v in metrics.items() if units[n] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.calls"] > 0 and counts[0]["endo.oracle.calls"] > 0
