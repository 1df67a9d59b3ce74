"""Tests of the benchmark itself (run: python -m pytest joinbench/tests)."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import measure  # noqa: E402
from cases import CASES  # noqa: E402
import layers  # noqa: E402
from repro.operators.binary import BinaryHashJoin  # noqa: E402
from repro.operators.sink import Sink  # noqa: E402
from repro.streams.source import StreamSource  # noqa: E402
from spans import Patches, SpanRecorder, read  # noqa: E402

# Small inputs keep every test fast; shape guards need full sizes.
SMALL = {
    "fig5_eager": 600,
    "punct_dense": 300,
    "nary_drift": 300,
    "zipf_governed": 600,
}


@pytest.fixture
def small_cases(monkeypatch):
    small = {
        name: dataclasses.replace(case, tuples_per_stream=SMALL[name])
        for name, case in CASES.items()
    }
    monkeypatch.setattr(measure, "CASES", small)
    monkeypatch.setattr(measure, "MIN_REPEATS", 2)
    return small


def _schedule(workload):
    return [
        [(t, getattr(item, "values", None), str(item)) for t, item in schedule]
        for schedule in workload.schedules
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedules_are_deterministic_per_seed(name):
    case = CASES[name]
    first = _schedule(case.workload(5, SMALL[name]))
    assert first == _schedule(case.workload(5, SMALL[name]))
    assert first != _schedule(case.workload(6, SMALL[name]))


def test_sub_seeds_are_distinct_across_run_seeds():
    seen = [s for seed in range(-3, 20) for s in measure.sub_seeds(seed)]
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("name", sorted(CASES))
def test_printed_metrics_match_benchmark_json(small_cases, name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    assert name in [w["name"] for w in spec["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = measure.measure(name, 1, 0.0, trace)
        printed = {k: v["unit"] for k, v in report["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert printed == declared
        assert report["attempted"] >= 1


def test_small_runs_are_correct(small_cases):
    report = measure.measure("fig5_eager", 2, 0.0, False)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0


def _drop_every_tenth(original):
    def emit_joins(self, new_tuple, entries, new_side):
        return original(self, new_tuple, entries[: len(entries) * 9 // 10], new_side)

    return emit_joins


@pytest.mark.parametrize(
    "make_emit", [_drop_every_tenth, lambda original: lambda *args: None]
)
def test_wrong_or_missing_results_fail(small_cases, monkeypatch, make_emit):
    monkeypatch.setattr(
        BinaryHashJoin, "emit_joins", make_emit(BinaryHashJoin.emit_joins)
    )
    report = measure.measure("fig5_eager", 1, 0.0, False)
    assert not report["correct"]
    assert report["failed"] >= 1


def test_self_times_add_up_to_the_root():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = recorder.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    mid = recorder.wrap("mid", middle)
    root = recorder.wrap("root", lambda: (mid(), leaf()))
    root()
    self_s = recorder.self_seconds()
    assert sum(self_s.values()) == recorder.total_seconds()
    assert self_s["leaf"] == 3.0 and recorder.calls["leaf"] == 3
    # Ticks: root 0-9, mid 1-6 (leaves 2-3, 4-5), leaf 7-8.
    assert self_s["mid"] == 5.0 - 2.0
    assert self_s["root"] == 9.0 - 5.0 - 1.0


def test_traced_run_self_times_add_up_and_patches_undo(small_cases):
    originals = (Sink.accept_batch, Sink.handle, StreamSource._deliver)
    tracer = measure.TracedRun()
    _rep, _run, _fastpaths = measure.repeat(
        small_cases["zipf_governed"], 1, tracer
    )
    assert (Sink.accept_batch, Sink.handle, StreamSource._deliver) == originals
    recorder = tracer.recorder
    total = recorder.total_seconds()
    assert sum(recorder.self_seconds().values()) == pytest.approx(total, rel=1e-9)
    assert recorder.calls[layers.ROOT] == 1


def test_spans_round_trip(tmp_path):
    recorder = SpanRecorder()
    recorder.wrap("outer", recorder.wrap("inner", lambda: None))()
    path = str(tmp_path / "spans.bin")
    recorder.write(path)
    spans = read(path)
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[0][3] == -1 and spans[1][3] == 0
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]


def test_patches_restore_instance_and_class_attributes():
    class Thing:
        def f(self):
            return 1

    thing = Thing()
    patches = Patches()
    patches.replace(Thing, "f", lambda fn: lambda self: fn(self) + 1)
    patches.replace(thing, "f", lambda fn: lambda: fn() + 10)
    assert thing.f() == 12
    patches.undo()
    assert thing.f() == 1 and "f" not in vars(thing)


def test_traced_build_keeps_the_fast_path(small_cases):
    _rep, _run, untraced = measure.repeat(small_cases["fig5_eager"], 1)
    tracer = measure.TracedRun()
    measure.repeat(small_cases["fig5_eager"], 1, tracer)
    assert untraced == tracer.fastpaths == [True]
