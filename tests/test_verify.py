"""The oracle-judged check runner: ``repro.verify`` and ``repro check``.

Suites are built small through the Python API; the CLI runs them at
their CI parameters.  Each failure mode must name what failed: the
variant, the engagement counter or the golden key.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.tuples.tuple import Tuple
from repro.verify import (
    SUITES,
    Variant,
    chaos_suite,
    memory_suite,
    plan_suite,
    recovery_suite,
    run_suite,
    shard_suite,
    skew_suite,
)
from repro.workloads.generator import GeneratedWorkload

GOLDENS = Path(__file__).resolve().parent / "goldens"

SMALL = {
    "memory": lambda: memory_suite(tuples=300),
    # The skew golden pins the full-size run; it is checked below.
    "skew": lambda: dataclasses.replace(skew_suite(tuples=600), goldens=None),
    "shard": lambda: shard_suite(tuples=300, shards=(1, 2)),
    "recovery": lambda: recovery_suite(tuples=300),
    "plan": lambda: plan_suite(scale=0.05),
    "chaos": chaos_suite,
}


def test_every_suite_has_a_small_build():
    assert set(SMALL) == set(SUITES)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_passes_at_small_size(name):
    assert run_suite(SMALL[name](), GOLDENS) == []


def test_skew_at_full_size_matches_committed_golden():
    """The same gate as ``repro check skew``, caught before a push."""
    assert run_suite(skew_suite(), GOLDENS) == []


def _minus_one_tuple(workload):
    schedule = list(workload.schedule_b)
    index = next(i for i, (_t, item) in enumerate(schedule)
                 if isinstance(item, Tuple))
    del schedule[index]
    return GeneratedWorkload(workload.spec, workload.schedule_a, schedule)


def test_oracle_mismatch_names_the_variant():
    suite = memory_suite(tuples=300)
    good = suite.variants[0]
    short = Variant("short", lambda w: good.run(_minus_one_tuple(w)))
    failures = run_suite(
        dataclasses.replace(suite, variants=[good, short]), GOLDENS
    )
    assert len(failures) == 1
    assert failures[0].startswith("memory/short: result multiset differs "
                                  "from the oracle")


def test_zero_engagement_counter_is_named():
    failures = run_suite(memory_suite(tuples=300, budget=10**6), GOLDENS)
    assert failures == [
        "memory/PJoin-1 b=1000000: engagement counter governor.spills is 0",
        "memory/XJoin b=1000000: engagement counter governor.spills is 0",
        "memory/PJoin-1 K=2 b=1000000: engagement counter governor.spills "
        "is 0",
    ]


@pytest.mark.parametrize("crash", [(5, 80), (0, 10**6)])
def test_crash_that_cannot_fire_fails(crash):
    failures = run_suite(recovery_suite(tuples=300, crash=crash), GOLDENS)
    spec = f"{crash[0]}@{crash[1]}"
    assert failures == [
        f"recovery/K={k} crash {spec}: engagement counter "
        f"recovery.crashes_detected is 0"
        for k in (1, 2)
    ]


def test_missing_golden_is_reported(tmp_path):
    failures = run_suite(chaos_suite(presets=("gentle",)), tmp_path)
    assert failures == [f"missing golden: {tmp_path / 'chaos_gentle.json'}"]


def test_golden_drift_is_reported_per_key(tmp_path):
    golden = json.loads((GOLDENS / "chaos_gentle.json").read_text())
    golden["dead_letters"] += 1
    del golden["seed"]
    (tmp_path / "chaos_gentle.json").write_text(json.dumps(golden))
    failures = run_suite(chaos_suite(presets=("gentle",)), tmp_path)
    assert failures == [
        f"drift in chaos_gentle.dead_letters: golden="
        f"{golden['dead_letters']} run={golden['dead_letters'] - 1}",
        "drift in chaos_gentle.seed: golden=None run=7",
    ]


class TestCheckCommand:
    def test_named_suite_passes(self, capsys):
        assert main(["check", "chaos"]) == 0
        out = capsys.readouterr().out
        assert "disk_storm" in out
        assert "check chaos: passed" in out

    def test_failure_exits_one_and_names_it(self, tmp_path, capsys):
        code = main(["check", "chaos", "--goldens", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "check chaos: FAILED" in captured.out
        assert f"missing golden: {tmp_path / 'chaos_crash.json'}" in captured.err

    def test_unknown_suite_is_rejected(self, capsys):
        assert main(["check", "nosuch"]) == 2
        assert "unknown check suites" in capsys.readouterr().err
