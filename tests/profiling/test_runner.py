"""Profiling presets, the --check gate, the CLI."""

import json

import pytest

from repro.errors import ConfigError
from repro.profiling.presets import (
    ALIASES,
    FEATURES,
    PROFILE_PRESETS,
    resolve_preset,
)
from repro.profiling.runner import (
    check_profile,
    main as profile_main,
    normalize_features,
    render_histograms,
    render_layer_table,
    run_profile,
)

SCALE = 0.03  # 300 tuples/stream: fast enough for per-test runs


class TestPresets:
    def test_aliases_resolve(self):
        for alias, target in ALIASES.items():
            assert resolve_preset(alias).name == target

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve_preset("nope")

    def test_every_preset_builds_workload_and_factory(self):
        for preset in PROFILE_PRESETS.values():
            workload = preset.workload(scale=0.01)
            assert workload is not None
            assert preset.factory() is not None

    def test_resilience_knob_is_pjoin_only(self):
        assert resolve_preset("fig5_pjoin").factory(resilience=True)
        with pytest.raises(ConfigError):
            resolve_preset("fig5_xjoin").factory(resilience=True)

    def test_non_pjoin_presets_exclude_resilience_from_grid(self):
        assert "resilience" not in resolve_preset("fig5_xjoin").features
        assert "resilience" in resolve_preset("fig5_pjoin").features


class TestNormalizeFeatures:
    def test_all_and_none(self):
        preset = resolve_preset("fig5_pjoin")
        assert normalize_features("all", preset) == list(FEATURES)
        assert normalize_features(None, preset) == list(FEATURES)
        assert normalize_features("none", preset) == []
        assert normalize_features("", preset) == []

    def test_subset_kept_in_grid_order(self):
        preset = resolve_preset("fig5_pjoin")
        assert normalize_features("shard,obs", preset) == ["obs", "shard"]

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigError):
            normalize_features("warp", resolve_preset("fig5_pjoin"))

    def test_unsupported_feature_rejected(self):
        with pytest.raises(ConfigError):
            normalize_features("resilience", resolve_preset("fig5_shj"))


class TestRunProfile:
    def test_profiled_run_carries_snapshot(self):
        preset = resolve_preset("fig5_pjoin")
        measured = run_profile(preset, SCALE, ["obs"], profile=True)
        assert measured.wall_s > 0
        assert measured.events_per_s > 0
        snapshot = measured.run.profile
        assert snapshot is not None
        assert snapshot["layers"]["core"]["calls"] > 0
        assert snapshot["layers"]["obs"]["calls"] > 0
        assert set(measured.outcome()) == {"events", "results", "virtual_ms"}

    def test_unprofiled_run_has_no_snapshot(self):
        preset = resolve_preset("fig5_pjoin")
        measured = run_profile(preset, SCALE, [], profile=False)
        assert measured.profiler is None
        assert measured.run.profile is None

    def test_features_do_not_change_results(self):
        # Every feature layer must preserve the join's result count
        # (that is what makes the overhead comparison meaningful).
        preset = resolve_preset("fig5_pjoin")
        workload = preset.workload(SCALE)
        bare = run_profile(preset, SCALE, [], profile=False,
                           workload=workload)
        for feature in preset.features:
            measured = run_profile(preset, SCALE, [feature], profile=False,
                                   workload=workload)
            assert measured.outcome()["results"] == bare.outcome()["results"], \
                feature


class TestCheckGate:
    def test_check_passes_on_fig5(self):
        failures = check_profile(resolve_preset("fig5_pjoin"), SCALE,
                                 max_overhead=100.0)
        assert failures == []


class TestRendering:
    def test_layer_table_lists_every_layer(self):
        measured = run_profile(resolve_preset("fig5_pjoin"), SCALE, [])
        table = render_layer_table(measured.run.profile)
        for layer in ("core", "obs", "resilience", "governor", "shard",
                      "total"):
            assert layer in table

    def test_histogram_table(self):
        measured = run_profile(resolve_preset("fig5_pjoin"), SCALE, [])
        rendered = render_histograms(measured.run.profile)
        assert "result_latency_ms" in rendered
        assert "p99" in rendered


class TestProfileCli:
    def test_writes_report_and_exports(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        collapsed = tmp_path / "stacks.txt"
        speedscope = tmp_path / "speedscope.json"
        rc = profile_main([
            "fig5", "--scale", str(SCALE), "--out", str(out),
            "--collapsed", str(collapsed), "--speedscope", str(speedscope),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "profile: fig5_pjoin" in printed
        assert "core" in printed and "total" in printed
        report = json.loads(out.read_text())
        assert report["profile_format"] == 1
        assert report["preset"] == "fig5_pjoin"
        assert set(report["profile"]["layers"]) == {
            "core", "obs", "resilience", "governor", "shard"
        }
        # The manifest section is the unpolluted run manifest.
        assert "profile" not in report["manifest"]
        assert collapsed.read_text().strip()
        scope = json.loads(speedscope.read_text())
        assert scope["profiles"][0]["weights"]

    def test_check_flag(self, capsys):
        rc = profile_main([
            "fig5", "--scale", str(SCALE), "--check",
            "--max-overhead", "100",
        ])
        assert rc == 0
        assert "profile check passed" in capsys.readouterr().out

    def test_unknown_preset_exits_2(self):
        assert profile_main(["not_a_preset"]) == 2

    def test_features_none(self, capsys):
        rc = profile_main(["fig5", "--scale", str(SCALE),
                           "--features", "none"])
        assert rc == 0
        assert "features none" in capsys.readouterr().out
