from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from rahar.ingest import MAX_COUNT, EpochSeries, aggregate_epochs, vm3
import rahar.pipeline
from rahar.pipeline import (
    PipelineConfig,
    add_change_points,
    analyze_sleep,
    cp_observations,
    derive_seed,
    pooled_dataset,
)
from rahar.sleep import CandidateConfig
from rahar.synth import ActivityBlock, DayProfile, generate


@pytest.fixture(scope="module")
def two_day_analysis():
    profile = DayProfile(
        schedule=(
            ActivityBlock("sedentary", 60),
            ActivityBlock("sleep", 480),
            ActivityBlock("light", 180),
            ActivityBlock("moderate", 120),
            ActivityBlock("sedentary", 40),
            ActivityBlock("sleep", 420),
            ActivityBlock("light", 140),
        ),
        seed=8,
    )
    series, truth = generate(profile)
    config = PipelineConfig(seed=3)
    analysis = analyze_sleep("twoday", series, config)
    add_change_points([analysis], config)
    return analysis, truth, config


class TestAnalyzeRecording:
    def test_periods_match_planted_truth(self, two_day_analysis):
        analysis, truth, _ = two_day_analysis
        assert [(p.onset_index, p.awakening_index) for p in analysis.periods] == [
            (p.onset_index, p.awakening_index) for p in truth.periods
        ]

    def test_segments_align_with_periods(self, two_day_analysis):
        analysis, _, _ = two_day_analysis
        assert len(analysis.segments) == len(analysis.periods)
        for seg in analysis.segments:
            assert seg.awake_end_index == seg.sleep.onset_index

    def test_modes_tile_each_awake_span(self, two_day_analysis):
        analysis, _, _ = two_day_analysis
        for seg, modes in zip(analysis.segments, analysis.modes):
            if seg.empty_awake:
                assert modes == []
                continue
            assert modes[0].start_index == 0
            assert modes[-1].end_index == seg.awake_epochs
            for a, b in zip(modes, modes[1:]):
                assert a.end_index == b.start_index

    def test_change_points_near_block_boundaries(self, two_day_analysis):
        analysis, _, _ = two_day_analysis
        # second awake span: 180 light | 120 moderate | 40 sedentary
        cps = sorted(cp.index for cp in analysis.change_points[1])
        assert any(abs(i - 180) <= 3 for i in cps)
        assert any(abs(i - 300) <= 3 for i in cps)

    def test_mode_levels_reflect_blocks(self, two_day_analysis):
        analysis, _, _ = two_day_analysis
        levels = [m.level.token for m in analysis.modes[1]]
        assert levels[0] == "light"
        assert "moderate" in levels


class TestShortSpans:
    """A span too short to split never reaches the worker map, but its
    observations are still built in process, once per non-empty span."""

    def test_short_spans_stay_in_process(self, monkeypatch):
        schedules = [
            # an empty awake span (sleep from the first epoch), then one of 45 epochs
            (ActivityBlock("sleep", 100), ActivityBlock("light", 45), ActivityBlock("sleep", 100),
             ActivityBlock("sedentary", 40)),
            (ActivityBlock("sedentary", 40), ActivityBlock("sleep", 100),
             ActivityBlock("moderate", 50), ActivityBlock("sleep", 100), ActivityBlock("light", 40)),
        ]
        config = PipelineConfig()
        analyses = [
            analyze_sleep(f"r{i}", generate(DayProfile(schedule=s, seed=i))[0], config)
            for i, s in enumerate(schedules)
        ]
        spans = [seg for a in analyses for seg in a.segments if not seg.empty_awake]
        assert len(spans) == 3 and len(spans) < sum(len(a.segments) for a in analyses)
        assert all(seg.awake_epochs < 2 * config.min_segment for seg in spans)

        built = []

        def counting(*args):
            built.append(args[1:3])
            return cp_observations(*args)

        mapped = []

        def recording_map(fn, items):
            items = list(items)
            mapped.extend(items)
            return map(fn, items)

        monkeypatch.setattr(rahar.pipeline, "cp_observations", counting)
        add_change_points(analyses, config, map=recording_map)
        assert built == [(seg.awake_start_index, seg.awake_end_index) for seg in spans]
        assert mapped == []
        for a in analyses:
            for seg, cps, modes in zip(a.segments, a.change_points, a.modes):
                assert list(cps) == [] and len(modes) == (0 if seg.empty_awake else 1)


class TestPooledDataset:
    def test_raw_and_modes_fractions_are_both_normalized(self, two_day_analysis):
        analysis, _, config = two_day_analysis
        smoothed = pooled_dataset([analysis], config)
        raw_cfg = PipelineConfig(seed=3, features_mode="raw", include_first_segment=True)
        raw = pooled_dataset([analysis], raw_cfg)
        for ds in (smoothed, raw):
            assert np.allclose(ds.X[:, :4].sum(axis=1), 1.0, atol=1e-9)
        assert len(raw) >= len(smoothed)  # first segment kept in the raw config

    def test_segment_ids_carry_recording_name(self, two_day_analysis):
        analysis, _, config = two_day_analysis
        ds = pooled_dataset([analysis], config)
        assert all(sid.startswith("twoday:") for sid in ds.segment_ids)


    @pytest.mark.parametrize("features_mode", ["modes", "raw"])
    def test_awake_minutes_use_each_recordings_epoch_length(self, two_day_analysis, features_mode):
        analysis, _, _ = two_day_analysis
        coarse_series, _ = aggregate_epochs(analysis.series, 2)
        config = PipelineConfig(seed=3, features_mode=features_mode, include_first_segment=True)
        coarse = analyze_sleep("coarse", coarse_series, config)
        add_change_points([coarse], config)
        assert coarse.series.epoch_minutes == 2.0 and analysis.series.epoch_minutes == 1.0
        by_name = {a.name: a for a in (analysis, coarse)}
        ds = pooled_dataset([analysis, coarse], config)
        assert {sid.split(":")[0] for sid in ds.segment_ids} == {"twoday", "coarse"}
        for sid, awake_minutes in zip(ds.segment_ids, ds.awake_minutes):
            name, k = sid.split(":")
            a = by_name[name]
            assert awake_minutes == a.segments[int(k)].awake_epochs * a.series.epoch_minutes


class TestManifestParameters:
    # PipelineConfig().manifest_parameters() before it was derived from the dataclass
    DEFAULT = {
        "age_years": None,
        "aggregate": 1,
        "alpha_exp": 1.0,
        "candidate": {
            "inclinometer_accept": ["off", "sitting", "standing"],
            "require_zero_steps": True,
            "require_zero_triaxial": True,
        },
        "cp_signal": "triaxial",
        "cut_axis": "axis1",
        "efficiency_threshold": 0.85,
        "features_mode": "modes",
        "fill_gaps": None,
        "folds": 5,
        "include_awake_feature": False,
        "include_first_segment": False,
        "min_awake_min": 0.0,
        "min_segment": 30,
        "min_sleep_min": 0,
        "mode_tie_break": "lower",
        "model": None,
        "n_permutations": 99,
        "scale_file": "builtin:troiano-2008",
        "seed": 0,
        "significance": 0.01,
    }

    def test_default_manifest_unchanged(self):
        assert PipelineConfig().manifest_parameters() == self.DEFAULT

    def test_every_field_reaches_the_manifest(self):
        params = PipelineConfig(scale_file="scale.csv").manifest_parameters()
        assert set(params) == {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(params["candidate"]) == {f.name for f in dataclasses.fields(CandidateConfig)}
        assert params["scale_file"] == "scale.csv"

    @pytest.mark.parametrize(
        "field,value", [("folds", 1), ("efficiency_threshold", 0.0),
                        ("efficiency_threshold", 1.5), ("aggregate", 0),
                        ("seed", -1), ("min_awake_min", float("nan")), ("min_awake_min", -1),
                        ("min_sleep_min", -1), ("alpha_exp", 2), ("min_segment", 1),
                        ("n_permutations", 0), ("significance", 1),
                        *((name, "bogus") for name in ("cut_axis", "cp_signal", "model",
                                                       "fill_gaps", "features_mode",
                                                       "mode_tie_break"))]
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})


class TestHelpers:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)
        assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)
        assert derive_seed(7, "a", 0) != derive_seed(8, "a", 0)
        assert 0 <= derive_seed(0) < 2**63

    def test_cp_observations_shapes(self, two_day_analysis):
        analysis, _, _ = two_day_analysis
        tri = cp_observations(analysis.series, 10, 50, "triaxial")
        assert tri.shape == (40, 3)
        vm = cp_observations(analysis.series, 10, 50, "vm3")
        assert vm.shape == (40, 1)
        assert np.allclose(vm[:, 0], np.linalg.norm(tri, axis=1))
        with pytest.raises(ValueError):
            cp_observations(analysis.series, 0, 5, "nope")

    def test_cp_observations_vm3_is_the_cut_point_magnitude(self):
        # near MAX_COUNT a float norm and the exact integer sum of squares
        # round apart; the change points see the magnitude the cut points do
        counts = np.random.default_rng(0).integers(0, MAX_COUNT + 1, (200, 4))
        series = EpochSeries(np.arange(200) * 60_000_000, np.zeros(200), counts, np.zeros(200))
        exact = [math.sqrt(a * a + b * b + c * c) for a, b, c, _ in counts.tolist()]
        assert np.linalg.norm(counts[:, :3].astype(float), axis=1).tolist() != exact
        observations = cp_observations(series, 0, 200, "vm3")
        assert observations.shape == (200, 1)
        assert observations[:, 0].tolist() == exact == vm3(counts).tolist()
