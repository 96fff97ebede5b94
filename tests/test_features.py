from __future__ import annotations

import io

import numpy as np
import pytest

from rahar.cutpoints import IntensityLevel
from rahar.errors import EmptyAwakeSpan, EmptyDataset
from rahar.features import (
    Quality,
    build_dataset,
    extract_features,
    label_target,
    raw_fractions,
    read_dataset_csv,
    write_dataset_csv,
)
from rahar.modes import ActivityMode
from rahar.segments import SleepWakeSegment
from rahar.sleep import SleepMetrics, SleepPeriod

SED, LIGHT, MOD, VIG = IntensityLevel


def metrics_with(efficiency: float) -> SleepMetrics:
    return SleepMetrics(
        duration_min=480,
        waso_min=0,
        latency_min=0,
        total_minutes_in_bed=480,
        total_sleep_time_min=480 * efficiency,
        efficiency=efficiency,
        preceding_sedentary_start_index=0,
    )


def segment_with(awake_len: int, efficiency: float = 0.9, first=False) -> SleepWakeSegment:
    onset = awake_len
    return SleepWakeSegment(
        awake_start_index=0,
        awake_end_index=awake_len,
        sleep=SleepPeriod(onset, onset + 480),
        metrics=metrics_with(efficiency),
        first_segment=first,
        empty_awake=awake_len == 0,
    )


def mode(a: int, b: int, level: IntensityLevel) -> ActivityMode:
    hist = [0, 0, 0, 0]
    hist[int(level)] = b - a
    return ActivityMode(a, b, level, tuple(hist))


def fractions(segments, modes_per_segment):
    return [extract_features(seg, modes) for seg, modes in zip(segments, modes_per_segment)]


class TestExtractFeatures:
    def test_single_sedentary_interval(self):
        seg = segment_with(100)
        fv = extract_features(seg, [mode(0, 100, SED)])
        assert (fv.frac_sedentary, fv.frac_light, fv.frac_moderate, fv.frac_vigorous) == (
            1.0, 0.0, 0.0, 0.0,
        )
        assert fv.awake_minutes == 100

    def test_two_equal_intervals(self):
        seg = segment_with(100)
        fv = extract_features(seg, [mode(0, 50, SED), mode(50, 100, MOD)])
        assert fv.frac_sedentary == 0.5 and fv.frac_moderate == 0.5

    def test_weighted_tally(self):
        seg = segment_with(100)
        fv = extract_features(seg, [mode(0, 30, SED), mode(30, 90, LIGHT), mode(90, 100, VIG)])
        assert fv.frac_sedentary == pytest.approx(0.3)
        assert fv.frac_light == pytest.approx(0.6)
        assert fv.frac_moderate == 0.0
        assert fv.frac_vigorous == pytest.approx(0.1)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cuts = np.sort(rng.choice(np.arange(1, 120), size=3, replace=False))
            bounds = [0, *cuts.tolist(), 120]
            modes = [
                mode(a, b, IntensityLevel(int(rng.integers(0, 4))))
                for a, b in zip(bounds, bounds[1:])
            ]
            fv = extract_features(segment_with(120), modes)
            assert abs(sum(fv.as_array()) - 1.0) <= 1e-9

    def test_time_unit_invariance(self):
        seg = segment_with(100)
        modes = [mode(0, 25, SED), mode(25, 100, LIGHT)]
        one_min = extract_features(seg, modes, epoch_minutes=1.0)
        five_min = extract_features(seg, modes, epoch_minutes=5.0)
        assert one_min.as_array().tolist() == five_min.as_array().tolist()
        assert five_min.awake_minutes == 5 * one_min.awake_minutes

    def test_empty_span_raises(self):
        with pytest.raises(EmptyAwakeSpan):
            extract_features(segment_with(0), [])

    def test_modes_must_tile(self):
        with pytest.raises(ValueError):
            extract_features(segment_with(10), [mode(0, 5, SED)])

    def test_raw_fractions(self):
        seg = segment_with(4)
        fv = raw_fractions(seg, [SED, SED, LIGHT, VIG])
        assert fv.frac_sedentary == 0.5
        assert fv.frac_light == 0.25
        assert fv.frac_vigorous == 0.25


class TestLabelTarget:
    def test_above_threshold_good(self):
        assert label_target(metrics_with(0.86)) is Quality.GOOD

    def test_below_threshold_poor(self):
        assert label_target(metrics_with(0.84)) is Quality.POOR

    def test_exactly_at_threshold_good(self):
        # "below 0.85" is strict
        assert label_target(metrics_with(0.85)) is Quality.GOOD

    def test_monotone(self):
        rng = np.random.default_rng(9)
        effs = np.sort(rng.random(50))
        labels = [int(label_target(metrics_with(e))) for e in effs]
        assert labels == sorted(labels)


class TestBuildDataset:
    def test_filters(self):
        good = [segment_with(60, 0.9) for _ in range(3)]
        truncated = segment_with(60, 0.9)
        truncated = type(truncated)(
            awake_start_index=truncated.awake_start_index,
            awake_end_index=truncated.awake_end_index,
            sleep=SleepPeriod(60, 500, truncated=True),
            metrics=truncated.metrics,
        )
        modes = [[mode(0, 60, SED)]] * 4
        ds = build_dataset([*good, truncated], fractions([*good, truncated], modes))
        assert len(ds) == 3

    def test_first_segment_excluded_by_default(self):
        segs = [segment_with(60, 0.9, first=True), segment_with(60, 0.8)]
        modes = [[mode(0, 60, SED)]] * 2
        ds = build_dataset(segs, fractions(segs, modes))
        assert len(ds) == 1
        assert ds.y.tolist() == [0]  # the non-first one, poor

    def test_first_segment_kept_when_asked(self):
        segs = [segment_with(60, 0.9, first=True), segment_with(60, 0.8)]
        modes = [[mode(0, 60, SED)]] * 2
        ds = build_dataset(segs, fractions(segs, modes), include_first_segment=True)
        assert len(ds) == 2

    def test_all_filtered_raises(self):
        segs = [segment_with(60, 0.9, first=True)]
        with pytest.raises(EmptyDataset):
            build_dataset(segs, fractions(segs, [[mode(0, 60, SED)]]))

    def test_min_awake_filter(self):
        segs = [segment_with(30, 0.9), segment_with(200, 0.9)]
        modes = [[mode(0, 30, SED)], [mode(0, 200, SED)]]
        ds = build_dataset(segs, fractions(segs, modes), min_awake_min=60)
        assert len(ds) == 1 and ds.awake_minutes.tolist() == [200.0]

    def test_row_order_and_ids(self):
        segs = [segment_with(60, 0.9), segment_with(60, 0.5)]
        modes = [[mode(0, 60, SED)], [mode(0, 60, VIG)]]
        ds = build_dataset(segs, fractions(segs, modes), segment_ids=["a", "b"])
        assert ds.segment_ids == ["a", "b"]
        assert ds.X[0][0] == 1.0 and ds.X[1][3] == 1.0

    def test_csv_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        segs, modes = [], []
        for k in range(7):
            n = int(rng.integers(40, 200))
            cut = int(rng.integers(1, n))
            segs.append(segment_with(n, float(rng.random())))
            modes.append([mode(0, cut, SED), mode(cut, n, MOD)])
        ds = build_dataset(segs, fractions(segs, modes))
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        buf.seek(0)
        again = read_dataset_csv(buf)
        assert again.segment_ids == ds.segment_ids
        assert (again.X == ds.X).all()
        assert (again.y == ds.y).all()
        assert (again.efficiency == ds.efficiency).all()
        assert (again.awake_minutes == ds.awake_minutes).all()
