from __future__ import annotations

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahar.cutpoints import (
    DEFAULT_AGE_YEARS,
    IntensityLevel,
    builtin_troiano_scale,
    classify_series,
    load_scale_file,
    make_scale,
)
from rahar.errors import InvalidScale

from conftest import make_epoch, make_series
from oracles import epochs_of, ref_classify_epoch, series_of

SED, LIGHT, MOD, VIG = IntensityLevel


def classify_epoch(epoch, scale, age_years, epoch_minutes=1.0, signal="axis1"):
    """One epoch's level from the library, as a one-row series."""
    series = series_of([epoch], timedelta(minutes=epoch_minutes))
    return IntensityLevel(int(classify_series(series, scale, age_years, signal)[0]))


class TestAdultScale:
    # adult thresholds from the Troiano (2008) NHANES cut-point table:
    # sedentary < 100, light 100-2019, moderate 2020-5998, vigorous >= 5999
    @pytest.mark.parametrize(
        "cpm,expected",
        [
            (0, SED),
            (99, SED),
            (100, LIGHT),
            (2019, LIGHT),
            (2020, MOD),
            (5998, MOD),
            (5999, VIG),
            (6000, VIG),
            (50000, VIG),
        ],
    )
    def test_band_edges(self, adult_scale, cpm, expected):
        assert classify_epoch(make_epoch(0, axis1=cpm), adult_scale, 18) is expected

    def test_youth_band_differs(self, adult_scale):
        # age 12 moderate threshold is 2220 cpm, so 2100 is still light
        epoch = make_epoch(0, axis1=2100)
        assert classify_epoch(epoch, adult_scale, 12) is LIGHT
        assert classify_epoch(epoch, adult_scale, 18) is MOD

    def test_age_without_band(self, adult_scale):
        with pytest.raises(InvalidScale):
            classify_epoch(make_epoch(0, axis1=0), adult_scale, 3)

    def test_vm3_signal(self, adult_scale):
        epoch = make_epoch(0, axis1=60, axis2=80, axis3=0)  # magnitude 100
        assert classify_epoch(epoch, adult_scale, 18, signal="vm3") is LIGHT
        assert classify_epoch(epoch, adult_scale, 18, signal="axis1") is SED

    def test_counts_per_minute_normalization(self, adult_scale):
        # 5-minute epoch with 6000 counts is 1200 cpm: light, not vigorous
        epoch = make_epoch(0, axis1=6000)
        assert classify_epoch(epoch, adult_scale, 18, epoch_minutes=5.0) is LIGHT


class TestClassifySeries:
    def test_empty(self, adult_scale):
        assert classify_series(make_series([]), adult_scale).tolist() == []

    def test_all_zero(self, adult_scale):
        labels = classify_series(make_series([0] * 7), adult_scale).tolist()
        assert labels == [SED] * 7

    def test_matches_elementwise(self, adult_scale):
        counts = [0, 150, 2500, 7000, 99, 2020]
        series = make_series(counts)
        labels = classify_series(series, adult_scale, age_years=18).tolist()
        expected = [ref_classify_epoch(e, adult_scale, 18) for e in epochs_of(series)]
        assert labels == expected

    def test_no_age_means_the_adult_band(self, adult_scale):
        # 2100 counts/min is moderate for an adult, light for a 12-year-old
        series = make_series([2100])
        assert DEFAULT_AGE_YEARS == 18
        assert classify_series(series, adult_scale).tolist() == [MOD]
        assert classify_series(series, adult_scale, age_years=12).tolist() == [LIGHT]

    @given(st.lists(st.integers(0, 10000), min_size=8, max_size=8), st.permutations(range(8)))
    @settings(max_examples=40, deadline=None)
    def test_order_equivariance(self, counts, perm):
        scale = builtin_troiano_scale()
        labels = classify_series(make_series(counts), scale).tolist()
        shuffled = [counts[i] for i in perm]
        shuffled_labels = classify_series(make_series(shuffled), scale).tolist()
        assert shuffled_labels == [labels[i] for i in perm]

    @given(st.integers(0, 20000), st.integers(0, 20000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_counts(self, a, b):
        scale = builtin_troiano_scale()
        low, high = sorted((a, b))
        assert classify_epoch(make_epoch(0, axis1=low), scale, 18) <= classify_epoch(
            make_epoch(0, axis1=high), scale, 18
        )


class TestScaleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.csv"
        path.write_text(
            "age_min,age_max,sedentary_max,light_max,moderate_max\n0,130,10,100,1000\n"
        )
        scale = load_scale_file(path)
        assert classify_epoch(make_epoch(0, axis1=10), scale, 30) is SED
        assert classify_epoch(make_epoch(0, axis1=11), scale, 30) is LIGHT
        assert classify_epoch(make_epoch(0, axis1=1001), scale, 30) is VIG

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidScale):
            load_scale_file(path)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(InvalidScale):
            make_scale("broken", [(0, 99, 100, 100, 50)])

    def test_empty_age_range_rejected(self):
        # the scale-file fuzz reaches this only on some of its examples
        with pytest.raises(InvalidScale, match=r"age range \[30, 18\] is empty"):
            make_scale("broken", [(30, 18, 100, 1000, 5000)])

    def test_coverage_every_count_has_level(self, adult_scale):
        band = adult_scale.band_for_age(18)
        for cpm in range(0, 20000, 97):
            band.level_for(float(cpm))  # raises if uncovered
