from __future__ import annotations

import io
import json
from dataclasses import replace
from datetime import datetime

import pytest

from rahar.cli import main
from rahar.errors import InvalidProfile
from rahar.ingest import Inclinometer, parse_epoch_csv, serialize_epoch_csv, validate_series
from rahar.sleep import candidate_mask, compute_waso, detect_sleep_periods
from rahar.synth import (
    ActivityBlock,
    DayProfile,
    generate,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

from oracles import epochs_of


def day_profile(noise=0.0, seed=0):
    return DayProfile(
        schedule=(
            ActivityBlock("sleep", 480),
            ActivityBlock("sedentary", 300),
            ActivityBlock("moderate", 120),
            ActivityBlock("sedentary", 540),
        ),
        noise=noise,
        seed=seed,
    )


class TestGenerate:
    def test_series_is_valid_and_sized(self):
        series, truth = generate(day_profile())
        assert len(series) == 1440
        assert validate_series(series) is series
        assert truth.mode_schedule[0] == (0, 480, "sleep")

    def test_determinism(self):
        s1, t1 = generate(day_profile(noise=0.05, seed=9))
        s2, t2 = generate(day_profile(noise=0.05, seed=9))
        assert epochs_of(s1) == epochs_of(s2)
        assert t1.periods == t2.periods

    def test_different_seeds_differ(self):
        s1, _ = generate(day_profile(seed=1))
        s2, _ = generate(day_profile(seed=2))
        assert epochs_of(s1) != epochs_of(s2)

    def test_sleep_blocks_emit_stillness(self):
        series, truth = generate(day_profile())
        p = truth.periods[0]
        for e in epochs_of(series)[p.onset_index : p.awakening_index + 1]:
            assert e.counts == (0, 0, 0) and e.steps == 0
            assert e.inclinometer is Inclinometer.OFF

    def test_noiseless_recovery_exact(self):
        profile = DayProfile(
            schedule=(
                ActivityBlock("sedentary", 200),
                ActivityBlock("sleep", 480),
                ActivityBlock("light", 400),
                ActivityBlock("sleep", 100),
                ActivityBlock("sedentary", 90),
            ),
            seed=4,
        )
        series, truth = generate(profile)
        mask = candidate_mask(series)
        detected = detect_sleep_periods(mask)
        assert [(p.onset_index, p.awakening_index, p.truncated) for p in detected] == [
            (p.onset_index, p.awakening_index, p.truncated) for p in truth.periods
        ]

    def test_noisy_recovery_and_zero_waso(self):
        series, truth = generate(day_profile(noise=0.08, seed=31))
        mask = candidate_mask(series)
        detected = detect_sleep_periods(mask)
        assert [(p.onset_index, p.awakening_index) for p in detected] == [
            (p.onset_index, p.awakening_index) for p in truth.periods
        ]
        # isolated single-epoch noise never exceeds the WASO bout threshold
        assert compute_waso(mask, detected[0]) == 0
        sleep_slice = [e for e in epochs_of(series)[:480]]
        assert any(e.axis1 > 0 for e in sleep_slice)  # noise actually landed

    def test_trailing_sleep_marked_truncated(self):
        profile = DayProfile(
            schedule=(ActivityBlock("sedentary", 100), ActivityBlock("sleep", 120)), seed=2
        )
        _, truth = generate(profile)
        assert truth.periods[0].truncated

    def test_short_trailing_awake_marks_truncated(self):
        profile = DayProfile(
            schedule=(
                ActivityBlock("sleep", 100),
                ActivityBlock("sedentary", 20),
            ),
            seed=2,
        )
        series, truth = generate(profile)
        assert truth.periods[0].truncated
        detected = detect_sleep_periods(candidate_mask(series))
        assert detected[0].truncated

    def test_change_points_at_awake_boundaries(self):
        _, truth = generate(day_profile())
        assert truth.change_points == [780, 900]

    def test_csv_round_trip(self):
        series, _ = generate(day_profile(seed=6))
        buf = io.StringIO()
        serialize_epoch_csv(series, buf)
        again = parse_epoch_csv(buf.getvalue())
        assert epochs_of(again) == epochs_of(series)


class TestProfileValidation:
    def test_sleep_block_too_short(self):
        with pytest.raises(InvalidProfile):
            generate(DayProfile(schedule=(ActivityBlock("sleep", 15),)))

    def test_sixteen_minutes_is_enough(self):
        series, truth = generate(
            DayProfile(
                schedule=(ActivityBlock("sleep", 16), ActivityBlock("sedentary", 60))
            )
        )
        detected = detect_sleep_periods(candidate_mask(series))
        assert detected[0].onset_index == truth.periods[0].onset_index

    def test_adjacent_sleep_blocks_rejected(self):
        with pytest.raises(InvalidProfile):
            generate(
                DayProfile(schedule=(ActivityBlock("sleep", 100), ActivityBlock("sleep", 100)))
            )

    def test_short_awake_between_sleeps_rejected(self):
        with pytest.raises(InvalidProfile):
            generate(
                DayProfile(
                    schedule=(
                        ActivityBlock("sleep", 100),
                        ActivityBlock("sedentary", 20),
                        ActivityBlock("sleep", 100),
                    )
                )
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidProfile):
            generate(DayProfile(schedule=(ActivityBlock("napping", 100),)))

    def test_bad_noise_rejected(self):
        with pytest.raises(InvalidProfile):
            generate(day_profile(noise=1.5))

    def test_start_without_utc_offset_rejected(self):
        # a JSON start is read by the epoch CSV timestamp rule; a datetime by generate
        schedule = [{"mode": "sleep", "duration_min": 100}, {"mode": "sedentary", "duration_min": 60}]
        with pytest.raises(InvalidProfile) as caught:
            profile_from_dict({"start": "2014-09-01T00:00:00", "schedule": schedule})
        assert str(caught.value) == "start: timestamp '2014-09-01T00:00:00' has no UTC offset"
        profile = replace(profile_from_dict({"schedule": schedule}), start=datetime(2014, 9, 1))
        with pytest.raises(InvalidProfile, match="UTC offset"):
            generate(profile)

    def test_counts_above_the_parse_ceiling_rejected(self):
        # the file would hold counts `rahar` refuses to read
        profile = DayProfile(
            schedule=(ActivityBlock("light", 60, mean_counts=(5e9, 1.0, 1.0)),), seed=3
        )
        with pytest.raises(InvalidProfile, match="ceiling"):
            generate(profile)


    def test_schedule_past_year_9999_rejected(self):
        # the CSV could not write its last timestamps
        profile = profile_from_dict(
            {"start": "9999-12-31T20:00:00+00:00",
             "schedule": [{"mode": "light", "duration_min": 600}]}
        )
        with pytest.raises(InvalidProfile, match="past the year 9999"):
            generate(profile)


class TestProfileJson:
    def test_round_trip(self, tmp_path):
        profile = day_profile(noise=0.02, seed=77)
        path = tmp_path / "p.json"
        save_profile(profile, path)
        again = load_profile(path)
        assert again == profile

    def test_defaults_applied(self):
        p = profile_from_dict(
            {"schedule": [{"mode": "sleep", "duration_min": 100},
                          {"mode": "sedentary", "duration_min": 60}]}
        )
        assert p.seed == 0 and p.noise == 0.0

    def test_bad_payload(self):
        with pytest.raises(InvalidProfile):
            profile_from_dict({"schedule": [{"mode": "sleep"}]})

    def test_dict_form_is_json_serializable(self):
        payload = profile_to_dict(day_profile())
        json.dumps(payload)

    # `int()` and `float()` would read each of these as a number
    @pytest.mark.parametrize("top, block", [
        ({"seed": "1_0"}, {}), ({"seed": True}, {}), ({"noise": "0.1"}, {}),
        ({}, {"duration_min": "٦٠"}), ({}, {"duration_min": "60"}), ({}, {"duration_min": True}),
        ({}, {"dispersion": "5_0"}), ({}, {"mean_steps": "40"}),
        ({}, {"mean_counts": ["1_0", 2, 3]}), ({}, {"mean_counts": [True, 2, 3]}),
    ])
    def test_numbers_are_json_numbers(self, tmp_path, capsys, top, block):
        payload = {**top, "schedule": [{"mode": "light", "duration_min": 60, **block}]}
        with pytest.raises(InvalidProfile, match="expected a number"):
            profile_from_dict(payload)
        path, out = tmp_path / "p.json", tmp_path / "p.csv"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["synth", "--profile", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("top, block, place", [
        ({}, {"dispersion": "5_0"}, "schedule[2].dispersion"),
        ({"noise": "5_0"}, {}, "noise"),
    ])
    def test_bad_value_names_its_place(self, tmp_path, capsys, top, block, place):
        schedule = [{"mode": "sleep", "duration_min": 100}, {"mode": "light", "duration_min": 60}]
        payload = {**top, "schedule": [*schedule, {"mode": "light", "duration_min": 60, **block}]}
        message = f"{place}: expected a number, got '5_0'"
        with pytest.raises(InvalidProfile) as caught:
            profile_from_dict(payload)
        assert str(caught.value) == message
        path, out = tmp_path / "p.json", tmp_path / "p.csv"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["synth", "--profile", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"profile error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ([], "profile: expected an object, got []"),
        ({}, "schedule: missing"),
        ({"schedule": {}}, "schedule: expected a list of blocks, got {}"),
        ({"schedule": [{"mode": "sleep", "duration_min": 9}, 5]},
         "schedule[1]: expected an object, got 5"),
        ({"schedule": [{"mode": "sleep"}]}, "schedule[0].duration_min: missing"),
        ({"schedule": [{"duration_min": 9}]}, "schedule[0].mode: missing"),
        ({"start": 5, "schedule": []}, "start: expected a timestamp string, got 5"),
        ({"start": "2014-09-01T00:00:00+05:60", "schedule": []},
         "start: bad timestamp '2014-09-01T00:00:00+05:60'"),
        ({"schedule": [{"mode": "light", "duration_min": 60, "mean_counts": 5}]},
         "schedule[0].mean_counts: expected a list of numbers, got 5"),
    ])
    def test_bad_shape_names_its_place(self, payload, message):
        with pytest.raises(InvalidProfile) as caught:
            profile_from_dict(payload)
        assert str(caught.value) == message

    def test_whole_valued_float_is_a_whole_number(self):
        p = profile_from_dict({"seed": 7.0, "schedule": [{"mode": "light", "duration_min": 60.0}]})
        assert (p.seed, p.schedule[0].duration_min) == (7, 60)
