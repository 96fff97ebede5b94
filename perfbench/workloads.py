"""Seeded synthetic workloads with planted truth.

Every workload is a list of recordings built from ``rahar.synth`` day
profiles, so each recording keeps the ``GroundTruth`` of its generator.
For ``naps`` and ``polyphasic`` the seed only shuffles fixed pools of
block lengths and draws the counts: the multiset of span lengths and
block structures, and so the amount of work, is the same for every seed.
That keeps run time comparable across seeds while the inputs still differ.

``fortnight``  the criterion-10 recording (profile seed 1406) whatever the
               seed, byte-identical to ``rahar synth --profile`` on the
               criterion-10 profile, so its figures are the north-star ones.
               13 awake spans of L=960: the change-point kernel dominates.
``naps``       12 recordings x 4 days of a night plus 4 naps; 228 awake
               spans of 60-448 epochs with 1-3 planted blocks.  Many small
               spans: per-permutation overhead matters more than the L^2 scan.
``polyphasic`` 32 recordings of 62 sleep bouts; every awake span is shorter
               than 2*min_segment, so change points are bypassed and the
               per-epoch Python layers and the models dominate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from rahar.ingest import EpochSeries, serialize_epoch_csv
from rahar.synth import ActivityBlock, DayProfile, GroundTruth, generate

# CLI defaults the workloads are built around; the runs pass none of these
MIN_SEGMENT = 30
FOLDS = 5
EFFICIENCY_THRESHOLD = 0.85
AWAKENING_GAP = 30
CLI_SEED = 7

CRITERION_10_SEED = 1406
# SHA-256 of `rahar synth --profile` on the criterion-10 profile
CRITERION_10_SHA256 = "ceabdf6109429fb4f393680687fc0a718ae25c10fabceed1a7e4f3f6af0de365"
NOISE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    model: str | None  # the --model the CLI run uses
    why: str

    def cli_args(self) -> list[str]:
        args = ["--seed", str(CLI_SEED)]
        return args + ["--model", self.model] if self.model else args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fortnight",
            None,
            "criterion-10 fortnight, 13 awake spans of L=960: loads the changepoint "
            "permutation kernel (large L, memory bound); ingest under 1%",
        ),
        Workload(
            "naps",
            "adaboost",
            "228 awake spans of 60-447 epochs: loads changepoint with many small "
            "cache-resident spans, where per-permutation overhead dominates; adaboost CV",
        ),
        Workload(
            "polyphasic",
            "rf",
            "~297k epochs, every awake span < 2*min_segment so changepoint is bypassed: "
            "loads ingest, cutpoints, sleep and the pure-Python rf models",
        ),
    )
}


@dataclass
class Recording:
    name: str
    profile: DayProfile
    truth: GroundTruth
    series: EpochSeries


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def _profile_seed(seed: int, workload: str, k: int) -> int:
    return int(_rng(seed, f"{workload}:{k}").integers(0, 2**31))


def _spaced(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly spread over [lo, hi]."""
    return [lo + (i * (hi - lo)) // max(n - 1, 1) for i in range(n)]


def _awake_blocks(lengths: list[int], modes: list[str]) -> list[ActivityBlock]:
    return [ActivityBlock(m, n) for m, n in zip(modes, lengths)]


def _naps_span(i: int, length: int) -> list[ActivityBlock]:
    """Pool entry i: 1-3 blocks of >= MIN_SEGMENT; 2 in 5 end sedentary."""
    k = min(1 + i % 3, length // MIN_SEGMENT)
    wind_down = i % 5 in (1, 3)
    if wind_down:
        k = max(k, 2)
        modes = [("light", "moderate")[(i // 5) % 2], "sedentary"]
        if k == 3:
            modes = ["sedentary", *modes]
    else:
        modes = [["light"], ["sedentary", "light"], ["sedentary", "light", "moderate"]][k - 1]
        if (i // 5) % 2:
            modes = [{"light": "moderate", "moderate": "light"}.get(m, m) for m in modes]
    cuts = [(length * j) // k for j in range(k + 1)]
    return _awake_blocks([b - a for a, b in zip(cuts, cuts[1:])], modes)


def _polyphasic_span(i: int, length: int) -> list[ActivityBlock]:
    """Pool entry i: two blocks; 7 in 25 end in a sedentary wind-down of >= 15."""
    if i % 25 < 7:
        wind = 15 + i % (length - 15)
        return _awake_blocks([length - wind, wind], [("light", "moderate")[i % 2], "sedentary"])
    head = 5 + i % 10
    return _awake_blocks([head, length - head], ["sedentary", ("light", "moderate")[i % 2]])


def fortnight_profiles(seed: int) -> list[tuple[str, DayProfile]]:
    """The criterion-10 fortnight; the one fixed recording, so ``seed`` is unused."""
    day = (
        ActivityBlock("sleep", 480),
        ActivityBlock("sedentary", 420),
        ActivityBlock("light", 300),
        ActivityBlock("moderate", 240),
    )
    return [("fortnight", DayProfile(schedule=day * 14, noise=NOISE, seed=CRITERION_10_SEED))]


def naps_profiles(seed: int, recordings: int = 12, days: int = 4) -> list[tuple[str, DayProfile]]:
    rng = _rng(seed, "naps")
    n_spans = recordings * days * 5 - recordings  # the trailing span of each is not analyzed
    spans = [_naps_span(i, n) for i, n in enumerate(
        round(60 * 7.5 ** ((i + 0.5) / n_spans)) for i in range(n_spans)
    )]
    spans = [spans[j] for j in rng.permutation(n_spans)]
    nights = rng.permutation(_spaced(400, 480, recordings * days))
    naps = rng.permutation(_spaced(20, 40, recordings * days * 4))
    out = []
    for r in range(recordings):
        schedule: list[ActivityBlock] = []
        for d in range(days):
            schedule.append(ActivityBlock("sleep", int(nights[r * days + d])))
            for n in range(4):
                schedule += spans.pop()
                schedule.append(ActivityBlock("sleep", int(naps[(r * days + d) * 4 + n])))
            schedule += spans.pop() if d < days - 1 else _naps_span(0, 120)
        out.append((f"naps{r:02d}", DayProfile(tuple(schedule), NOISE, _profile_seed(seed, "naps", r))))
    return out


def polyphasic_profiles(seed: int, recordings: int = 32, cycles: int = 62) -> list[tuple[str, DayProfile]]:
    rng = _rng(seed, "polyphasic")
    n_spans = recordings * (cycles - 1)  # the trailing span of each is not analyzed
    spans = [_polyphasic_span(i, 30 + i % 30) for i in range(n_spans)]
    spans = [spans[j] for j in rng.permutation(n_spans)]
    bouts = rng.permutation(_spaced(60, 150, recordings * cycles))
    out = []
    for r in range(recordings):
        schedule: list[ActivityBlock] = []
        for c in range(cycles):
            schedule.append(ActivityBlock("sleep", int(bouts[r * cycles + c])))
            schedule += spans.pop() if c < cycles - 1 else _polyphasic_span(7, 45)
        out.append(
            (f"poly{r:02d}", DayProfile(tuple(schedule), NOISE, _profile_seed(seed, "polyphasic", r)))
        )
    return out


PROFILES = {
    "fortnight": fortnight_profiles,
    "naps": naps_profiles,
    "polyphasic": polyphasic_profiles,
}


def build(workload: str, seed: int, **shape) -> list[Recording]:
    """Generate every recording of the workload, with its planted truth."""
    recordings = []
    for name, profile in PROFILES[workload](seed, **shape):
        series, truth = generate(profile)
        recordings.append(Recording(name, profile, truth, series))
    return recordings


def write_csv(recording: Recording, path) -> None:
    """Write the epoch CSV exactly as `rahar synth` does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        serialize_epoch_csv(recording.series, fh)


# --- what the planted truth implies ------------------------------------------


@dataclass(frozen=True)
class SegmentTruth:
    """One sleep-wake segment as the planted schedule defines it."""

    awake_start: int
    awake_end: int
    sleep_epochs: int
    wind_down: int  # sedentary epochs right before onset (the sleep latency)
    first: bool

    @property
    def awake_epochs(self) -> int:
        return self.awake_end - self.awake_start

    @property
    def efficiency(self) -> float:
        return (self.sleep_epochs - self.wind_down) / (self.sleep_epochs + self.wind_down)

    @property
    def is_row(self) -> bool:
        return not self.first and self.awake_epochs > 0

    @property
    def poor(self) -> bool:
        return self.efficiency < EFFICIENCY_THRESHOLD


def schedule_of(profile: DayProfile) -> list[tuple[int, int, str]]:
    """(start, end, mode) per block, as GroundTruth.mode_schedule has it."""
    out, cursor = [], 0
    for b in profile.schedule:
        out.append((cursor, cursor + b.duration_min, b.mode))
        cursor += b.duration_min
    return out


def segments_of(schedule: list[tuple[int, int, str]]) -> list[SegmentTruth]:
    """Segments the pipeline must find: one per sleep block that is not truncated."""
    total = schedule[-1][1]
    segments, prev_awakening = [], None
    for i, (start, end, mode) in enumerate(schedule):
        if mode != "sleep":
            continue
        truncated = total - end < AWAKENING_GAP
        if not truncated:
            before = schedule[i - 1] if i > 0 and schedule[i - 1][2] != "sleep" else None
            wind_down = 0
            if before and before[2] == "sedentary":
                ahead = schedule[i - 2] if i > 1 else None
                if ahead is None or ahead[2] in ("sleep", "sedentary"):
                    # the latency run would reach into the previous sleep
                    raise ValueError(f"sedentary block at {before[0]} must follow an active block")
                wind_down = before[1] - before[0]
            awake_start = 0 if prev_awakening is None else prev_awakening + 1
            segments.append(SegmentTruth(awake_start, start, end - start, wind_down, prev_awakening is None))
        prev_awakening = end - 1
    return segments


def checkable_boundaries(schedule: list[tuple[int, int, str]]) -> list[int]:
    """Planted boundaries between distinct awake modes with >= MIN_SEGMENT on both sides."""
    out = []
    for (a0, a1, m0), (b0, b1, m1) in zip(schedule, schedule[1:]):
        if "sleep" in (m0, m1) or m0 == m1:
            continue
        if a1 - a0 >= MIN_SEGMENT and b1 - b0 >= MIN_SEGMENT:
            out.append(b0)
    return out
