"""Sleep-wake segmentation.

The recording is split by the end of each sleep period rather than by
calendar day, so polyphasic sleepers produce several segments per day.
Each non-truncated sleep period is linked to the awake span preceding
it, extending back to the previous period's awakening (or to the start
of the recording for the first segment, which is flagged because its
awake exposure is censored).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import EpochSeries
from .sleep import SleepMetrics, SleepPeriod


@dataclass(frozen=True)
class SleepWakeSegment:
    """An awake span [awake_start, awake_end) paired with the sleep that follows it."""

    awake_start_index: int
    awake_end_index: int  # exclusive; always equals sleep.onset_index
    sleep: SleepPeriod
    metrics: SleepMetrics
    first_segment: bool = False
    empty_awake: bool = False

    @property
    def awake_epochs(self) -> int:
        return self.awake_end_index - self.awake_start_index


def segment_sleep_wake(
    series: EpochSeries,
    periods: list[SleepPeriod],
    metrics: list[SleepMetrics],
) -> list[SleepWakeSegment]:
    """One segment per non-truncated period, tiling the recording in order.

    Zero-length awake spans (onset immediately after the previous
    awakening, or a recording that starts asleep) are kept but flagged
    ``empty_awake`` so feature extraction can skip them.
    """
    if len(periods) != len(metrics):
        raise ValueError("periods and metrics must align")
    n = len(series)
    segments: list[SleepWakeSegment] = []
    prev_awakening: int | None = None
    for period, m in zip(periods, metrics):
        if period.awakening_index >= n:
            raise ValueError("period out of series bounds")
        if period.truncated:
            prev_awakening = period.awakening_index
            continue
        awake_start = 0 if prev_awakening is None else prev_awakening + 1
        awake_end = period.onset_index
        segments.append(
            SleepWakeSegment(
                awake_start_index=awake_start,
                awake_end_index=awake_end,
                sleep=period,
                metrics=m,
                first_segment=prev_awakening is None,
                empty_awake=awake_start == awake_end,
            )
        )
        prev_awakening = period.awakening_index
    return segments


def segment_id(recording: str, k: int) -> str:
    """Id of a recording's k-th segment in every report and the dataset: ``name:kkk``."""
    return f"{recording}:{k:03d}"


def segment_manifest_rows(segments: list[SleepWakeSegment], recording: str) -> list[list]:
    """Rows for the segment manifest CSV: id, bounds, efficiency, flags."""
    rows = []
    for k, seg in enumerate(segments):
        flags = []
        if seg.first_segment:
            flags.append("first_segment")
        if seg.empty_awake:
            flags.append("empty_awake")
        if seg.sleep.truncated:
            flags.append("truncated")
        rows.append(
            [
                segment_id(recording, k),
                seg.awake_start_index,
                seg.awake_end_index,
                seg.sleep.onset_index,
                seg.sleep.awakening_index,
                repr(seg.metrics.efficiency),
                ";".join(flags),
            ]
        )
    return rows
