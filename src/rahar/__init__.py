"""rahar: robust automated activity recognition for actigraphy sleep research.

The pipeline turns minute-epoch actigraphy into sleep-quality predictions:

1.  ingest epoch CSVs and validate the time grid (:mod:`rahar.ingest`);
2.  label epoch intensity by cut points (:mod:`rahar.cutpoints`);
3.  detect sleep periods and clinical metrics (:mod:`rahar.sleep`);
4.  split into sleep-wake segments (:mod:`rahar.segments`);
5.  find activity-mode boundaries by energy-statistic divisive
    change-point detection (:mod:`rahar.changepoint`);
6.  label modes and extract awake-time fractions
    (:mod:`rahar.modes`, :mod:`rahar.features`);
7.  train and evaluate native classifiers (:mod:`rahar.models`).

:mod:`rahar.synth` generates seeded recordings with planted ground truth,
and :mod:`rahar.cli` orchestrates everything from the command line.
"""

from .changepoint import EnergyParams, PermutationConfig, best_split, e_divisive, energy_divergence
from .cutpoints import IntensityLevel, builtin_troiano_scale, classify_series
from .ingest import parse_epoch_csv, validate_series
from .modes import label_intervals
from .segments import segment_sleep_wake
from .sleep import candidate_mask, compute_metrics, detect_sleep_periods
from .synth import ActivityBlock, DayProfile, generate

__version__ = "0.1.0"
