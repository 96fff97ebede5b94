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

__version__ = "0.1.0"

# the model kinds, in the order of --model's choices: rahar.models.validation
# gives each its trainer, and the CLI reads them without importing rahar.models
MODEL_KINDS = ("logreg", "adaboost", "rf")

# the synth names, imported at first use: no pipeline command needs them
_SYNTH = ("ActivityBlock", "DayProfile", "generate")


def __getattr__(name: str):
    if name not in _SYNTH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synth

    return getattr(synth, name)
