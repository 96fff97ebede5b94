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

from .changepoint import (
    ChangePoint,
    ChangePointSet,
    EnergyParams,
    PermutationConfig,
    best_split,
    e_divisive,
    energy_divergence,
    permutation_test,
)
from .cutpoints import (
    CutPointScale,
    IntensityLevel,
    builtin_troiano_scale,
    classify_series,
    load_scale_file,
    make_scale,
)
from .features import (
    Dataset,
    DatasetFilters,
    FeatureVector,
    Quality,
    TargetLabel,
    build_dataset,
    extract_features,
    label_target,
    raw_fractions,
    read_dataset_csv,
    write_dataset_csv,
)
from .ingest import (
    Epoch,
    EpochSeries,
    Gap,
    Inclinometer,
    SubjectMeta,
    aggregate_epochs,
    fill_gaps,
    find_gaps,
    parse_epoch_csv,
    serialize_epoch_csv,
    validate_series,
)
from .modes import ActivityMode, label_intervals
from .segments import SleepWakeSegment, segment_sleep_wake
from .sleep import (
    CandidateConfig,
    SleepMetrics,
    SleepPeriod,
    SleepRules,
    TruncatedPolicy,
    candidate_mask,
    compute_latency,
    compute_metrics,
    compute_waso,
    detect_sleep_periods,
    sleep_report,
)
from .synth import ActivityBlock, DayProfile, GroundTruth, generate

__version__ = "0.1.0"
