"""Predict sleep quality from pre-sleep activity composition, end to end.

Generates a three-week synthetic study where days with long sedentary
wind-downs sleep poorly (all latency) and active days sleep well, runs
the full pipeline (sleep detection -> segmentation -> change points ->
modes -> features), then cross-validates the three native classifiers
and prints the usual evaluation table.
"""

from rahar import ActivityBlock, DayProfile, generate
from rahar.models import cross_validate
from rahar.pipeline import PipelineConfig, add_change_points, analyze_sleep, pooled_dataset

# Two day archetypes.  Sleep efficiency here is driven by latency:
# eff = (dur - latency) / (dur + latency), so the lazy day's 150-minute
# sedentary run before bed lands well under the 0.85 threshold.
active_day = (
    ActivityBlock("sleep", 450),
    ActivityBlock("sedentary", 240),
    ActivityBlock("moderate", 360),
    ActivityBlock("light", 360),
    ActivityBlock("sedentary", 30),
)
lazy_day = (
    ActivityBlock("sleep", 450),
    ActivityBlock("light", 240),
    ActivityBlock("sedentary", 600),
    ActivityBlock("sedentary", 150),
)

schedule = []
for day in range(21):
    schedule.extend(active_day if day % 2 == 0 else lazy_day)
profile = DayProfile(schedule=tuple(schedule), noise=0.03, seed=99)

series, _ = generate(profile)
print(f"study: {len(series)} epochs ({len(series) // 1440} days)")

config = PipelineConfig(seed=5)
analysis = analyze_sleep("study", series, config)
add_change_points([analysis], config)
print(f"sleep periods detected: {len(analysis.periods)}")

dataset = pooled_dataset([analysis], config)
good = int(dataset.y.sum())
print(f"modeling dataset: {len(dataset)} sleep-wake segments "
      f"({good} good / {len(dataset) - good} poor efficiency)\n")

print(f"{'model':<10} {'AU-ROC':>8} {'F1':>8} {'Recall':>8} {'Precision':>10} "
      f"{'Accuracy':>9} {'Sens':>7} {'Spec':>7}")
for kind in ("logreg", "adaboost", "rf"):
    result = cross_validate(dataset.X, dataset.y, kind, folds=5, seed=5)
    p = result.pooled
    print(f"{kind:<10} {p.auc:>8.4f} {p.f1:>8.4f} {p.recall:>8.4f} {p.precision:>10.4f} "
          f"{p.accuracy:>9.4f} {p.sensitivity:>7.4f} {p.specificity:>7.4f}")

print(
    "\nThe awake-time mode fractions separate the two day archetypes, so all "
    "three models rank the held-out segments near-perfectly.  With real "
    "cohorts, export dataset.csv and compare against external tools as well."
)
