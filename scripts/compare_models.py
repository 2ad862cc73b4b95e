#!/usr/bin/env python3
"""Benchmark the four duration-regressor families on one synthetic dataset.

Each family runs with its reference hyperparameter configuration (the
``--grid full`` preset of ``orsched train``) on an identical preprocessing
pipeline and stratified 80/20 split, next to the two historical-mean
baselines. Prints held-out MAE / RMSE / R^2 per model.

Example:
    python scripts/compare_models.py --rows 5000 --seed 0
"""

import argparse
import time

from orsched.cli import GRID_PRESETS
from orsched.ingest import SyntheticConfig, generate_synthetic_dataset, preprocess
from orsched.predict import (
    baseline_mean_estimator,
    encode_features,
    fit,
    predict,
    regression_metrics,
    stratified_split,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=5000)
    parser.add_argument("--noise", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    records = generate_synthetic_dataset(SyntheticConfig(n_rows=args.rows, noise=args.noise), seed=args.seed)
    clean, log = preprocess(records, seed=args.seed)
    X, y, _ = encode_features(clean)
    train, test = stratified_split(y, test_fraction=0.2, n_bins=10, seed=args.seed)
    print(
        f"{len(clean.records)} rows after preprocessing "
        f"({log.stages[-1].features_out} features kept), train {len(train)} / test {len(test)}\n"
    )

    print(f"{'model':<16}{'MAE (min)':>10}{'RMSE (min)':>12}{'R2':>8}{'fit (s)':>9}")
    for spec in GRID_PRESETS["full"]:
        start = time.monotonic()
        model = fit(spec, X[train], y[train], seed=args.seed)
        elapsed = time.monotonic() - start
        report = regression_metrics(y[test], predict(model, X[test]))
        print(f"{spec.family:<16}{report.mae:>10.2f}{report.rmse:>12.2f}{report.r2:>8.2f}{elapsed:>9.1f}")

    for key, label in (("department", "dept mean"), ("procedure_type", "procedure mean")):
        est = baseline_mean_estimator(clean.records, key, train.tolist())
        report = regression_metrics(y[test], est.estimates(clean.records, test.tolist()))
        print(f"{label:<16}{report.mae:>10.2f}{report.rmse:>12.2f}{report.r2:>8.2f}{'-':>9}")


if __name__ == "__main__":
    main()
