"""Prediction pipeline around the regressors: feature encoding, stratified
splitting, regression metrics, cross-validated grid search, APE-based
confidence levels, historical-mean baselines, and the model artifact format.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from orsched.core import write_csv_rows
from orsched.ingest import CleanDataset, RecordTable
from orsched.regressors import FAMILIES, FittedModel, ModelSpec, fit, predict  # noqa: F401  (re-exported)

#: Columns never used as features: identifiers plus every intra-operative
#: timestamp (the duration is exactly exit minus entry, so these leak the
#: target into training).
EXCLUDED_FEATURE_COLUMNS = frozenset(
    {
        "PROGRESSIVO",
        "NOSOLOGICO",
        "INGRESSOSALA",
        "USCITASALA",
        "INGRESSOBLOCCOOP",
        "USCITABLOCCOOP",
        "PREPARAZIONEPAZIENTE",
        "INIZIOANESTESIA",
        "INIZIOINTERVENTO",
        "FINEINTERVENTO",
        "FINEASSANESTINSALA",
    }
)

UNSEEN_CATEGORY = -1


class PredictError(Exception):
    pass


@dataclass
class FeatureEncoder:
    """Deterministic mapping from raw records to a numeric feature matrix.

    Categorical columns get ordinal codes by first appearance in the training
    data (unseen values map to a reserved code); timestamp columns decompose
    into hour and weekday.
    """

    numeric_columns: list[str] = field(default_factory=list)
    timestamp_columns: list[str] = field(default_factory=list)
    categorical_columns: list[str] = field(default_factory=list)
    categories: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def feature_names(self) -> list[str]:
        names = list(self.numeric_columns)
        for col in self.timestamp_columns:
            names += [f"{col}__hour", f"{col}__weekday"]
        names += list(self.categorical_columns)
        return names

    def transform(self, table: RecordTable, rows: Sequence[int] | None = None) -> np.ndarray:
        """The feature matrix of the table's ``rows`` (all by default), in their order."""
        if rows is not None:
            table = table.take(rows, [*self.numeric_columns, *self.timestamp_columns, *self.categorical_columns])
        out = np.zeros((len(table), len(self.feature_names)), dtype=float)
        j = 0
        for col in self.numeric_columns:
            out[:, j] = [float(v) if isinstance(v, (int, float)) else 0.0 for v in table.column(col)]
            j += 1
        for col in self.timestamp_columns:
            stamps = [v if isinstance(v, datetime) else None for v in table.column(col)]
            out[:, j] = [0 if v is None else v.hour for v in stamps]
            out[:, j + 1] = [0 if v is None else v.weekday() for v in stamps]
            j += 2
        for col in self.categorical_columns:
            codes, values = self.categories[col], table.column(col)
            keys = values if set(map(type, values)) <= {str} else [_category_key(v) for v in values]
            out[:, j] = list(map(codes.get, keys, itertools.repeat(UNSEEN_CATEGORY, len(keys))))
            j += 1
        return out


def _category_key(value: Any) -> str:
    return "" if value is None else str(value)


def encode_features(dataset: CleanDataset) -> tuple[np.ndarray, np.ndarray, FeatureEncoder]:
    """Encode a clean dataset into (features, target ``DURATA``, fitted encoder).

    Identifier and leakage columns are excluded; remaining columns are typed
    by inspection of their first populated value.
    """
    if "DURATA" not in dataset.kept_features:
        raise PredictError("target column 'DURATA' missing from dataset")
    table = dataset.records
    y = np.array([float(v) for v in table.column("DURATA")])
    if len(y) == 0:
        raise PredictError("empty dataset")
    if (y <= 0).any():
        raise PredictError("target must be positive minutes")

    encoder = FeatureEncoder()
    for col in dataset.kept_features:
        if col == "DURATA" or col in EXCLUDED_FEATURE_COLUMNS:
            continue
        sample = next((v for v in table.column(col) if v is not None), None)
        if isinstance(sample, datetime):
            encoder.timestamp_columns.append(col)
        elif isinstance(sample, (int, float)) and not isinstance(sample, bool):
            encoder.numeric_columns.append(col)
        else:
            encoder.categorical_columns.append(col)

    for col in encoder.categorical_columns:
        values = table.column(col)
        firsts = dict.fromkeys(values if set(map(type, values)) <= {str} else map(_category_key, values))
        encoder.categories[col] = dict(zip(firsts, range(len(firsts))))

    return encoder.transform(table), y, encoder


# ---------------------------------------------------------------------------
# splitting and metrics


def stratified_split(
    y: np.ndarray,
    test_fraction: float = 0.2,
    n_bins: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the indices of ``y`` preserving the target distribution.

    Targets are bucketed into quantile bins; each bin contributes its rounded
    share to the test set, none for a bin of one or two samples at 0.2.
    """
    n = len(y)
    if not 1 <= n_bins <= n:
        raise PredictError(f"need 1 <= n_bins <= n, got n_bins={n_bins}, n={n}")
    edges = np.quantile(y, np.linspace(0, 1, n_bins + 1))[1:-1]
    bins = np.searchsorted(edges, y, side="right")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for b in np.unique(bins):
        members = np.flatnonzero(bins == b)
        rng.shuffle(members)
        n_test = int(round(test_fraction * len(members))) if len(members) >= 2 else 0
        test.extend(members[:n_test])
        train.extend(members[n_test:])
    return np.array(sorted(train), dtype=np.intp), np.array(sorted(test), dtype=np.intp)


@dataclass(frozen=True)
class MetricsReport:
    """Mean absolute error, root mean squared error, and the coefficient of
    determination (None when the target is constant)."""

    mae: float
    rmse: float
    r2: float | None


def regression_metrics(y: Sequence[float], yhat: Sequence[float]) -> MetricsReport:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or len(y) == 0:
        raise PredictError(f"need equal nonzero lengths, got {y.shape} and {yhat.shape}")
    err = y - yhat
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = None if ss_tot == 0 else 1.0 - float((err**2).sum()) / ss_tot
    return MetricsReport(mae=mae, rmse=rmse, r2=r2)


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class CvResult:
    spec: ModelSpec
    mean_mae: float
    mean_rmse: float


def grid_search_cv(
    grid: Sequence[ModelSpec],
    X: np.ndarray,
    y: np.ndarray,
    k_folds: int = 5,
    seed: int = 0,
) -> tuple[ModelSpec, list[CvResult]]:
    """Evaluate every spec on one shared seeded k-fold partition.

    Best spec: lowest mean fold MAE, ties broken by lower mean RMSE, then by
    grid order.
    """
    if not grid:
        raise PredictError("empty grid")
    if k_folds < 2:
        raise PredictError("k_folds must be >= 2")
    n = len(y)
    if n < k_folds:
        raise PredictError(f"need at least k_folds={k_folds} samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k_folds)
    fit_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k_folds)]

    results: list[CvResult] = []
    for spec in grid:
        maes, rmses = [], []
        for fold_idx, fold in enumerate(folds):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            model = fit(spec, X[mask], y[mask], seed=fit_seeds[fold_idx])
            report = regression_metrics(y[fold], predict(model, X[fold]))
            maes.append(report.mae)
            rmses.append(report.rmse)
        results.append(CvResult(spec, float(np.mean(maes)), float(np.mean(rmses))))
    best_idx = min(range(len(grid)), key=lambda i: (results[i].mean_mae, results[i].mean_rmse, i))
    return grid[best_idx], results


# ---------------------------------------------------------------------------
# confidence levels


def ape(y_true: float, y_pred: float) -> float:
    """Absolute percentage error of one prediction."""
    if y_true <= 0:
        raise PredictError(f"APE needs a positive actual value, got {y_true}")
    return abs(y_pred - y_true) / y_true * 100.0


def confidence_level(ape_percent: float) -> int:
    """Bucket a percentage error: <10 High (1), [10,25) Moderate (2),
    [25,50) Low (3), >=50 Very Low (4)."""
    if ape_percent < 10.0:
        return 1
    if ape_percent < 25.0:
        return 2
    if ape_percent < 50.0:
        return 3
    return 4


# ---------------------------------------------------------------------------
# historical-mean baselines

_BASELINE_COLUMNS = {"department": "REPARTO", "procedure_type": "ICD1"}


@dataclass(frozen=True)
class BaselineEstimator:
    """Mean historical duration per key value, with a global-mean fallback."""

    key: str
    column: str
    means: Mapping[str, float]
    global_mean: float

    def estimate(self, key_value: Any) -> float:
        return self.means.get(_category_key(key_value), self.global_mean)

    def estimates(self, table: RecordTable, rows: Sequence[int]) -> list[float]:
        """The estimate of each of the table's ``rows``, in their order."""
        values = table.column(self.column)
        return [self.estimate(values[i]) for i in rows]


def baseline_mean_estimator(table: RecordTable, key: str, rows: Sequence[int] | None = None) -> BaselineEstimator:
    """The means of the table's ``rows`` (all by default)."""
    if key not in _BASELINE_COLUMNS:
        raise PredictError(f"key must be one of {sorted(_BASELINE_COLUMNS)}, got {key!r}")
    column = _BASELINE_COLUMNS[key]
    keys, durations = table.column(column), table.column("DURATA")
    rows = range(len(table)) if rows is None else rows
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    total = 0.0
    for i in rows:
        value = _category_key(keys[i])
        duration = float(durations[i])
        sums[value] = sums.get(value, 0.0) + duration
        counts[value] = counts.get(value, 0) + 1
        total += duration
    if not len(rows):
        raise PredictError("baseline needs at least one record")
    means = {v: sums[v] / counts[v] for v in sums}
    return BaselineEstimator(key, column, means, total / len(rows))


# ---------------------------------------------------------------------------
# model artifact and prediction files

ARTIFACT_VERSION = 1


def save_model(
    model: FittedModel,
    encoder: FeatureEncoder,
    path: str | Path,
    baselines: Iterable[BaselineEstimator] = (),
) -> None:
    payload = {
        "format_version": ARTIFACT_VERSION,
        "family": model.family,
        "hyperparameters": model.hyperparameters,
        "structure": model.structure,
        "encoder": vars(encoder),
        "baselines": {b.key: vars(b) for b in baselines},
    }
    # a fresh acyclic tree: skipping the encoder's cycle check writes the same bytes
    Path(path).write_text(json.dumps(payload, check_circular=False), encoding="utf-8")


def load_model(path: str | Path) -> tuple[FittedModel, FeatureEncoder, dict[str, BaselineEstimator]]:
    """Read a ``save_model`` artifact; raises ``PredictError`` naming the
    file and the JSON error's line, the missing top-level key, the unknown
    family or the wrong version. The keys and values ``predict`` reads are
    checked where the model is applied."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        if data["format_version"] != ARTIFACT_VERSION:
            raise PredictError(f"{path}: key 'format_version': unsupported artifact version {data['format_version']!r}")
        if data["family"] not in FAMILIES:
            raise PredictError(f"{path}: key 'family': unknown model family {data['family']!r}")
        model = FittedModel(data["family"], data["hyperparameters"], data["structure"])
        encoder = FeatureEncoder(**data["encoder"])
        baselines = {k: BaselineEstimator(**v) for k, v in data.get("baselines", {}).items()}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PredictError(f"{path}: not a JSON model artifact: {exc}") from None
    except KeyError as exc:
        raise PredictError(f"{path}: key {exc.args[0]!r} missing") from None
    except (AttributeError, TypeError) as exc:
        raise PredictError(f"{path}: not a model artifact: {exc}") from None
    return model, encoder, baselines


def write_predictions_csv(
    ids: Sequence[str],
    y: Sequence[float],
    yhat: Sequence[float],
    path: str | Path,
) -> None:
    """Per-sample prediction file: id, actual, predicted, APE, confidence."""
    rows = []
    for rid, actual, pred in zip(ids, y, yhat):
        err = ape(float(actual), float(pred))
        rows.append([rid, actual, f"{pred:.3f}", f"{err:.3f}", confidence_level(err)])
    write_csv_rows(path, ["id", "y", "yhat", "ape", "confidence"], rows)
