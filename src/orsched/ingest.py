"""Historical-record ingestion: raw CSV parsing, the three-stage cleaning
pipeline (rare-diagnosis grouping, IQR outlier removal, correlated-feature
pruning), synthetic dataset generation for desk-scale experiments, and
problem-instance assembly from the scheduling input files.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from datetime import date, datetime, timedelta, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from orsched.core import (
    InputFileError,
    MssSlot,
    ProblemInstance,
    RecordTable,
    Registration,
    Shift,
    read_csv_table,
    read_week_file,
    validate_instance,
    write_csv_rows,
)

# Raw export schema. One row per surgical intervention.
RECORD_COLUMNS = (
    "PROGRESSIVO",
    "TIPORICOVERO",
    "SESSO",
    "ETA",
    "REPARTO",
    "PRES ANESTES",
    "STAMP",
    "CC",
    "CA",
    "ANESTLOC",
    "DIAGNOSI1",
    "DESCDIAGNOSI1",
    "INGRESSOSALA",
    "USCITASALA",
    "REGRICOVERO",
    "CHIRURGHI_1",
    "ICD1",
    "DESCICD1",
    "BLOCCO",
    "DATANASCITA",
    "NOSOLOGICO",
    "DATAINTERVENTO",
    "SALA",
    "TIPOANESTESIA",
    "INGRESSOBLOCCOOP",
    "PREPARAZIONEPAZIENTE",
    "INIZIOANESTESIA",
    "INIZIOINTERVENTO",
    "FINEINTERVENTO",
    "FINEASSANESTINSALA",
    "USCITABLOCCOOP",
    "DURATA",
)

TIMESTAMP_COLUMNS = frozenset(
    {
        "INGRESSOSALA",
        "USCITASALA",
        "DATANASCITA",
        "DATAINTERVENTO",
        "INGRESSOBLOCCOOP",
        "PREPARAZIONEPAZIENTE",
        "INIZIOANESTESIA",
        "INIZIOINTERVENTO",
        "FINEINTERVENTO",
        "FINEASSANESTINSALA",
        "USCITABLOCCOOP",
    }
)

INTEGER_COLUMNS = frozenset({"ETA", "DURATA"})


class IngestError(Exception):
    """Raised for unrecoverable data problems (empty survivors, bad schema)."""


@dataclass(frozen=True)
class CleanDataset:
    """Preprocessed records plus the surviving column names, in schema order."""

    records: RecordTable
    kept_features: list[str]


@dataclass
class StageLog:
    stage: str
    rows_in: int
    rows_out: int
    features_in: int
    features_out: int
    note: str = ""


@dataclass
class PreprocessLog:
    stages: list[StageLog] = field(default_factory=list)

    def add(self, stage: str, rows_in: int, rows_out: int, features_in: int, features_out: int, note: str = "") -> None:
        self.stages.append(StageLog(stage, rows_in, rows_out, features_in, features_out, note))


# ---------------------------------------------------------------------------
# parsing primitives


def derive_duration(entry_ts: datetime, exit_ts: datetime) -> int | None:
    """Whole minutes between OR entry and exit, a naive timestamp read as UTC
    when the other has a time zone; None rejects the record (zero or
    negative difference, a data-entry artefact)."""
    try:
        delta = exit_ts - entry_ts
    except TypeError:  # one is naive
        delta = exit_ts.replace(tzinfo=exit_ts.tzinfo or timezone.utc) - entry_ts.replace(tzinfo=entry_ts.tzinfo or timezone.utc)
    minutes = int(delta.total_seconds() // 60)
    return minutes if minutes >= 1 else None


# ---------------------------------------------------------------------------
# cleaning stages


def iqr_filter(values: Sequence[float], multiplier: float = 1.5) -> list[int]:
    """Indices of values inside the quartile fences.

    Quartiles use linear interpolation between order statistics, bit for
    bit as ``np.quantile``'s default method, whose first call would import
    ``numpy.ma``; the fence is [Q1 - m*IQR, Q3 + m*IQR] with IQR = Q3 - Q1.
    A NaN value keeps every index.
    """
    if len(values) == 0:
        raise IngestError("iqr_filter needs at least one value")
    arr = np.asarray(values, dtype=float)
    ordered = np.sort(arr).tolist()
    if math.isnan(ordered[-1]):
        return list(range(len(values)))
    q1, q3 = (_lerp_quantile(ordered, q) for q in (0.25, 0.75))
    span = multiplier * (q3 - q1)
    if not math.isfinite(span):
        return list(range(len(values)))
    return np.flatnonzero((q1 - span <= arr) & (arr <= q3 + span)).tolist()


def _lerp_quantile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of sorted values, as ``np.quantile`` interpolates."""
    at = (len(ordered) - 1) * q
    below = math.floor(at)
    g = at - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def kmeans(points: Sequence[Sequence[float]], k: int, seed: int) -> list[int]:
    """Lloyd's algorithm with deterministic farthest-point seeding.

    Seeding works on the lexicographically sorted points, so the labelling is
    invariant (up to permutation) under any reordering of the input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    if n == 0:
        raise IngestError("kmeans needs at least one point")
    if not 1 <= k <= n:
        raise IngestError(f"kmeans needs 1 <= k <= n, got k={k}, n={n}")

    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    rng = np.random.default_rng(seed)
    centers = [sorted_pts[rng.integers(n)]]
    while len(centers) < k:
        dists = np.min(
            [np.sum((sorted_pts - c) ** 2, axis=1) for c in centers], axis=0
        )
        centers.append(sorted_pts[int(np.argmax(dists))])
    centers = np.array(centers)

    labels: np.ndarray | None = None
    for _ in range(100):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    assert labels is not None
    return labels.tolist()


def group_rare_diagnoses(dataset: CleanDataset, max_clusters: int = 3, seed: int = 0) -> CleanDataset:
    """Replace each diagnosis occurring exactly once within its department by
    a synthetic group code shared with its nearest one-off neighbours.

    Rows are clustered per department on standardized (duration, age), an
    absent age read as 0; row count and every other column are untouched.
    """
    table = dataset.records
    diagnoses = list(table.column("DIAGNOSI1"))  # the regrouped column, the others are shared
    durations, ages = table.column("DURATA"), table.column("ETA")
    by_dept: dict[str, list[int]] = {}
    for i, dept in enumerate(table.column("REPARTO")):
        by_dept.setdefault(str(dept), []).append(i)

    for dept in sorted(by_dept):
        rows = by_dept[dept]
        counts: dict[str, int] = {}
        for i in rows:
            diag = str(diagnoses[i])
            counts[diag] = counts.get(diag, 0) + 1
        singles = [i for i in rows if counts[str(diagnoses[i])] == 1]
        if not singles:
            continue
        feats = np.array([[float(durations[i] or 0), float(ages[i] or 0)] for i in singles])
        mean, std = feats.mean(axis=0), feats.std(axis=0)
        std[std == 0] = 1.0
        k = min(max_clusters, len(singles))
        labels = kmeans((feats - mean) / std, k, seed=seed ^ zlib.crc32(dept.encode()))
        for i, label in zip(singles, labels):
            diagnoses[i] = f"RARE_{dept}_{label}"
    return CleanDataset(table.with_column("DIAGNOSI1", diagnoses), list(dataset.kept_features))


_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)


def _epoch_seconds(values: Sequence[datetime]) -> np.ndarray:
    """Seconds since 1970-01-01 UTC, a naive datetime read as UTC whatever
    the host's zone: ``calendar.timegm(v.utctimetuple()) + v.microsecond /
    1e6``, which is ``v.timestamp()`` on a UTC host."""
    deltas = [v - (_EPOCH if v.utcoffset() is None else _UTC_EPOCH) for v in values]
    seconds = np.array([d.days * 86400 + d.seconds for d in deltas], dtype=float)
    return seconds + np.array([d.microseconds for d in deltas], dtype=float) / 1e6


def _numeric_encoding(table: RecordTable, columns: Sequence[str]) -> np.ndarray:
    """Columns as floats: numbers pass through, timestamps become epoch
    seconds (``_epoch_seconds``), None becomes -1 and everything else gets
    ordinal codes by first appearance. Each column is converted as a whole
    by the types of its values; one that mixes kinds goes value by value."""
    matrix = np.zeros((len(table), len(columns)), dtype=float)
    for j, col in enumerate(columns):
        values = table.column(col)
        kinds = set(map(type, values))
        if kinds <= {int, float, bool}:
            matrix[:, j] = values
        elif kinds == {datetime}:
            matrix[:, j] = _epoch_seconds(values)
        elif kinds <= {str, type(None)}:
            firsts = dict.fromkeys(values)
            firsts.pop(None, None)
            codes = dict(zip(firsts, itertools.count()))
            codes[None] = -1
            matrix[:, j] = list(map(codes.__getitem__, values))
        else:
            codes = {}
            for i, v in enumerate(values):
                if isinstance(v, (int, float)):
                    matrix[i, j] = float(v)
                elif isinstance(v, datetime):
                    matrix[i, j] = _epoch_seconds([v])[0]
                elif v is None:
                    matrix[i, j] = -1.0
                else:
                    matrix[i, j] = codes.setdefault(v, len(codes))
    return matrix


def pearson_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations; constant columns correlate 0 with
    everything (their correlation is undefined, never a reason to drop)."""
    centered = matrix - matrix.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(norms == 0, 1.0, norms)
    corr = (centered.T @ centered) / np.outer(safe, safe)
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    return corr


def prune_correlated_features(matrix: np.ndarray, names: Sequence[str], threshold: float = 0.95) -> list[str]:
    """Greedy scan in column order: drop any feature whose absolute
    correlation with an already-kept feature exceeds the threshold."""
    if matrix.shape[0] < 2:
        raise IngestError("correlation pruning needs at least two rows")
    corr = np.abs(pearson_matrix(matrix))
    kept: list[int] = []
    for j in range(matrix.shape[1]):
        if all(corr[j, k] <= threshold for k in kept):
            kept.append(j)
    return [names[j] for j in kept]


def preprocess(
    table: RecordTable,
    seed: int = 0,
) -> tuple[CleanDataset, PreprocessLog]:
    """Full cleaning pipeline: duration derivation and non-positive removal,
    rare-diagnosis grouping, IQR filtering on the duration, then
    correlated-feature pruning. The columns are the schema's when the first
    row has all of them, else the first row's. Returns the clean dataset and
    a per-stage provenance log."""
    if not len(table):
        raise IngestError("no records to preprocess")
    first = list(table.columns)[: table.widths[0]]
    columns = list(RECORD_COLUMNS) if set(RECORD_COLUMNS) <= set(first) else first
    log = PreprocessLog()

    # duration target
    rows_in = len(table)
    keep: list[int] = []
    parse_errors = 0
    if "INGRESSOSALA" in columns and "USCITASALA" in columns:
        durations = []
        for i, (entry, exit_) in enumerate(zip(table.columns["INGRESSOSALA"], table.columns["USCITASALA"])):
            if not isinstance(entry, datetime) or not isinstance(exit_, datetime):
                parse_errors += 1
                continue
            minutes = derive_duration(entry, exit_)
            if minutes is not None:
                keep.append(i)
                durations.append(minutes)
        if "DURATA" not in columns:
            columns = columns + ["DURATA"]
    elif "DURATA" in columns:
        keep = [i for i, dur in enumerate(table.columns["DURATA"]) if isinstance(dur, int) and dur >= 1]
        durations = [table.columns["DURATA"][i] for i in keep]
    else:
        raise IngestError("cannot derive durations: missing columns INGRESSOSALA, USCITASALA (and no DURATA)")
    log.add(
        "derive_duration",
        rows_in,
        len(keep),
        len(columns),
        len(columns),
        note=f"{parse_errors} timestamp parse failures" if parse_errors else "",
    )
    if not keep:
        raise IngestError("no records survive duration derivation")

    # rare-diagnosis grouping
    survivors = table.take(None if len(keep) == len(table) else keep)
    dataset = CleanDataset(survivors.with_column("DURATA", durations), columns)
    n = len(keep)
    if "DIAGNOSI1" in columns and "REPARTO" in columns:
        grouped = group_rare_diagnoses(dataset, seed=seed)
        changed = sum(a != b for a, b in zip(dataset.records.columns["DIAGNOSI1"], grouped.records.columns["DIAGNOSI1"]))
        dataset = grouped
        log.add("group_rare_diagnoses", n, n, len(columns), len(columns), note=f"{changed} rows regrouped")
    else:
        log.add("group_rare_diagnoses", n, n, len(columns), len(columns), note="skipped: columns absent")

    # IQR outlier removal on the duration, iterated to a fixpoint: tail removal
    # shrinks the fences, so a single pass would leave re-runs with more work
    rows = list(range(n))
    passes = 0
    while rows:
        passes += 1
        kept_idx = iqr_filter([durations[i] for i in rows])
        if len(kept_idx) == len(rows):
            break
        rows = [rows[i] for i in kept_idx]
    log.add("iqr_filter", n, len(rows), len(columns), len(columns), note=f"{passes} passes to fixpoint")
    if not rows:
        raise IngestError("no records survive IQR filtering")

    # correlated-feature pruning (the target never participates)
    filtered = dataset.records.take(None if len(rows) == n else rows, columns)
    feature_cols = [c for c in columns if c != "DURATA"]
    if len(rows) >= 2 and feature_cols:
        kept_names = set(prune_correlated_features(_numeric_encoding(filtered, feature_cols), feature_cols))
    else:
        kept_names = set(feature_cols)
    kept_features = [c for c in columns if c == "DURATA" or c in kept_names]
    slim = filtered.take(None, kept_features)
    log.add("prune_correlated_features", len(rows), len(slim), len(columns), len(kept_features))
    return CleanDataset(slim, kept_features), log


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic surgical-record generator.

    Durations follow a right-skewed (log-normal) base per procedure with a
    concentration near 15 minutes, multiplied by patient and anaesthesia
    factors; ``noise`` is the sigma of an extra log-normal disturbance, so 0
    makes the duration an exact function of the features.
    """

    n_rows: int = 2000
    departments: tuple[str, ...] = ("CHIR", "ORTO", "UROL", "OCUL")
    procedures_per_department: int = 8
    rare_fraction: float = 0.04
    noise: float = 0.25
    base_median: float = 16.0
    base_sigma: float = 0.6
    start_date: str = "2019-01-07"
    #: seeds the procedure catalog (true base duration per procedure code);
    #: datasets sharing a world share the signal, so models transfer between
    #: a historical draw and an operating week
    world_seed: int = 0


_ANESTHESIA_MULT = {"GENERALE": 1.45, "SPINALE": 1.10, "LOCALE": 0.75}
_ADMISSION_MULT = {"ORDINARIO": 1.25, "DAY SURGERY": 0.90}
_URGENCY_MULT = {"ELETTIVO": 1.0, "URGENTE": 1.15}


def _duration_from_features(base: float, anesthesia: str, admission: str, urgency: str, age: int) -> float:
    return (
        base
        * _ANESTHESIA_MULT[anesthesia]
        * _ADMISSION_MULT[admission]
        * _URGENCY_MULT[urgency]
        * (0.8 + 0.006 * age)
    )


def _choice_cdf(p: Sequence[float]) -> list[float]:
    """``Generator.choice``'s cumulative weights: ``bisect_right(cdf, rng.random())`` is its draw."""
    cdf = np.cumsum(p, dtype=float)
    return (cdf / cdf[-1]).tolist()


# each row's bounded integers after its noise draw, which one integers() call draws in turn: two days,
# entry minute, sex; then (after a LOCALE row's PRES ANESTES draw) STAMP to room and the 7 offsets. A
# row holds each one less its low: numpy draws a bounded value from its range alone, and a scalar low
# costs no array bound check
_ROW_LOW = (0, 0, 0, 0) + (0,) * 7 + (10, 5, 2, 8, 2, 0, 5)
_ROW_SPAN = np.array([40, 40, 390, 2] + [2, 2, 2, 4, 2, 365, 3, 30, 15, 8, 16, 8, 3, 20]) - _ROW_LOW
_NOISE_CDF, _ANESTHESIA_CDF, _URGENCY_CDF = map(_choice_cdf, ([0.35, 0.40, 0.25], [0.45, 0.2, 0.35], [0.85, 0.15]))


def generate_synthetic_dataset(config: SyntheticConfig, seed: int) -> RecordTable:
    """Deterministic per seed. Every schema column is populated with
    plausible values, and the duration carries enough feature signal for a
    regressor to beat the historical means. The output is fixed by the order
    of its draws; ``tests/oracle.py`` holds the one-call-per-draw reference,
    and a change to the draws changes every workload's data."""
    ids = range(config.n_rows)
    start = date.fromisoformat(config.start_date)
    return _record_table(_draw_rows(config, seed), [f"P{i:06d}" for i in ids], [f"N{i:06d}" for i in ids], start)


def _draw_rows(config: SyntheticConfig, seed: int) -> list[tuple]:
    """Each row's drawn values, in the order they consume the bit stream:
    ``(department, duration, procedure, diagnosis, age, anaesthesia,
    admission, urgency, PRES ANESTES, the 18 bounded integers less their
    lows)``, which ``_record_table`` turns into records."""
    rng = np.random.default_rng(seed)
    catalog_rng = np.random.default_rng(config.world_seed)
    depts = list(config.departments)
    base_by_proc: dict[str, float] = {}
    noise_by_proc: dict[str, float] = {}
    diagnoses_by_proc: dict[str, list[str]] = {}
    for d in depts:
        for j in range(config.procedures_per_department):
            code = f"{d}-ICD{j:02d}"
            base_by_proc[code] = float(
                config.base_median * math.exp(config.base_sigma * catalog_rng.standard_normal())
            )
            # procedures differ in intrinsic variability: some are routine,
            # some erratic; this is what makes prediction confidence informative
            noise_by_proc[code] = (0.4, 1.0, 1.9)[bisect.bisect_right(_NOISE_CDF, catalog_rng.random())]
            diagnoses_by_proc[code] = [f"D-{d}-{j:02d}-{v}" for v in ("A", "B")]
    # procedure popularity decays within each department so some codes are rare
    proc_weights = np.array([1.0 / (j + 1) for j in range(config.procedures_per_department)])
    proc_cdf = _choice_cdf(proc_weights / proc_weights.sum())

    rows = []
    for i in range(config.n_rows):
        dept = depts[int(rng.integers(len(depts)))]
        proc = f"{dept}-ICD{bisect.bisect_right(proc_cdf, rng.random()):02d}"
        if rng.random() < config.rare_fraction:
            diagnosis = f"D-ONEOFF-{i:06d}"
        else:
            diagnosis = diagnoses_by_proc[proc][int(rng.integers(2))]
        age = min(max(round(rng.normal(55, 18)), 0), 95)
        anesthesia = ("GENERALE", "SPINALE", "LOCALE")[bisect.bisect_right(_ANESTHESIA_CDF, rng.random())]
        admission = ("ORDINARIO", "DAY SURGERY")[int(rng.integers(2))]
        urgency = ("ELETTIVO", "URGENTE")[bisect.bisect_right(_URGENCY_CDF, rng.random())]
        signal = _duration_from_features(base_by_proc[proc], anesthesia, admission, urgency, age)
        if config.noise > 0:
            signal *= math.exp(config.noise * noise_by_proc[proc] * rng.standard_normal())
        duration = max(1, round(signal))

        if anesthesia == "LOCALE":
            draws = rng.integers(_ROW_SPAN[:4]).tolist()
            anesthetist = "SI" if rng.random() < 0.3 else "NO"
            draws += rng.integers(_ROW_SPAN[4:]).tolist()
        else:
            draws, anesthetist = rng.integers(_ROW_SPAN).tolist(), "SI"
        rows.append((dept, duration, proc, diagnosis, age, anesthesia, admission, urgency, anesthetist, draws))
    return rows


def _record_table(rows: Sequence[tuple], ids: list[str], nosologici: list[str], start: date) -> RecordTable:
    """Drawn rows (``_draw_rows``) as a table of every schema column, one
    column at a time, their days counted from ``start``: the timestamps by
    ``datetime64`` arithmetic in minutes, as ``datetime``s."""
    n = len(rows)
    dept, duration, proc, diagnosis, age, anesthesia, admission, urgency, anesthetist, draws = (
        zip(*rows) if n else [()] * 10
    )
    _check_exits(rows, start)
    draws = np.array(draws, dtype=np.int64).reshape(n, len(_ROW_LOW)) + _ROW_LOW
    d1, d2, minute, sex, stamp, cc, ca, surgeon, block, birthday, room, *offsets = draws.T
    sex, stamp, cc, ca, surgeon, block, room = (v.tolist() for v in (sex, stamp, cc, ca, surgeon, block, room))
    day = np.datetime64(start, "D") + d1 // 5 * 7 + d2 % 5
    entry = day.astype("M8[m]") + (7 * 60 + 30) + minute
    exit_ = entry + np.array(duration, dtype=np.int64)
    birth_year = day.astype("M8[Y]") - np.array(age, dtype=np.int64)
    stamps = {
        "INGRESSOSALA": entry,
        "USCITASALA": exit_,
        "DATANASCITA": birth_year.astype("M8[D]") + birthday,
        "DATAINTERVENTO": day,
        "INGRESSOBLOCCOOP": entry - offsets[0],
        "PREPARAZIONEPAZIENTE": entry - offsets[1],
        "INIZIOANESTESIA": entry + offsets[2],
        "INIZIOINTERVENTO": entry + offsets[3],
        "FINEINTERVENTO": exit_ - offsets[4],
        "FINEASSANESTINSALA": exit_ - offsets[5],
        "USCITABLOCCOOP": exit_ + offsets[6],
    }
    columns = {
        "PROGRESSIVO": ids,
        "TIPORICOVERO": list(urgency),
        "SESSO": list(map("FM".__getitem__, sex)),
        "ETA": list(age),
        "REPARTO": list(dept),
        "PRES ANESTES": list(anesthetist),
        "STAMP": list(map(str, stamp)),
        "CC": list(map(str, cc)),
        "CA": list(map(str, ca)),
        "ANESTLOC": ["SI" if a == "LOCALE" else "NO" for a in anesthesia],
        "DIAGNOSI1": list(diagnosis),
        "DESCDIAGNOSI1": ["DESC " + d for d in diagnosis],
        "REGRICOVERO": list(admission),
        "CHIRURGHI_1": [f"{d}-SURG{s}" for d, s in zip(dept, surgeon)],
        "ICD1": list(proc),
        "DESCICD1": ["DESC " + p for p in proc],
        "BLOCCO": [f"BL{1 + b}" for b in block],
        "NOSOLOGICO": nosologici,
        "SALA": [f"SALA{1 + r:02d}" for r in room],
        "TIPOANESTESIA": list(anesthesia),
        "DURATA": list(duration),
    }
    columns.update((name, values.astype("M8[s]").tolist()) for name, values in stamps.items())
    return RecordTable({name: columns[name] for name in RECORD_COLUMNS}, list(range(2, n + 2)), [len(RECORD_COLUMNS)] * n)


def _check_exits(rows: Iterable[tuple], start: date) -> None:
    """Raise ``datetime``'s ``OverflowError`` at the first row whose exit
    or leaving time it cannot hold, as ``datetime`` arithmetic on the row
    would; ``datetime64`` arithmetic does not raise. A row within 10**6
    minutes (two years) of its entry is always in range."""
    for row in rows:
        duration, draws = row[1], row[9]
        if duration > 10**6:
            d1, d2, minute = draws[:3]  # their lows are 0
            day = start + timedelta(days=d1 // 5 * 7 + d2 % 5)
            entry = datetime(day.year, day.month, day.day, 7, 30) + timedelta(minutes=minute)
            entry + timedelta(minutes=duration) + timedelta(minutes=draws[-1] + _ROW_LOW[-1])


@dataclass(frozen=True)
class HospitalShape:
    """OR count and daily opening span of one hospital site."""

    n_ors: int
    shift_minutes: int


HOSPITAL_SHAPES = {
    "bordighera": HospitalShape(n_ors=2, shift_minutes=360),  # 07:30-13:30
    "imperia": HospitalShape(n_ors=5, shift_minutes=750),  # 07:30-20:00
    "sanremo": HospitalShape(n_ors=5, shift_minutes=750),
}

_PRIORITY_WEIGHTS = ((1, 0.15), (2, 0.35), (3, 0.30), (4, 0.20))


def generate_week(
    config: SyntheticConfig,
    seed: int,
    shape: HospitalShape = HOSPITAL_SHAPES["bordighera"],
    planning_days: int = 5,
    fill_ratio: float = 1.15,
) -> tuple[RecordTable, list[Registration], list[MssSlot], list[Shift]]:
    """One operating week: feature records for the waiting list, the derived
    registrations (actual duration attached), the MSS and the shift table.

    Registrations are drawn until their total actual duration reaches
    ``fill_ratio`` times the horizon capacity, so the packing is tight but
    p1 demand stays comfortably placeable.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    capacity = shape.n_ors * planning_days * shape.shift_minutes
    pool_config = replace(config, n_rows=max(128, capacity // 6), rare_fraction=0.0, start_date="2019-03-04")
    pool = _draw_rows(pool_config, seed=int(rng.integers(1 << 31)))

    # the operating list mirrors the cleaned historical distribution: weekly
    # elective lists do not carry the extreme-duration tail
    kept = iqr_filter([row[1] for row in pool])

    depts = list(config.departments)
    slots = []
    for or_idx in range(shape.n_ors):
        for day in range(planning_days):
            specialty = depts[(or_idx + day) % len(depts)]
            slots.append(MssSlot(f"OR{or_idx + 1}", specialty, "MAIN", day))
    shifts = [Shift("MAIN", shape.shift_minutes)]

    # surplus demand in every offered specialty, so cells can pack tight
    spec_capacity: dict[str, int] = {}
    for s in slots:
        spec_capacity[s.specialty] = spec_capacity.get(s.specialty, 0) + shape.shift_minutes
    demand = {sp: 0 for sp in spec_capacity}
    p1_demand = {sp: 0 for sp in spec_capacity}

    taken: list[tuple] = []
    registrations: list[Registration] = []
    priority_cdf = _choice_cdf([w for _, w in _PRIORITY_WEIGHTS])
    for row in map(pool.__getitem__, kept):
        specialty, duration = row[0], row[1]
        if specialty not in spec_capacity or demand[specialty] >= fill_ratio * spec_capacity[specialty]:
            if all(d >= fill_ratio * spec_capacity[sp] for sp, d in demand.items()):
                break
            continue
        priority = _PRIORITY_WEIGHTS[bisect.bisect_right(priority_cdf, rng.random())][0]
        # keep mandatory demand well inside its specialty's capacity
        if priority == 1 and p1_demand[specialty] + duration > 0.4 * spec_capacity[specialty]:
            priority = 2
        if priority == 1:
            p1_demand[specialty] += duration
        rid = f"W{len(taken):04d}"
        taken.append(row)
        registrations.append(
            Registration(id=rid, priority=priority, specialty=specialty, duration_min=duration, actual_duration_min=duration)
        )
        demand[specialty] += duration
    # only the rows the week takes become records
    ids, nosologici = ([f"{prefix}{i:04d}" for i in range(len(taken))] for prefix in ("W", "WN"))
    week = _record_table(taken, ids, nosologici, date.fromisoformat(pool_config.start_date))
    return week, registrations, slots, shifts


def generate_hospitalizations(seed: int, n_rows: int = 40) -> list[dict[str, str]]:
    """Prior-week inpatient stays; accepted as input but not used by the
    scheduling model."""
    rng = np.random.default_rng(seed ^ 0xBED5)
    draws = rng.integers((0, 12), (96, 120), size=(n_rows, 2)).tolist()  # admission hour, stay, row by row
    rows = []
    for i, (hour, stay) in enumerate(draws):
        admit = datetime(2019, 2, 25, 8, 0) + timedelta(hours=hour)
        discharge = admit + timedelta(hours=stay)
        rows.append({"patient_id": f"H{i:05d}", "admission": admit.isoformat(), "discharge": discharge.isoformat()})
    return rows


# ---------------------------------------------------------------------------
# CSV formats


def write_records_csv(table: RecordTable, path: str | Path, columns: Sequence[str] | None = None) -> None:
    """Write a table's ``columns`` (all by default) as CSV: timestamps in ISO
    8601 with a space, None as an empty cell."""
    names = list(table.columns) if columns is None else columns
    write_csv_rows(path, names, zip(*(_timestamp_texts(table.column(name)) for name in names)))


_UNIX_DAY_ONE = date(1970, 1, 1).toordinal()
_TZINFO, _MICROSECOND = attrgetter("tzinfo"), attrgetter("microsecond")


def _timestamp_texts(values: list) -> list:
    """``[str(v) for v in values]`` in one numpy pass when every value is a
    naive ``datetime`` of whole seconds; any other column as it is, for
    ``csv.writer`` to take each cell's ``str``."""
    n = len(values)
    if not n or set(map(type, values)) != {datetime} or {*map(_TZINFO, values)} != {None} or any(map(_MICROSECOND, values)):
        return values
    seconds = (np.fromiter(map(datetime.toordinal, values), np.int64, n) - _UNIX_DAY_ONE) * 86400
    for unit, name in ((3600, "hour"), (60, "minute"), (1, "second")):
        seconds += unit * np.fromiter(map(attrgetter(name), values), np.int64, n)
    texts = np.datetime_as_string(seconds.astype("M8[s]"))
    texts.view(np.uint32).reshape(n, -1)[:, 10] = ord(" ")  # the "T"
    return texts.tolist()


_RECORD_PARSERS = {**dict.fromkeys(TIMESTAMP_COLUMNS, datetime.fromisoformat), **dict.fromkeys(INTEGER_COLUMNS, int)}


def read_records_csv(path: str | Path) -> RecordTable:
    """A records file as a table of every header column, the timestamp and
    integer ones parsed (``read_csv_table``)."""
    return read_csv_table(path, parsers=_RECORD_PARSERS)


def write_registrations_csv(registrations: Iterable[Registration], path: str | Path) -> None:
    write_csv_rows(path, Registration._fields, registrations)


def write_mss_csv(slots: Iterable[MssSlot], path: str | Path) -> None:
    write_csv_rows(path, MssSlot._fields, slots)


def write_shifts_csv(shifts: Iterable[Shift], path: str | Path) -> None:
    write_csv_rows(path, Shift._fields, shifts)


# the input (0 registrations, 1 MSS, 2 shifts) and field of each violation found in a file
_VIOLATION_AT = {
    "duplicate_registration_id": (0, "id"), "priority_out_of_range": (0, "priority"),
    "non_positive_duration": (0, "duration_min"), "non_positive_actual_duration": (0, "actual_duration_min"),
    "confidence_out_of_range": (0, "confidence"), "duplicate_mss_cell": (1, "or_id, shift_id, day"),
    "dangling_shift_id": (1, "shift_id"), "day_out_of_range": (1, "day"), "non_positive_capacity": (2, "capacity_min"),
}


def load_instance(
    registrations_path: str | Path,
    mss_path: str | Path,
    shifts_path: str | Path,
    planning_days: int | None = None,
    emergency_or_id: str | None = None,
) -> ProblemInstance:
    """Read a week's instance and validate it, the one place it is validated
    (the days run to the MSS's last day by default). The first violation in
    a file raises ``InputFileError`` at its row; one in no file, an
    emergency OR in no MSS cell, raises ``IngestError``."""
    paths = (registrations_path, mss_path, shifts_path)
    (registrations, mss, shifts), lines = zip(*map(read_week_file, paths, (Registration, MssSlot, Shift)))
    days = planning_days if planning_days is not None else max((s.day for s in mss), default=0) + 1
    instance = ProblemInstance(registrations, mss, shifts, days, emergency_or_id)
    report = validate_instance(instance)
    if report:
        first = report[0]
        if first.code not in _VIOLATION_AT:
            raise IngestError("instance validation failed: " + "; ".join(f"{v.code}: {v.detail}" for v in report))
        which, column = _VIOLATION_AT[first.code]
        raise InputFileError(paths[which], lines[which][first.index], column, f"{first.code}: {first.detail}")
    return instance


def write_preprocess_log(log: PreprocessLog, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(log), indent=2) + "\n", encoding="utf-8")
