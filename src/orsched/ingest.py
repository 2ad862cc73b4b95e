"""Historical-record ingestion: raw CSV parsing, the three-stage cleaning
pipeline (rare-diagnosis grouping, IQR outlier removal, correlated-feature
pruning), synthetic dataset generation for desk-scale experiments, and
problem-instance assembly from the scheduling input files.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import zlib
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from orsched.core import (
    ConfidenceLevel,
    InputFileError,
    MssSlot,
    ProblemInstance,
    Registration,
    Shift,
    ValidationReport,
    read_csv_rows,
    validate_instance,
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

SurgicalRecord = dict[str, Any]


class IngestError(Exception):
    """Raised for unrecoverable data problems (empty survivors, bad schema)."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CleanDataset:
    """Preprocessed records plus the surviving column names, in schema order."""

    records: list[SurgicalRecord]
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

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                {
                    "stage": s.stage,
                    "rows_in": s.rows_in,
                    "rows_out": s.rows_out,
                    "features_in": s.features_in,
                    "features_out": s.features_out,
                    "note": s.note,
                }
                for s in self.stages
            ]
        }


@dataclass(frozen=True)
class PreprocessConfig:
    iqr_multiplier: float = 1.5
    correlation_threshold: float = 0.95
    rare_max_clusters: int = 3
    seed: int = 0


# ---------------------------------------------------------------------------
# parsing primitives


def parse_timestamp(text: str, pattern: str | None = None) -> datetime:
    if pattern is not None:
        return datetime.strptime(text, pattern)
    return datetime.fromisoformat(text)


def derive_duration(entry_ts: datetime, exit_ts: datetime) -> int | None:
    """Whole minutes between OR entry and exit; None rejects the record
    (zero or negative difference, a data-entry artefact)."""
    minutes = int((exit_ts - entry_ts).total_seconds() // 60)
    return minutes if minutes >= 1 else None


# ---------------------------------------------------------------------------
# cleaning stages


def iqr_filter(values: Sequence[float], multiplier: float = 1.5) -> list[int]:
    """Indices of values inside the quartile fences.

    Quartiles use linear interpolation between order statistics; the fence is
    [Q1 - m*IQR, Q3 + m*IQR] with IQR = Q3 - Q1.
    """
    if len(values) == 0:
        raise IngestError("iqr_filter needs at least one value")
    arr = np.asarray(values, dtype=float)
    q1, q3 = (float(q) for q in np.quantile(arr, [0.25, 0.75]))
    span = multiplier * (q3 - q1)
    if not math.isfinite(span):
        return list(range(len(values)))
    lo, hi = q1 - span, q3 + span
    return [i for i, v in enumerate(arr) if lo <= v <= hi]


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

    Rows are clustered per department on standardized (duration, age); row
    count and every other column are untouched.
    """
    records = [dict(r) for r in dataset.records]
    by_dept: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_dept.setdefault(str(rec.get("REPARTO")), []).append(i)

    for dept in sorted(by_dept):
        rows = by_dept[dept]
        counts: dict[str, int] = {}
        for i in rows:
            diag = str(records[i].get("DIAGNOSI1"))
            counts[diag] = counts.get(diag, 0) + 1
        singles = [i for i in rows if counts[str(records[i].get("DIAGNOSI1"))] == 1]
        if not singles:
            continue
        feats = np.array(
            [[float(records[i].get("DURATA", 0)), float(records[i].get("ETA", 0))] for i in singles]
        )
        mean, std = feats.mean(axis=0), feats.std(axis=0)
        std[std == 0] = 1.0
        k = min(max_clusters, len(singles))
        labels = kmeans((feats - mean) / std, k, seed=seed ^ zlib.crc32(dept.encode()))
        for i, label in zip(singles, labels):
            records[i]["DIAGNOSI1"] = f"RARE_{dept}_{label}"
    return CleanDataset(records, list(dataset.kept_features))


def _numeric_encoding(records: list[SurgicalRecord], columns: Sequence[str]) -> np.ndarray:
    """Columns as floats: numbers pass through, timestamps become epoch
    seconds, everything else gets ordinal codes by first appearance."""
    matrix = np.zeros((len(records), len(columns)), dtype=float)
    for j, col in enumerate(columns):
        codes: dict[Any, int] = {}
        for i, rec in enumerate(records):
            v = rec.get(col)
            if isinstance(v, bool):
                matrix[i, j] = float(v)
            elif isinstance(v, (int, float)):
                matrix[i, j] = float(v)
            elif isinstance(v, datetime):
                matrix[i, j] = v.timestamp()
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
    records: list[SurgicalRecord],
    config: PreprocessConfig = PreprocessConfig(),
) -> tuple[CleanDataset, PreprocessLog]:
    """Full cleaning pipeline: duration derivation and non-positive removal,
    rare-diagnosis grouping, IQR filtering on the duration, then
    correlated-feature pruning. Returns the clean dataset and a per-stage
    provenance log."""
    if not records:
        raise IngestError("no records to preprocess")
    columns = [c for c in (RECORD_COLUMNS if all(c in records[0] for c in RECORD_COLUMNS) else records[0].keys())]
    log = PreprocessLog()

    # duration target
    rows_in = len(records)
    survivors: list[SurgicalRecord] = []
    parse_errors = 0
    if "INGRESSOSALA" in columns and "USCITASALA" in columns:
        for rec in records:
            entry, exit_ = rec.get("INGRESSOSALA"), rec.get("USCITASALA")
            if not isinstance(entry, datetime) or not isinstance(exit_, datetime):
                parse_errors += 1
                continue
            minutes = derive_duration(entry, exit_)
            if minutes is None:
                continue
            out = dict(rec)
            out["DURATA"] = minutes
            survivors.append(out)
        if "DURATA" not in columns:
            columns = columns + ["DURATA"]
    elif "DURATA" in columns:
        for rec in records:
            dur = rec.get("DURATA")
            if isinstance(dur, int) and dur >= 1:
                survivors.append(dict(rec))
    else:
        raise IngestError("cannot derive durations: missing columns INGRESSOSALA, USCITASALA (and no DURATA)")
    log.add(
        "derive_duration",
        rows_in,
        len(survivors),
        len(columns),
        len(columns),
        note=f"{parse_errors} timestamp parse failures" if parse_errors else "",
    )
    if not survivors:
        raise IngestError("no records survive duration derivation")

    # rare-diagnosis grouping
    dataset = CleanDataset(survivors, columns)
    if "DIAGNOSI1" in columns and "REPARTO" in columns:
        grouped = group_rare_diagnoses(dataset, config.rare_max_clusters, config.seed)
        changed = sum(1 for a, b in zip(dataset.records, grouped.records) if a["DIAGNOSI1"] != b["DIAGNOSI1"])
        dataset = grouped
        log.add("group_rare_diagnoses", len(survivors), len(survivors), len(columns), len(columns), note=f"{changed} rows regrouped")
    else:
        log.add("group_rare_diagnoses", len(survivors), len(survivors), len(columns), len(columns), note="skipped: columns absent")

    # IQR outlier removal on the duration, iterated to a fixpoint: tail removal
    # shrinks the fences, so a single pass would leave re-runs with more work
    filtered = dataset.records
    passes = 0
    while filtered:
        passes += 1
        kept_idx = iqr_filter([rec["DURATA"] for rec in filtered], config.iqr_multiplier)
        if len(kept_idx) == len(filtered):
            break
        filtered = [filtered[i] for i in kept_idx]
    log.add(
        "iqr_filter",
        len(dataset.records),
        len(filtered),
        len(columns),
        len(columns),
        note=f"{passes} passes to fixpoint",
    )
    if not filtered:
        raise IngestError("no records survive IQR filtering")

    # correlated-feature pruning (the target never participates)
    feature_cols = [c for c in columns if c != "DURATA"]
    if len(filtered) >= 2 and feature_cols:
        matrix = _numeric_encoding(filtered, feature_cols)
        kept_names = set(prune_correlated_features(matrix, feature_cols, config.correlation_threshold))
    else:
        kept_names = set(feature_cols)
    kept_features = [c for c in columns if c == "DURATA" or c in kept_names]
    slim = [{c: rec.get(c) for c in kept_features} for rec in filtered]
    log.add("prune_correlated_features", len(filtered), len(slim), len(columns), len(kept_features))
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


def generate_synthetic_dataset(config: SyntheticConfig, seed: int) -> list[SurgicalRecord]:
    """Deterministic per seed. Every schema column is populated with
    plausible values, and the duration carries enough feature signal for a
    regressor to beat the historical means."""
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
            noise_by_proc[code] = float(catalog_rng.choice([0.4, 1.0, 1.9], p=[0.35, 0.40, 0.25]))
            diagnoses_by_proc[code] = [f"D-{d}-{j:02d}-{v}" for v in ("A", "B")]
    # procedure popularity decays within each department so some codes are rare
    proc_weights = np.array([1.0 / (j + 1) for j in range(config.procedures_per_department)])
    proc_weights /= proc_weights.sum()

    start = date.fromisoformat(config.start_date)
    records: list[SurgicalRecord] = []
    for i in range(config.n_rows):
        dept = depts[int(rng.integers(len(depts)))]
        proc_idx = int(rng.choice(config.procedures_per_department, p=proc_weights))
        proc = f"{dept}-ICD{proc_idx:02d}"
        if rng.random() < config.rare_fraction:
            diagnosis = f"D-ONEOFF-{i:06d}"
        else:
            diagnosis = diagnoses_by_proc[proc][int(rng.integers(2))]
        age = int(np.clip(round(rng.normal(55, 18)), 0, 95))
        anesthesia = ("GENERALE", "SPINALE", "LOCALE")[int(rng.choice(3, p=[0.45, 0.2, 0.35]))]
        admission = ("ORDINARIO", "DAY SURGERY")[int(rng.integers(2))]
        urgency = ("ELETTIVO", "URGENTE")[int(rng.choice(2, p=[0.85, 0.15]))]
        signal = _duration_from_features(base_by_proc[proc], anesthesia, admission, urgency, age)
        if config.noise > 0:
            signal *= math.exp(config.noise * noise_by_proc[proc] * rng.standard_normal())
        duration = max(1, round(signal))

        day = start + timedelta(days=int(rng.integers(0, 40)) // 5 * 7 + int(rng.integers(0, 40)) % 5)
        entry = datetime(day.year, day.month, day.day, 7, 30) + timedelta(minutes=int(rng.integers(0, 390)))
        exit_ = entry + timedelta(minutes=duration)
        records.append(
            {
                "PROGRESSIVO": f"P{i:06d}",
                "TIPORICOVERO": urgency,
                "SESSO": "FM"[int(rng.integers(2))],
                "ETA": age,
                "REPARTO": dept,
                "PRES ANESTES": "SI" if anesthesia != "LOCALE" or rng.random() < 0.3 else "NO",
                "STAMP": str(int(rng.integers(2))),
                "CC": str(int(rng.integers(2))),
                "CA": str(int(rng.integers(2))),
                "ANESTLOC": "SI" if anesthesia == "LOCALE" else "NO",
                "DIAGNOSI1": diagnosis,
                "DESCDIAGNOSI1": f"DESC {diagnosis}",
                "INGRESSOSALA": entry,
                "USCITASALA": exit_,
                "REGRICOVERO": admission,
                "CHIRURGHI_1": f"{dept}-SURG{int(rng.integers(4))}",
                "ICD1": proc,
                "DESCICD1": f"DESC {proc}",
                "BLOCCO": f"BL{1 + int(rng.integers(2))}",
                "DATANASCITA": datetime(day.year - age, 1, 1) + timedelta(days=int(rng.integers(0, 365))),
                "NOSOLOGICO": f"N{i:06d}",
                "DATAINTERVENTO": datetime(day.year, day.month, day.day),
                "SALA": f"SALA{1 + int(rng.integers(3)):02d}",
                "TIPOANESTESIA": anesthesia,
                "INGRESSOBLOCCOOP": entry - timedelta(minutes=int(rng.integers(10, 30))),
                "PREPARAZIONEPAZIENTE": entry - timedelta(minutes=int(rng.integers(5, 15))),
                "INIZIOANESTESIA": entry + timedelta(minutes=int(rng.integers(2, 8))),
                "INIZIOINTERVENTO": entry + timedelta(minutes=int(rng.integers(8, 16))),
                "FINEINTERVENTO": exit_ - timedelta(minutes=int(rng.integers(2, 8))),
                "FINEASSANESTINSALA": exit_ - timedelta(minutes=int(rng.integers(0, 3))),
                "USCITABLOCCOOP": exit_ + timedelta(minutes=int(rng.integers(5, 20))),
                "DURATA": duration,
            }
        )
    return records


@dataclass(frozen=True)
class HospitalShape:
    """OR count and daily opening span of one hospital site."""

    name: str
    n_ors: int
    shift_minutes: int


HOSPITAL_SHAPES = {
    "bordighera": HospitalShape("bordighera", n_ors=2, shift_minutes=360),  # 07:30-13:30
    "imperia": HospitalShape("imperia", n_ors=5, shift_minutes=750),  # 07:30-20:00
    "sanremo": HospitalShape("sanremo", n_ors=5, shift_minutes=750),
}

_PRIORITY_WEIGHTS = ((1, 0.15), (2, 0.35), (3, 0.30), (4, 0.20))


def generate_week(
    config: SyntheticConfig,
    seed: int,
    shape: HospitalShape = HOSPITAL_SHAPES["bordighera"],
    planning_days: int = 5,
    fill_ratio: float = 1.15,
    emergency_or_id: str | None = None,
) -> tuple[list[SurgicalRecord], list[Registration], list[MssSlot], list[Shift]]:
    """One operating week: feature records for the waiting list, the derived
    registrations (actual duration attached), the MSS and the shift table.

    Registrations are drawn until their total actual duration reaches
    ``fill_ratio`` times the horizon capacity, so the packing is tight but
    p1 demand stays comfortably placeable.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    capacity = shape.n_ors * planning_days * shape.shift_minutes
    pool = generate_synthetic_dataset(
        SyntheticConfig(
            n_rows=max(128, capacity // 6),
            departments=config.departments,
            procedures_per_department=config.procedures_per_department,
            rare_fraction=0.0,
            noise=config.noise,
            base_median=config.base_median,
            base_sigma=config.base_sigma,
            start_date="2019-03-04",
            world_seed=config.world_seed,
        ),
        seed=int(rng.integers(1 << 31)),
    )

    # the operating list mirrors the cleaned historical distribution: weekly
    # elective lists do not carry the extreme-duration tail
    kept = iqr_filter([rec["DURATA"] for rec in pool])
    pool = [pool[i] for i in kept]

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

    week_records: list[SurgicalRecord] = []
    registrations: list[Registration] = []
    priorities, weights = zip(*_PRIORITY_WEIGHTS)
    for rec in pool:
        specialty = rec["REPARTO"]
        if specialty not in spec_capacity or demand[specialty] >= fill_ratio * spec_capacity[specialty]:
            if all(d >= fill_ratio * spec_capacity[sp] for sp, d in demand.items()):
                break
            continue
        priority = int(rng.choice(priorities, p=weights))
        # keep mandatory demand well inside its specialty's capacity
        if priority == 1 and p1_demand[specialty] + rec["DURATA"] > 0.4 * spec_capacity[specialty]:
            priority = 2
        if priority == 1:
            p1_demand[specialty] += rec["DURATA"]
        rec = dict(rec)
        rec["PROGRESSIVO"] = f"W{len(week_records):04d}"
        rec["NOSOLOGICO"] = f"WN{len(week_records):04d}"
        week_records.append(rec)
        registrations.append(
            Registration(
                id=rec["PROGRESSIVO"],
                priority=priority,
                specialty=specialty,
                duration_min=rec["DURATA"],
                actual_duration_min=rec["DURATA"],
            )
        )
        demand[specialty] += rec["DURATA"]
    return week_records, registrations, slots, shifts


def generate_hospitalizations(seed: int, n_rows: int = 40) -> list[dict[str, str]]:
    """Prior-week inpatient stays; accepted as input but not used by the
    scheduling model."""
    rng = np.random.default_rng(seed ^ 0xBED5)
    rows = []
    for i in range(n_rows):
        admit = datetime(2019, 2, 25, 8, 0) + timedelta(hours=int(rng.integers(0, 96)))
        stay = int(rng.integers(12, 120))
        rows.append(
            {
                "patient_id": f"H{i:05d}",
                "admission": admit.isoformat(),
                "discharge": (admit + timedelta(hours=stay)).isoformat(),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# instance assembly


def build_instance(
    registrations: Iterable[Registration],
    mss_slots: Iterable[MssSlot],
    shifts: Iterable[Shift],
    planning_days: int | None = None,
    emergency_or_id: str | None = None,
) -> ProblemInstance:
    """Assemble and validate a problem instance; raises with the full
    validation report when the parts do not fit together."""
    mss = tuple(mss_slots)
    days = planning_days if planning_days is not None else (max((s.day for s in mss), default=0) + 1)
    instance = ProblemInstance(
        registrations=tuple(registrations),
        mss=mss,
        shifts=tuple(shifts),
        planning_days=days,
        emergency_or_id=emergency_or_id,
    )
    report = validate_instance(instance)
    if not report.ok:
        raise IngestError(
            "instance validation failed: " + "; ".join(f"{v.code}: {v.detail}" for v in report),
            report=report,
        )
    return instance


# ---------------------------------------------------------------------------
# CSV formats


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime):
        return value.isoformat(sep=" ")
    return str(value)


def _parse_value(column: str, text: str, timestamp_pattern: str | None = None):
    if text == "":
        return None
    if column in TIMESTAMP_COLUMNS:
        return parse_timestamp(text, timestamp_pattern)
    if column in INTEGER_COLUMNS:
        return int(text)
    return text


def write_records_csv(records: Iterable[SurgicalRecord], path: str | Path, columns: Sequence[str] | None = None) -> None:
    records = list(records)
    if columns is None:
        columns = list(records[0].keys()) if records else list(RECORD_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_format_value(rec.get(c)) for c in columns])


def read_records_csv(path: str | Path, timestamp_pattern: str | None = None) -> list[SurgicalRecord]:
    """Read a records file; raises ``InputFileError`` at the first timestamp
    or integer that does not parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFileError(path, 1, "header", "empty records file") from None
        records = []
        for row in reader:
            record = {}
            for column, text in zip(header, row):
                try:
                    record[column] = _parse_value(column, text, timestamp_pattern)
                except ValueError:
                    kind = "a timestamp" if column in TIMESTAMP_COLUMNS else "an integer"
                    raise InputFileError(path, reader.line_num, column, f"{text!r} is not {kind}") from None
            records.append(record)
    return records


REGISTRATION_HEADER = ["id", "priority", "specialty", "duration_min", "actual_duration_min", "confidence"]


def write_registrations_csv(registrations: Iterable[Registration], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGISTRATION_HEADER)
        for r in registrations:
            writer.writerow(
                [
                    r.id,
                    r.priority,
                    r.specialty,
                    r.duration_min,
                    "" if r.actual_duration_min is None else r.actual_duration_min,
                    "" if r.confidence is None else r.confidence.level,
                ]
            )


def read_registrations_csv(path: str | Path) -> list[Registration]:
    """Read a file written by ``write_registrations_csv``; raises
    ``InputFileError`` at the first missing column or malformed value."""
    out = []
    integers = ("priority", "duration_min", "actual_duration_min", "confidence")
    for row in read_csv_rows(path, REGISTRATION_HEADER, integers, optional=("actual_duration_min", "confidence")):
        confidence = row.pop("confidence")
        out.append(Registration(**row, confidence=None if confidence is None else ConfidenceLevel(confidence)))
    return out


MSS_HEADER = ["or_id", "specialty", "shift_id", "day"]


def write_mss_csv(slots: Iterable[MssSlot], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MSS_HEADER)
        for s in slots:
            writer.writerow([s.or_id, s.specialty, s.shift_id, s.day])


def read_mss_csv(path: str | Path) -> list[MssSlot]:
    """Read a file written by ``write_mss_csv``; raises ``InputFileError``
    at the first missing column or malformed value."""
    return [MssSlot(**row) for row in read_csv_rows(path, MSS_HEADER, ("day",))]


SHIFT_HEADER = ["shift_id", "capacity_min"]


def write_shifts_csv(shifts: Iterable[Shift], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SHIFT_HEADER)
        for s in shifts:
            writer.writerow([s.shift_id, s.capacity_min])


def read_shifts_csv(path: str | Path) -> list[Shift]:
    """Read a file written by ``write_shifts_csv``; raises ``InputFileError``
    at the first missing column or malformed value."""
    return [Shift(**row) for row in read_csv_rows(path, SHIFT_HEADER, ("capacity_min",))]


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
    """Read and validate an instance; a violation in a file raises ``InputFileError`` at its row."""
    paths = (registrations_path, mss_path, shifts_path)
    try:
        return build_instance(
            read_registrations_csv(registrations_path),
            read_mss_csv(mss_path),
            read_shifts_csv(shifts_path),
            planning_days=planning_days,
            emergency_or_id=emergency_or_id,
        )
    except IngestError as exc:
        first = exc.report.violations[0]
        if first.code not in _VIOLATION_AT:
            raise
        which, column = _VIOLATION_AT[first.code]
        with open(paths[which], newline="", encoding="utf-8") as fh:  # find the row's line as the reader counts
            reader = csv.DictReader(fh)
            next(itertools.islice(reader, first.index, None))
            raise InputFileError(paths[which], reader.line_num, column, f"{first.code}: {first.detail}") from None


def write_preprocess_log(log: PreprocessLog, path: str | Path) -> None:
    Path(path).write_text(json.dumps(log.to_json_dict(), indent=2) + "\n", encoding="utf-8")
