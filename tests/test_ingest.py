"""Preprocessing pipeline, synthetic generator, and file-format tests."""

import itertools
import math
import random
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from helpers import load_week, records_table
from orsched.cli import main
from orsched.core import InputFileError, MssSlot, Registration, Shift, write_csv_rows
from orsched.ingest import (
    RECORD_COLUMNS,
    CleanDataset,
    HOSPITAL_SHAPES,
    IngestError,
    RecordTable,
    SyntheticConfig,
    derive_duration,
    generate_hospitalizations,
    generate_synthetic_dataset,
    generate_week,
    group_rare_diagnoses,
    iqr_filter,
    kmeans,
    preprocess,
    prune_correlated_features,
    read_records_csv,
    write_records_csv,
)
from orsched.ingest import _timestamp_texts


def ts(text):
    return datetime.fromisoformat(text)


# -- derive_duration -----------------------------------------------------------


def test_plain_difference_in_minutes():
    assert derive_duration(ts("2019-03-04 08:00"), ts("2019-03-04 08:45")) == 45


def test_zero_duration_rejected():
    assert derive_duration(ts("2019-03-04 10:00"), ts("2019-03-04 10:00")) is None


def test_negative_duration_rejected():
    assert derive_duration(ts("2019-03-04 09:30"), ts("2019-03-04 09:00")) is None


def test_naive_timestamp_is_read_as_utc_beside_a_zoned_one():
    assert derive_duration(ts("2019-03-04 08:00"), ts("2019-03-04T10:45+02:00")) == 45
    assert derive_duration(ts("2019-03-04T08:00-01:00"), ts("2019-03-04 09:30")) == 30


# -- iqr_filter -------------------------------------------------------------------


def test_iqr_drops_far_outlier():
    # Q1=2, Q3=4, fences [-1, 7]
    assert iqr_filter([1, 2, 3, 4, 100]) == [0, 1, 2, 3]


def test_iqr_keeps_identical_values():
    assert iqr_filter([5, 5, 5, 5]) == [0, 1, 2, 3]


def test_iqr_keeps_small_sample():
    # Q1=1.5, Q3=2.5, fences [0, 4]
    assert iqr_filter([1, 2, 3]) == [0, 1, 2]


def test_iqr_empty_input_is_error():
    with pytest.raises(IngestError):
        iqr_filter([])


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
def test_iqr_huge_multiplier_keeps_everything(values):
    assert iqr_filter(values, multiplier=math.inf) == list(range(len(values)))
    q1, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.75])
    if q3 > q1:  # zero-width quartile range pins the fences regardless of multiplier
        assert iqr_filter(values, multiplier=1e12) == list(range(len(values)))


def test_iqr_matches_the_numpy_quantile_reference():
    rng = np.random.default_rng(12)
    cases = 0
    for n in range(1, 61):
        special = rng.normal(0, 1e300, n)
        special[rng.random(n) < 0.15] = math.inf
        special[rng.random(n) < 0.15] = -math.inf
        with_nan = rng.normal(40, 9, n)
        with_nan[rng.integers(n)] = math.nan
        for values in (rng.integers(0, 4, n).tolist(), rng.normal(40, 9, n), rng.lognormal(3, 1, n), special, with_nan):
            for multiplier in (0.0, 1.5):
                with np.errstate(invalid="ignore"):  # np.quantile between infinities
                    want = oracle.reference_iqr_filter(values, multiplier)
                assert iqr_filter(values, multiplier) == want, (n, values, multiplier)
                cases += 1
    assert cases == 600


# -- kmeans --------------------------------------------------------------------


def test_k1_labels_everything_zero():
    assert kmeans([[1.0], [5.0], [9.0]], k=1, seed=0) == [0, 0, 0]


def wcss(points, labels, k):
    total = 0.0
    pts = np.asarray(points, dtype=float)
    for c in range(k):
        members = pts[[i for i, l in enumerate(labels) if l == c]]
        if len(members):
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def test_two_well_separated_clusters_minimize_wcss():
    points = [[0.0], [0.1], [10.0], [10.1]]
    labels = kmeans(points, k=2, seed=3)
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
    # exhaustive check: no 2-labelling has lower within-cluster sum of squares
    best = min(wcss(points, cand, 2) for cand in itertools.product(range(2), repeat=4))
    assert wcss(points, labels, 2) == pytest.approx(best)


def test_identical_points_have_zero_variance():
    labels = kmeans([[2.0, 2.0]] * 4, k=2, seed=1)
    assert wcss([[2.0, 2.0]] * 4, labels, 2) == 0.0


def test_k_larger_than_n_is_error():
    with pytest.raises(IngestError):
        kmeans([[1.0]], k=2, seed=0)


def test_labels_invariant_under_input_permutation():
    rng = random.Random(0)
    points = [[float(rng.randint(0, 30))] for _ in range(12)]
    base = kmeans(points, k=3, seed=7)
    order = list(range(12))
    rng.shuffle(order)
    permuted = kmeans([points[i] for i in order], k=3, seed=7)
    # same partition of the index set, up to label names
    groups_base = {}
    for i, l in enumerate(base):
        groups_base.setdefault(l, set()).add(tuple(points[i]) + (i,))
    groups_perm = {}
    for j, l in enumerate(permuted):
        groups_perm.setdefault(l, set()).add(tuple(points[order[j]]) + (order[j],))
    assert set(map(frozenset, groups_base.values())) == set(map(frozenset, groups_perm.values()))


# -- group_rare_diagnoses ----------------------------------------------------------


def rec(progressivo, dept, diagnosis, duration, age=50):
    return {
        "PROGRESSIVO": progressivo,
        "REPARTO": dept,
        "DIAGNOSI1": diagnosis,
        "DURATA": duration,
        "ETA": age,
    }


def test_no_singletons_is_a_no_op():
    rows = [rec("a", "CHIR", "D1", 20), rec("b", "CHIR", "D1", 25)]
    ds = CleanDataset(records_table(rows), ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"])
    out = group_rare_diagnoses(ds, seed=0)
    assert out.records == ds.records


def test_single_singleton_gets_cluster_zero():
    rows = [rec("a", "CHIR", "D1", 20), rec("b", "CHIR", "D1", 25), rec("c", "CHIR", "DX", 30)]
    ds = CleanDataset(records_table(rows), ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"])
    out = group_rare_diagnoses(ds, seed=0)
    assert out.records.columns["DIAGNOSI1"][2] == "RARE_CHIR_0"


def test_singletons_split_by_duration_scale():
    durations = [10, 11, 12, 90, 91, 92]
    rows = [rec(f"r{i}", "ORTO", f"DX{i}", d) for i, d in enumerate(durations)]
    ds = CleanDataset(records_table(rows), ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"])
    out = group_rare_diagnoses(ds, max_clusters=2, seed=0)
    codes = out.records.columns["DIAGNOSI1"]
    assert codes[0] == codes[1] == codes[2]
    assert codes[3] == codes[4] == codes[5]
    assert codes[0] != codes[3]


def test_empty_age_clusters_as_zero():
    """An empty ETA cell reads None, and a one-off row clusters on age 0, as
    one cut short before its ETA cell does."""
    columns = ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"]
    durations = [10, 11, 12, 90, 91, 92]
    codes = []
    for age in (None, 0):
        rows = [rec(f"r{i}", "ORTO", f"DX{i}", d, age if i % 2 else 40) for i, d in enumerate(durations)]
        out = group_rare_diagnoses(CleanDataset(records_table(rows), columns), max_clusters=2, seed=0)
        codes.append(out.records.columns["DIAGNOSI1"])
    assert codes[0] == codes[1]


def test_row_count_and_other_columns_preserved():
    rng = random.Random(1)
    rows = [
        rec(f"r{i}", rng.choice(["A", "B"]), f"D{rng.randint(0, 6)}", rng.randint(5, 60), rng.randint(20, 80))
        for i in range(40)
    ]
    ds = CleanDataset(records_table(rows), ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"])
    out = group_rare_diagnoses(ds, seed=5)
    assert len(out.records) == 40
    for col in ("PROGRESSIVO", "REPARTO", "DURATA", "ETA"):
        assert out.records.columns[col] == [row[col] for row in rows]


# -- prune_correlated_features ---------------------------------------------------


def test_exact_linear_duplicate_dropped():
    rng = np.random.default_rng(0)
    f1 = rng.normal(size=200)
    f3 = rng.normal(size=200)
    matrix = np.column_stack([f1, 2.0 * f1, f3])
    assert prune_correlated_features(matrix, ["f1", "f2", "f3"]) == ["f1", "f3"]


def test_independent_features_all_kept():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(500, 6))
    names = [f"f{i}" for i in range(6)]
    assert prune_correlated_features(matrix, names) == names


def test_single_feature_kept():
    assert prune_correlated_features(np.array([[1.0], [2.0]]), ["only"]) == ["only"]


def test_constant_column_never_dropped_for_correlation():
    rng = np.random.default_rng(2)
    f1 = rng.normal(size=100)
    matrix = np.column_stack([f1, np.full(100, 7.0), f1 * -1.0])
    assert prune_correlated_features(matrix, ["f1", "const", "f1neg"]) == ["f1", "const"]


# -- preprocess ---------------------------------------------------------------------


def test_preprocess_prunes_exact_duplicate_column():
    # 32 columns, 31 independent plus one exact linear copy: exactly one pruned
    rng = np.random.default_rng(3)
    names = [f"f{i:02d}" for i in range(31)]
    records = []
    for _ in range(300):
        row = {name: float(rng.normal()) for name in names}
        row["f01"] = 3.0 * row["f00"]
        row["DURATA"] = int(rng.integers(10, 60))
        records.append(row)
    clean, log = preprocess(records_table(records), seed=0)
    assert len(clean.kept_features) == 31
    assert "f01" not in clean.kept_features
    assert log.stages[-1].features_out == 31


def test_preprocess_keeps_all_rows_when_no_outliers():
    records = []
    for i in range(50):
        records.append(
            {
                "PROGRESSIVO": f"P{i}",
                "INGRESSOSALA": ts("2019-03-04 08:00"),
                "USCITASALA": ts("2019-03-04 08:00").replace(minute=20 + i % 10),
                "REPARTO": "CHIR",
                "DIAGNOSI1": f"D{i % 5}",
                "ETA": 50,
            }
        )
    clean, log = preprocess(records_table(records))
    stage = {s.stage: s for s in log.stages}["iqr_filter"]
    assert stage.rows_in == stage.rows_out == 50


def test_preprocess_drops_nonpositive_and_outliers():
    from datetime import timedelta

    base = ts("2019-03-04 08:00")
    records = [
        {
            "PROGRESSIVO": f"P{i}",
            "INGRESSOSALA": base,
            "USCITASALA": base + timedelta(minutes=minutes),
            "REPARTO": "CHIR",
            "DIAGNOSI1": "D1",
            "ETA": 40,
        }
        for i, minutes in enumerate([30, 35, 40, 45, 0, -15, 500])
    ]
    clean, log = preprocess(records_table(records))
    durations = sorted(clean.records.columns["DURATA"])
    assert durations == [30, 35, 40, 45]


def test_preprocess_missing_duration_columns_is_error():
    with pytest.raises(IngestError, match="INGRESSOSALA"):
        preprocess(records_table([{"REPARTO": "CHIR", "ETA": 4}]))


def test_preprocess_idempotent_for_rows_and_features():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=800), seed=11)
    clean, _ = preprocess(records, seed=1)
    again, log = preprocess(clean.records, seed=1)
    assert len(again.records) == len(clean.records)
    assert again.kept_features == clean.kept_features


# -- synthetic generator -----------------------------------------------------------


def test_same_seed_same_records():
    cfg = SyntheticConfig(n_rows=100)
    assert generate_synthetic_dataset(cfg, seed=5) == generate_synthetic_dataset(cfg, seed=5)


def test_right_skew_median_below_mean():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=1000), seed=2)
    durations = np.array(records.columns["DURATA"])
    assert np.median(durations) < durations.mean()


def test_zero_noise_duration_is_function_of_features():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=400, noise=0.0), seed=9)
    features = ("ICD1", "TIPOANESTESIA", "REGRICOVERO", "TIPORICOVERO", "ETA")
    seen = {}
    for key, duration in zip(zip(*map(records.column, features)), records.column("DURATA")):
        if key in seen:
            assert seen[key] == duration
        seen[key] = duration


def test_all_schema_columns_populated():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=10), seed=0)
    assert set(records.columns) == set(RECORD_COLUMNS)
    assert records.widths == [len(RECORD_COLUMNS)] * 10
    for values in records.columns.values():
        assert len(values) == 10 and all(v is not None for v in values)



# The batched draws of the generators against the one-call-per-draw
# reference in tests/oracle.py: record tables equal the reference's records
# column by column in values, value types and column order, and
# registrations, MSS and shifts equal.


def _assert_same_rows(got, want):
    if isinstance(got, RecordTable):
        want = records_table(want)
        assert list(got.columns) == list(want.columns)
        for name, values in got.columns.items():
            assert values == want.columns[name], name
            assert list(map(type, values)) == list(map(type, want.columns[name])), name
        assert (got.lines, got.widths) == (want.lines, want.widths)
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, dict):
            assert list(a.items()) == list(b.items())
            assert [type(v) for v in a.values()] == [type(v) for v in b.values()]
        else:
            assert a == b
            assert [type(v) for v in tuple(a)] == [type(v) for v in tuple(b)]


_REFERENCE_CONFIGS = (
    SyntheticConfig(n_rows=1),
    SyntheticConfig(n_rows=10),
    SyntheticConfig(n_rows=60, noise=0.0),
    SyntheticConfig(n_rows=60, rare_fraction=0.0),
    SyntheticConfig(n_rows=60, rare_fraction=1.0),
    SyntheticConfig(n_rows=60, world_seed=11),
    SyntheticConfig(n_rows=60, departments=("ORTO", "UROL"), procedures_per_department=3),
)


@pytest.mark.parametrize("seed", range(10))
def test_synthetic_dataset_matches_one_call_per_draw_reference(seed):
    configs = _REFERENCE_CONFIGS + ((SyntheticConfig(n_rows=2000),) if seed == 0 else ())
    for config in configs:
        _assert_same_rows(
            generate_synthetic_dataset(config, seed), oracle.reference_generate_synthetic_dataset(config, seed)
        )
    _assert_same_rows(generate_hospitalizations(seed), oracle.reference_generate_hospitalizations(seed))


def _generated(generate, *args):
    """What ``generate`` returned, or its ``OverflowError``'s text."""
    try:
        return generate(*args)
    except OverflowError as exc:
        return str(exc)


@pytest.mark.parametrize("noise", (2.5, 8.0))
def test_far_durations_match_the_reference(noise):
    """Durations past 10**6 minutes: the reference's timestamps where a
    ``datetime`` holds them, and its ``OverflowError`` where one does not."""
    far = errors = 0
    for seed in range(12):
        config = SyntheticConfig(n_rows=60, noise=noise)
        got = _generated(generate_synthetic_dataset, config, seed)
        want = _generated(oracle.reference_generate_synthetic_dataset, config, seed)
        if isinstance(want, str):
            assert got == want, seed
            errors += 1
        else:
            _assert_same_rows(got, want)
            far += max(got.columns["DURATA"]) > 10**6
    assert far >= 1 and (errors >= 9 if noise > 3 else errors == 0)


@pytest.mark.parametrize("shape", sorted(HOSPITAL_SHAPES))
@pytest.mark.parametrize("fill_ratio", (1.15, 0.5))
# the seed offset stood for an emergency OR argument, which the week never
# read; the ids keep the cases' names from then
@pytest.mark.parametrize("seed_offset", (0, 1), ids=("None", "OR2"))
def test_week_matches_one_call_per_draw_reference(shape, fill_ratio, seed_offset):
    config = SyntheticConfig(noise=0.4)
    seed = 7 * sorted(HOSPITAL_SHAPES).index(shape) + 3 * (fill_ratio < 1) + seed_offset
    # one full week on the smallest site, one-day weeks elsewhere, to keep the pools small
    days = 5 if shape == "bordighera" else 1
    kwargs = dict(shape=HOSPITAL_SHAPES[shape], planning_days=days, fill_ratio=fill_ratio)
    got = generate_week(config, seed, **kwargs)
    want = oracle.reference_generate_week(config, seed, **kwargs)
    assert len(got) == len(want) == 4
    for part, ref in zip(got, want):
        _assert_same_rows(part, ref)


# -- load_instance ---------------------------------------------------------------------


def test_bordighera_shape(tmp_path):
    cfg = SyntheticConfig()
    week, regs, mss, shifts = generate_week(cfg, seed=3, shape=HOSPITAL_SHAPES["bordighera"])
    inst = load_week(tmp_path, regs, mss, shifts)
    assert {s.or_id for s in inst.mss} == {"OR1", "OR2"}
    assert inst.shifts[0].capacity_min == 360
    assert len(week) == len(regs)


def test_imperia_shape_capacity(tmp_path):
    cfg = SyntheticConfig()
    _, regs, mss, shifts = generate_week(cfg, seed=3, shape=HOSPITAL_SHAPES["imperia"])
    inst = load_week(tmp_path, regs, mss, shifts)
    assert len({s.or_id for s in inst.mss}) == 5
    assert inst.shifts[0].capacity_min == 750


def test_unknown_shift_reference_is_error(tmp_path):
    with pytest.raises(InputFileError) as err:
        load_week(tmp_path, [], [MssSlot("OR1", "CHIR", "S9", 0)], [Shift("S1", 100)])
    assert str(err.value) == f"{tmp_path / 'mss.csv'}: row 2, field 'shift_id': dangling_shift_id: MSS cell references unknown shift 'S9'"


def test_emergency_or_in_no_cell_is_error_of_no_file(tmp_path):
    with pytest.raises(IngestError) as err:
        load_week(tmp_path, [], [MssSlot("OR1", "CHIR", "S1", 0)], [Shift("S1", 100)], emergency_or_id="OR9")
    assert str(err.value) == "instance validation failed: emergency_or_not_in_mss: emergency OR 'OR9' appears in no MSS cell"


# -- CSV round trips ----------------------------------------------------------------


def test_records_csv_round_trip(tmp_path):
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=25), seed=4)
    path = tmp_path / "records.csv"
    write_records_csv(records, path, columns=RECORD_COLUMNS)
    assert read_records_csv(path) == records


WHOLE_SECONDS = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(lambda v: v.replace(microsecond=0))


@given(st.lists(WHOLE_SECONDS, max_size=40))
def test_timestamp_column_text_is_str_of_each(values):
    assert _timestamp_texts(values) == [str(v) for v in values]


ODD_CELLS = st.sampled_from([
    None, "2019-03-04 07:30:00", 7, date(2019, 3, 4), datetime(2019, 3, 4, 7, 30, 0, 1),
    datetime(2019, 3, 4, 7, 30, tzinfo=timezone.utc),
])


@given(st.lists(WHOLE_SECONDS, min_size=1, max_size=20), ODD_CELLS, st.integers(0, 20))
def test_column_with_another_cell_is_left_to_str(values, odd, at):
    values.insert(at % (len(values) + 1), odd)
    assert _timestamp_texts(values) == values


@pytest.mark.parametrize(
    "rows, noise, hospital",
    [(1, 0.25, "bordighera"), (300, 0.0, "bordighera"), (300, 0.25, "bordighera"), (300, 0.25, "imperia"), (300, 0.25, "sanremo")],
)
def test_synth_record_files_are_the_reference_records_text(tmp_path, capsys, rows, noise, hospital):
    """``synth``'s records.csv and week.csv, byte for byte, are the
    reference generators' records written a ``str`` per cell."""
    argv = ["synth", "--rows", str(rows), "--noise", str(noise), "--hospital", hospital, "--seed", "6"]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 0
    config = SyntheticConfig(n_rows=rows, noise=noise)
    history = oracle.reference_generate_synthetic_dataset(config, 6)
    week = oracle.reference_generate_week(config, 6, HOSPITAL_SHAPES[hospital])[0]
    for name, records in (("records.csv", history), ("week.csv", week)):
        write_csv_rows(tmp_path / name, RECORD_COLUMNS, ([rec[c] for c in RECORD_COLUMNS] for rec in records))
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_registrations_csv_round_trip(tmp_path):
    _, regs, mss, shifts = generate_week(SyntheticConfig(), seed=8)
    assert load_week(tmp_path, regs, mss, shifts).registrations == tuple(regs)


def test_every_confidence_level_and_empty_cell_round_trip(tmp_path):
    """Confidence levels 1-4 are written as integers, and an absent actual
    duration or confidence as an empty cell, which reads back as None."""
    regs = [Registration(f"r{level}", 2, "GEN", 30, 40 if level % 2 else None, level) for level in (1, 2, 3, 4)]
    regs.append(Registration("r5", 3, "GEN", 30))
    inst = load_week(tmp_path, regs, [MssSlot("OR1", "GEN", "S1", 0)], [Shift("S1", 100)])
    assert inst.registrations == tuple(regs)
    assert [type(r.confidence) for r in inst.registrations] == [int] * 4 + [type(None)]
    assert (tmp_path / "registrations.csv").read_text(encoding="utf-8").splitlines() == [
        "id,priority,specialty,duration_min,actual_duration_min,confidence",
        "r1,2,GEN,30,40,1",
        "r2,2,GEN,30,,2",
        "r3,2,GEN,30,40,3",
        "r4,2,GEN,30,,4",
        "r5,3,GEN,30,,",
    ]
