"""The column-at-a-time readers and encoders against their cell-by-cell
references in ``oracle.py``, on generated files and mixed-type records."""

import csv
import io
import math
import os
import random
import time
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import records_table
from oracle import (
    reference_categories,
    reference_numeric_encoding,
    reference_read_csv_rows,
    reference_read_records_csv,
    reference_transform,
)

from orsched.core import InputFileError, read_csv_table
from orsched.ingest import (
    RECORD_COLUMNS,
    CleanDataset,
    SyntheticConfig,
    _numeric_encoding,
    generate_synthetic_dataset,
    preprocess,
    read_records_csv,
    write_records_csv,
)
from orsched.predict import encode_features

TEXTS = ("plain", "a,b", 'say "hi"', "two\nlines", " padded ", "0", "ü")


def _outcome(read, *args):
    """What a reader gave: its rows with each value's type, or its error."""
    try:
        rows = read(*args)
    except InputFileError as exc:
        return ("error", str(exc))
    return ("ok", [[(k, type(v), v) for k, v in row.items()] for row in rows])


def _rows(table):
    """A table's rows as the records a reader of dicts gives: each row's
    first ``width`` columns."""
    header = list(table.columns)
    return [{name: table.columns[name][i] for name in header[:width]} for i, width in enumerate(table.widths)]


def _read_csv_rows(path, columns, integers, optional):
    """``read_csv_table``'s rows as dicts of every column asked for."""
    table = read_csv_table(path, columns, dict.fromkeys(integers, int), optional)
    return [dict(zip(table.columns, row)) for row in zip(*table.columns.values())]


def _write(path, header, rows, rng):
    """A CSV file: rows of None are blank lines, line ends vary."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(("\r\n", "\n")))
    if header is not None:
        writer.writerow(header)
    for row in rows:
        if row is None:
            out.write("\n")
        else:
            writer.writerow(row)
    path.write_text(out.getvalue(), encoding="utf-8")


def _ragged(rng, cells):
    """The cells of one row, sometimes cut short or run long."""
    roll = rng.random()
    if roll < 0.08 and cells:
        return cells[: rng.randrange(len(cells))] or [rng.choice(TEXTS)]
    if roll < 0.16:
        return cells + [rng.choice(TEXTS) for _ in range(rng.randint(1, 3))]
    return cells


def _header(rng, pool):
    header = rng.sample(pool, rng.randint(1, min(len(pool), 8)))
    if rng.random() < 0.08:
        header.insert(rng.randrange(len(header) + 1), rng.choice(header))
    return header


def _record_cell(rng, column, pattern):
    roll = rng.random()
    if roll < 0.12:
        return ""
    if column in ("ETA", "DURATA"):
        if roll < 0.16:
            return rng.choice(("x", "4.5", "1e3", "--1", "１２x"))
        return rng.choice((str(rng.randint(-5, 400)), " 7", "+12", "1_000"))
    if column in ("INGRESSOSALA", "USCITASALA", "DATANASCITA"):
        if roll < 0.16:
            return rng.choice(("not-a-time", "2019-13-01 08:00", "2019-03-04 25:00", "2019/03/04"))
        stamp = datetime(2019, 3, 4, 7, 30) + timedelta(minutes=rng.randint(-10**6, 10**6))
        if pattern is not None:
            return stamp.strftime(pattern)
        return rng.choice((
            stamp.isoformat(sep=" "),
            stamp.isoformat(),
            (stamp + timedelta(microseconds=rng.randint(1, 999999))).isoformat(sep=" "),
            stamp.date().isoformat(),
            stamp.isoformat() + "+02:00",
        ))
    return rng.choice(TEXTS)


RECORD_POOL = ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "ETA", "DURATA", "INGRESSOSALA", "USCITASALA", "DATANASCITA", "NOTE", "A,B"]


def test_records_reader_matches_reference_on_generated_files(tmp_path):
    rng = random.Random(707)
    errors = 0
    for case in range(260):
        path = tmp_path / f"records_{case}.csv"
        pattern = "%Y-%m-%d %H:%M" if case % 5 == 4 else None
        if case % 50 == 0:
            header, rows = None, []
        else:
            header = _header(rng, RECORD_POOL)
            rows = [
                None if rng.random() < 0.08 else _ragged(rng, [_record_cell(rng, c, pattern) for c in header])
                for _ in range(rng.randint(0, 12))
            ]
        _write(path, header, rows, rng)
        if case % 13 == 6:  # a byte that is not UTF-8 opens one of the lines
            lines = path.read_bytes().split(b"\n")
            lines[case % len(lines)] = b"\xff" + lines[case % len(lines)]
            path.write_bytes(b"\n".join(lines))
        want = _outcome(reference_read_records_csv, path)
        assert _outcome(lambda p: _rows(read_records_csv(p)), path) == want, (case, path.read_bytes())
        errors += want[0] == "error"
    assert 40 <= errors <= 220  # both outcomes are exercised


CSV_COLUMNS = ["id", "priority", "specialty", "duration_min", "confidence"]
CSV_INTEGERS = ("priority", "duration_min", "confidence")
CSV_OPTIONAL = ("confidence",)


def _csv_cell(rng, column):
    roll = rng.random()
    if roll < 0.06:
        return ""
    if column in CSV_INTEGERS:
        if roll < 0.09:
            return rng.choice(("x", "2.0", "", " "))
        return rng.choice((str(rng.randint(0, 400)), " 3", "+4"))
    return rng.choice(TEXTS)


def test_csv_rows_reader_matches_reference_on_generated_files(tmp_path):
    rng = random.Random(808)
    errors = 0
    for case in range(260):
        path = tmp_path / f"rows_{case}.csv"
        pool = CSV_COLUMNS + ["extra", "note"]
        header = _header(rng, pool) if case % 2 else rng.sample(pool, len(pool))
        if case % 50 == 0:
            header = None
        rows = [
            None if rng.random() < 0.08 else _ragged(rng, [_csv_cell(rng, c) for c in header or ()])
            for _ in range(rng.randint(0, 12))
        ]
        _write(path, header, rows, rng)
        args = (path, CSV_COLUMNS, CSV_INTEGERS, CSV_OPTIONAL)
        want = _outcome(reference_read_csv_rows, *args)
        assert _outcome(_read_csv_rows, *args) == want, (case, path.read_text())
        errors += want[0] == "error"
    assert 40 <= errors <= 220


def test_repeated_column_is_rejected_at_row_one(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("ETA,ETA,PROGRESSIVO\n7,8,P1\n")
    with pytest.raises(InputFileError, match=r"row 1, field 'ETA': column repeats in the header"):
        read_records_csv(path)
    with pytest.raises(InputFileError, match=r"row 1, field 'ETA': column repeats in the header"):
        read_csv_table(path, ["PROGRESSIVO"])


def test_cell_over_the_field_limit_is_rejected_at_its_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("PROGRESSIVO,NOTE\nP1,a\n\nP2," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(InputFileError, match=r"row 4: field larger than field limit"):
        read_records_csv(path)
    with pytest.raises(InputFileError, match=r"row 4: field larger than field limit"):
        read_csv_table(path, ["PROGRESSIVO"])


def test_integer_beyond_float_range_is_rejected_at_its_cell(tmp_path):
    """Durations, ages and the like go through floats: an integer no float
    holds is an input error, not an ``OverflowError`` later."""
    huge = "9" * 309
    path = tmp_path / "records.csv"
    path.write_text(f"ETA,DURATA\n7,{'1' + '0' * 308}\n,{huge}\nx,-{huge}\n")
    with pytest.raises(InputFileError, match=rf"row 3, field 'DURATA': '{huge}' is beyond a float's range"):
        read_records_csv(path)
    with pytest.raises(InputFileError, match=r"row 3, field 'DURATA'"):  # before row 4's 'x'
        read_csv_table(path, ["ETA", "DURATA"], {"ETA": int, "DURATA": int}, optional=["ETA"])
    path.write_text(f"day\n{'9' * 308}\n-{'9' * 308}\n")
    assert read_csv_table(path, ["day"], {"day": int}).columns["day"] == [int("9" * 308), -int("9" * 308)]


def test_short_first_row_sets_the_preprocess_columns(tmp_path):
    """A first row cut to 20 cells makes those columns, with the derived
    DURATA, the ones ``preprocess`` cleans and prunes, as the first record's
    keys did when records were dicts."""
    path = tmp_path / "records.csv"
    write_records_csv(generate_synthetic_dataset(SyntheticConfig(n_rows=300), seed=3), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1] = rows[1][:20]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    table = read_records_csv(path)
    assert table.widths[:2] == [20, len(RECORD_COLUMNS)]
    clean, log = preprocess(table, seed=0)
    assert clean.kept_features == [
        "PROGRESSIVO", "TIPORICOVERO", "SESSO", "ETA", "REPARTO", "PRES ANESTES", "STAMP", "CC", "CA", "ANESTLOC",
        "DIAGNOSI1", "INGRESSOSALA", "REGRICOVERO", "CHIRURGHI_1", "ICD1", "BLOCCO", "DURATA",
    ]
    assert [(s.stage, s.rows_in, s.rows_out, s.features_in, s.features_out, s.note) for s in log.stages] == [
        ("derive_duration", 300, 300, 21, 21, ""),
        ("group_rare_diagnoses", 300, 300, 21, 21, "23 rows regrouped"),
        ("iqr_filter", 300, 276, 21, 21, "3 passes to fixpoint"),
        ("prune_correlated_features", 276, 276, 21, 17, ""),
    ]


# -- encoders ---------------------------------------------------------------------


AWARE = timezone(timedelta(hours=5, minutes=30))


def _value(rng, kind):
    if kind == "int":
        return rng.choice((rng.randint(-10**6, 10**6), 2**53 + 1, -(2**63), 2**64 + 3, 10**20))
    if kind == "float":
        return rng.choice((rng.uniform(-1e6, 1e6), math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "datetime":
        stamp = datetime(1, 1, 1) + timedelta(microseconds=rng.randrange(315537897600000000))
        return stamp.replace(microsecond=0) if rng.random() < 0.5 else stamp
    if kind == "aware":
        return datetime(2019, 3, 31, 1, 30, tzinfo=AWARE) + timedelta(seconds=rng.randint(-10**9, 10**9), microseconds=rng.randrange(10**6))
    if kind == "str":
        return rng.choice(("CHIR", "ORTO", "UROL", "", "1", "None", "é"))
    if kind == "other":
        return rng.choice((date(2019, 3, 4), (1, 2), np.float64(2.5), np.int64(3), np.bool_(True)))
    return None


# column name -> the kinds its values are drawn from
MIXES = {
    "ints": ("int",), "floats": ("float",), "bools": ("bool",), "numbers": ("int", "float", "bool"),
    "stamps": ("datetime",), "aware": ("datetime", "aware"), "stamps_none": ("datetime", "none"),
    "texts": ("str",), "texts_none": ("str", "none"), "nones": ("none",),
    "mixed": ("int", "float", "bool", "datetime", "aware", "str", "none", "other"),
}


def _mixed_records(rng, n):
    records = []
    for _ in range(n):
        rec = {}
        for column, kinds in MIXES.items():
            if rng.random() < 0.95:  # else the record lacks the column
                rec[column] = _value(rng, rng.choice(kinds))
        records.append(rec)
    return records


def test_numeric_encoding_matches_reference_on_mixed_columns():
    rng = random.Random(909)
    for case in range(60):
        records = _mixed_records(rng, rng.randint(0, 40))
        columns = rng.sample(list(MIXES), rng.randint(1, len(MIXES)))
        got = _numeric_encoding(records_table(records), columns)
        assert got.tobytes() == reference_numeric_encoding(records, columns).tobytes(), (case, columns)


def test_numeric_encoding_ignores_the_host_time_zone():
    table = generate_synthetic_dataset(SyntheticConfig(n_rows=400), seed=1)
    columns = [c for c in RECORD_COLUMNS if c != "DURATA"]
    saved = os.environ.get("TZ")
    matrices, local_midsummer = [], []
    try:
        for zone in ("UTC", "America/New_York", "Australia/Lord_Howe"):
            os.environ["TZ"] = zone
            time.tzset()
            matrices.append(_numeric_encoding(table, columns).tobytes())
            local_midsummer.append(datetime(2019, 7, 1).timestamp())
    finally:
        if saved is None:
            os.environ.pop("TZ", None)
        else:
            os.environ["TZ"] = saved
        time.tzset()
    assert len(set(local_midsummer)) == 3  # the zones were in force
    assert matrices[0] == matrices[1] == matrices[2]
    records = [dict(zip(table.columns, row)) for row in zip(*table.columns.values())]
    assert matrices[0] == reference_numeric_encoding(records, columns).tobytes()


def _dataset(rng, n):
    """Records whose columns a FeatureEncoder types by their first populated
    value, with later values of other types."""
    records = []
    for i in range(n):
        rec = {"PROGRESSIVO": f"P{i}", "DURATA": rng.randint(1, 300)}
        for column, kinds in (
            ("ETA", ("int", "int", "float", "bool", "str", "none")),
            ("SCORE", ("none", "float", "int", "datetime")),
            ("DATAINTERVENTO", ("datetime", "aware", "none", "str")),
            ("REPARTO", ("str", "str", "none", "int", "float", "bool")),
            ("FLAG", ("bool", "none", "str")),
            ("MIXED", tuple(kind for kinds in MIXES.values() for kind in kinds)),
        ):
            if i == 0:
                kinds = kinds[:1]
            if rng.random() < 0.95:
                rec[column] = _value(rng, rng.choice(kinds))
        records.append(rec)
    return records


def test_encoder_matches_reference_on_mixed_columns():
    rng = random.Random(1010)
    kept = ["PROGRESSIVO", "ETA", "SCORE", "DATAINTERVENTO", "REPARTO", "FLAG", "MIXED", "DURATA"]
    for case in range(60):
        records = _dataset(rng, rng.randint(1, 40))
        X, y, encoder = encode_features(CleanDataset(records_table(records), kept))
        for column in encoder.categorical_columns:
            want = reference_categories(records, column)
            assert list(encoder.categories[column].items()) == list(want.items()), (case, column)
        assert X.tobytes() == reference_transform(encoder, records).tobytes(), case
        assert y.tobytes() == np.array([float(r["DURATA"]) for r in records]).tobytes()
        unseen = _dataset(rng, rng.randint(0, 20))  # new categories map to the reserved code
        table = records_table(unseen)
        assert encoder.transform(table).tobytes() == reference_transform(encoder, unseen).tobytes(), case
        rows = [rng.randrange(len(unseen)) for _ in range(rng.randint(0, 25))] if unseen else []
        picked = [unseen[i] for i in rows]  # in any order, with repeats
        assert encoder.transform(table, rows).tobytes() == reference_transform(encoder, picked).tobytes(), case
