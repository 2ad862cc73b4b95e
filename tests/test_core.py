"""Domain-type validation and serialization round-trip properties."""

import csv
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instance, load_week, reg

from orsched.core import (
    Assignment,
    InputFileError,
    MssSlot,
    ProblemInstance,
    Registration,
    Shift,
    read_week_file,
    validate_instance,
)


def test_well_formed_instance_has_empty_report():
    inst = instance(
        [reg("a", 1, duration=5), reg("b", 3, duration=9)],
        [("R1", "GEN", "S1", 0)],
        {"S1": 20},
    )
    assert validate_instance(inst) == []


def test_dangling_shift_reported():
    inst = ProblemInstance(
        registrations=(),
        mss=(MssSlot("R1", "GEN", "S9", 0),),
        shifts=(Shift("S1", 100),),
        planning_days=1,
    )
    report = validate_instance(inst)
    assert [v.code for v in report] == ["dangling_shift_id"]


def test_zero_duration_reported():
    inst = instance([reg("a", 2, duration=0)], [("R1", "GEN", "S1", 0)], {"S1": 20})
    assert any(v.code == "non_positive_duration" for v in validate_instance(inst))


def test_every_corruption_kind_detected():
    base = instance(
        [reg("a", 1, duration=5, actual=6, confidence=2), reg("b", 2, duration=3)],
        [("R1", "GEN", "S1", 0), ("R2", "GEN", "S1", 1)],
        {"S1": 50},
        emergency_or_id="R1",
        planning_days=2,
    )
    assert validate_instance(base) == []

    def variant(**overrides):
        fields = dict(
            registrations=base.registrations,
            mss=base.mss,
            shifts=base.shifts,
            planning_days=base.planning_days,
            emergency_or_id=base.emergency_or_id,
        )
        fields.update(overrides)
        return ProblemInstance(**fields)

    cases = {
        "duplicate_registration_id": variant(registrations=base.registrations + (reg("a", 2),)),
        "priority_out_of_range": variant(registrations=(reg("a", 5),)),
        "non_positive_actual_duration": variant(registrations=(reg("a", 1, actual=0),)),
        "confidence_out_of_range": variant(
            registrations=(Registration("a", 1, "GEN", 5, None, 9),)
        ),
        "non_positive_capacity": variant(shifts=(Shift("S1", 0),)),
        "duplicate_mss_cell": variant(mss=base.mss + (MssSlot("R1", "ORT", "S1", 0),)),
        "day_out_of_range": variant(mss=(MssSlot("R1", "GEN", "S1", 7),)),
        "emergency_or_not_in_mss": variant(emergency_or_id="R9"),
    }
    for code, inst in cases.items():
        assert any(v.code == code for v in validate_instance(inst)), code


_ID = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8)
_SPECIALTY = st.sampled_from(["GEN", "ORT", "URO", "OCU"])


@st.composite
def valid_instances(draw):
    n_days = draw(st.integers(1, 3))
    shifts = {f"S{i}": draw(st.integers(1, 500)) for i in range(draw(st.integers(1, 2)))}
    n_cells = draw(st.integers(1, 5))
    cells = []
    seen = set()
    for _ in range(n_cells):
        key = (
            f"R{draw(st.integers(1, 3))}",
            draw(st.sampled_from(sorted(shifts))),
            draw(st.integers(0, n_days - 1)),
        )
        if key in seen:
            continue
        seen.add(key)
        cells.append((key[0], draw(_SPECIALTY), key[1], key[2]))
    ids = draw(st.lists(_ID, min_size=0, max_size=6, unique=True))
    regs = [
        Registration(
            id=rid,
            priority=draw(st.integers(1, 4)),
            specialty=draw(_SPECIALTY),
            duration_min=draw(st.integers(1, 300)),
            actual_duration_min=draw(st.one_of(st.none(), st.integers(1, 300))),
            confidence=draw(st.one_of(st.none(), st.integers(1, 4))),
        )
        for rid in ids
    ]
    emergency = cells[0][0] if cells and draw(st.booleans()) else None
    return instance(regs, cells, shifts, emergency_or_id=emergency, planning_days=n_days)


@given(valid_instances())
def test_valid_instances_validate_clean(inst):
    assert validate_instance(inst) == []


@given(valid_instances())
@settings(max_examples=40)
def test_csv_round_trip_preserves_structure(tmp_path_factory, inst):
    out = tmp_path_factory.mktemp("roundtrip")
    rebuilt = load_week(out, inst.registrations, inst.mss, inst.shifts, emergency_or_id=inst.emergency_or_id)
    # no file holds the horizon: the week runs to the MSS's last day
    assert rebuilt == dataclasses.replace(inst, planning_days=max((s.day for s in inst.mss), default=0) + 1)


def test_objective_vector_json_keys():
    from orsched.core import ObjectiveVector

    vec = ObjectiveVector(0, 1, 2, 3, 9, 4)
    assert vec.to_json_dict() == {"l6": 0, "l5": 1, "l4": 2, "l3": 3, "l2": 9, "l1": 4}


# each week file's record type, a well-formed row of it, its integer fields
# and its optional (defaulted) fields
WEEK_FILES = [
    (
        Registration,
        ["W1", "2", "GEN", "60", "55", "1"],
        ("priority", "duration_min", "actual_duration_min", "confidence"),
        ("actual_duration_min", "confidence"),
    ),
    (MssSlot, ["OR1", "GEN", "MAIN", "0"], ("day",), ()),
    (Shift, ["MAIN", "360"], ("capacity_min",), ()),
    (Assignment, ["W1", "2", "OR1", "0", "MAIN"], ("priority", "day"), ()),
]


def _write_rows(path, header, *rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


@pytest.mark.parametrize("row_type, row, integers, optional", WEEK_FILES, ids=[t.__name__ for t, *_ in WEEK_FILES])
def test_week_file_integer_and_optional_columns(tmp_path, row_type, row, integers, optional):
    """A week file's integer fields parse, a non-integer in one is rejected
    at its row and field, and a defaulted column may be left out of the
    header and reads None; any other column may not."""
    header = list(row_type._fields)
    path = tmp_path / "week_file.csv"
    records, lines = read_week_file(_write_rows(path, header, row), row_type)
    assert records == (row_type(*(int(v) if f in integers else v for f, v in zip(header, row))),) and lines == [2]
    for field in integers:
        bad = [("x" if f == field else v) for f, v in zip(header, row)]
        with pytest.raises(InputFileError, match=rf"row 3, field '{field}': 'x' is not an integer"):
            read_week_file(_write_rows(path, header, row, bad), row_type)
    for field in header:
        kept = [f != field for f in header]
        _write_rows(path, [f for f, k in zip(header, kept) if k], [v for v, k in zip(row, kept) if k])
        if field in optional:
            assert getattr(read_week_file(path, row_type)[0][0], field) is None
        else:
            with pytest.raises(InputFileError, match=rf"row 1, field '{field}': column missing from the header"):
                read_week_file(path, row_type)
