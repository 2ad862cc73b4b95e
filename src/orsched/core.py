"""Domain types shared across the toolkit, plus structural instance validation
and the CSV row reader that every input file goes through.

All types are immutable value objects. Invariants are *not* enforced at
construction time: malformed data is representable on purpose, and
``validate_instance`` reports every violation as data rather than raising.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

PRIORITIES = (1, 2, 3, 4)

#: Confidence levels attached to duration predictions.
#: 1 = High, 2 = Moderate, 3 = Low, 4 = Very Low.
CONFIDENCE_NAMES = {1: "High", 2: "Moderate", 3: "Low", 4: "Very Low"}


@dataclass(frozen=True)
class ConfidenceLevel:
    """Discrete reliability bucket of a duration prediction (1=High .. 4=Very Low)."""

    level: int

    @property
    def name(self) -> str:
        return CONFIDENCE_NAMES.get(self.level, f"level-{self.level}")


@dataclass(frozen=True)
class Registration:
    """A waiting-list entry: one requested surgical procedure.

    ``duration_min`` is the estimate the scheduler plans with; its source
    (actual, model prediction, department mean, ...) depends on the method.
    ``actual_duration_min`` is the post-hoc ground truth used for replay.
    """

    id: str
    priority: int
    specialty: str
    duration_min: int
    actual_duration_min: int | None = None
    confidence: ConfidenceLevel | None = None


@dataclass(frozen=True)
class MssSlot:
    """One cell of the master surgical schedule: a specialty's claim on an
    (OR, shift, day) slot."""

    or_id: str
    specialty: str
    shift_id: str
    day: int


@dataclass(frozen=True)
class Shift:
    """A shift type and its capacity in minutes."""

    shift_id: str
    capacity_min: int


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the solver needs: waiting list, MSS cells, shift capacities.

    ``emergency_or_id`` names the room kept nearly free for emergencies
    (at most one elective patient over the whole horizon); ``None`` disables
    the rule. Day indices are 0-based over ``planning_days``.
    """

    registrations: tuple[Registration, ...]
    mss: tuple[MssSlot, ...]
    shifts: tuple[Shift, ...]
    planning_days: int
    emergency_or_id: str | None = None


@dataclass(frozen=True)
class Assignment:
    """Placement of one registration into one MSS cell."""

    registration_id: str
    priority: int
    or_id: str
    day: int
    shift_id: str


@dataclass(frozen=True)
class ObjectiveVector:
    """Lexicographic objective, best-first component order.

    The four unassigned counts are the priority tiers (an unassigned
    registration of priority p costs 1 at the tier for p; priority-1 coverage
    is a hard constraint, so ``unassigned_p1`` is 0 for any feasible
    schedule). ``max_cell_confidence`` is the largest per-cell sum of
    confidence levels over *all* MSS cells (empty cells count as 0), and
    ``confidence_spread`` is that maximum minus the smallest per-cell sum.
    """

    unassigned_p1: int
    unassigned_p2: int
    unassigned_p3: int
    unassigned_p4: int
    max_cell_confidence: int
    confidence_spread: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.unassigned_p1,
            self.unassigned_p2,
            self.unassigned_p3,
            self.unassigned_p4,
            self.max_cell_confidence,
            self.confidence_spread,
        )

    def to_json_dict(self) -> dict[str, int]:
        t = self.as_tuple()
        return {"l6": t[0], "l5": t[1], "l4": t[2], "l3": t[3], "l2": t[4], "l1": t[5]}


@dataclass(frozen=True)
class Schedule:
    """A set of assignments plus the objective vector they realize."""

    assignments: tuple[Assignment, ...]
    objective: ObjectiveVector

    def assigned_ids(self) -> set[str]:
        return {a.registration_id for a in self.assignments}


@dataclass(frozen=True)
class Violation:
    """One structural defect found in a problem instance, with the position
    of the registration, shift or MSS cell at fault in its tuple."""

    code: str
    detail: str
    index: int | None = None


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str, index: int | None = None) -> None:
        self.violations.append(Violation(code, detail, index))

    def __iter__(self):
        return iter(self.violations)


class InputFileError(Exception):
    """An input file that cannot be read, with the file, row and field at
    fault. Rows are numbered as lines of the file, the header being row 1."""

    def __init__(self, path: str | Path, row: int, field: str, problem: str):
        super().__init__(f"{path}: row {row}, field {field!r}: {problem}")


def read_csv_rows(
    path: str | Path, columns: Sequence[str], integers: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[dict[str, Any]]:
    """Rows of a CSV file as dicts of ``columns``, with the ``integers``
    parsed. A column in ``optional`` may be absent or empty and then reads
    None. Raises ``InputFileError`` at the first missing column, missing
    value or malformed integer."""
    kinds = [(column, column in optional, column in integers) for column in columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column, is_optional, _ in kinds:
            if not is_optional and column not in (reader.fieldnames or ()):
                raise InputFileError(path, 1, column, "column missing from the header")
        for row in reader:
            values: dict[str, Any] = {}
            for column, is_optional, is_integer in kinds:
                value = row.get(column)
                if is_optional and not value:
                    value = None
                elif value is None:
                    raise InputFileError(path, reader.line_num, column, "value missing")
                elif is_integer:
                    try:
                        value = int(value)
                    except ValueError:
                        raise InputFileError(path, reader.line_num, column, f"{value!r} is not an integer") from None
                values[column] = value
            yield values


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Check every structural invariant of a problem instance.

    Returns the full list of violations; an empty report means the instance
    is in solvable form. Violations are data, not exceptions.
    """
    report = ValidationReport()
    shift_ids = {s.shift_id for s in instance.shifts}

    seen_reg_ids: set[str] = set()
    for i, reg in enumerate(instance.registrations):
        if reg.id in seen_reg_ids:
            report.add("duplicate_registration_id", f"registration id {reg.id!r} repeats", i)
        seen_reg_ids.add(reg.id)
        if reg.priority not in PRIORITIES:
            report.add("priority_out_of_range", f"registration {reg.id!r} priority {reg.priority}", i)
        if reg.duration_min < 1:
            report.add("non_positive_duration", f"registration {reg.id!r} duration {reg.duration_min}", i)
        if reg.actual_duration_min is not None and reg.actual_duration_min < 1:
            report.add(
                "non_positive_actual_duration",
                f"registration {reg.id!r} actual duration {reg.actual_duration_min}",
                i,
            )
        if reg.confidence is not None and reg.confidence.level not in PRIORITIES:
            report.add(
                "confidence_out_of_range",
                f"registration {reg.id!r} confidence level {reg.confidence.level}",
                i,
            )

    for i, shift in enumerate(instance.shifts):
        if shift.capacity_min < 1:
            report.add("non_positive_capacity", f"shift {shift.shift_id!r} capacity {shift.capacity_min}", i)

    seen_cells: set[tuple[str, str, int]] = set()
    for i, slot in enumerate(instance.mss):
        key = (slot.or_id, slot.shift_id, slot.day)
        if key in seen_cells:
            report.add("duplicate_mss_cell", f"cell (or={slot.or_id!r}, shift={slot.shift_id!r}, day={slot.day}) repeats", i)
        seen_cells.add(key)
        if slot.shift_id not in shift_ids:
            report.add("dangling_shift_id", f"MSS cell references unknown shift {slot.shift_id!r}", i)
        if not (0 <= slot.day < instance.planning_days):
            report.add(
                "day_out_of_range",
                f"MSS cell day {slot.day} outside [0, {instance.planning_days})",
                i,
            )

    if instance.emergency_or_id is not None:
        if all(slot.or_id != instance.emergency_or_id for slot in instance.mss):
            report.add(
                "emergency_or_not_in_mss",
                f"emergency OR {instance.emergency_or_id!r} appears in no MSS cell",
            )

    return report
