"""Domain types shared across the toolkit, plus structural instance validation,
the column table that the one CSV reader, which every input file goes through,
returns, the reader of a week file as its records, and the CSV writer that
every output table goes through.

All types are immutable value objects. The row records (``Registration``,
``Assignment``, ``MssSlot``, ``Shift``), of which a week builds thousands,
and the ``ObjectiveVector`` the solvers compare are ``NamedTuple``s: built
by position, changed with ``_replace``, and equal to a plain tuple of their
fields. A week file's columns are its record's fields, in order. Invariants are
*not* enforced at construction time: malformed data is representable on
purpose, and ``validate_instance`` reports every violation as data rather
than raising.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, get_args, get_type_hints

PRIORITIES = (1, 2, 3, 4)


class Registration(NamedTuple):
    """A waiting-list entry: one requested surgical procedure.

    ``duration_min`` is the estimate the scheduler plans with; its source
    (actual, model prediction, department mean, ...) depends on the method.
    ``actual_duration_min`` is the post-hoc ground truth used for replay.
    ``confidence`` is the reliability level of the duration's prediction:
    1 High, 2 Moderate, 3 Low, 4 Very Low.
    """

    id: str
    priority: int
    specialty: str
    duration_min: int
    actual_duration_min: int | None = None
    confidence: int | None = None


class MssSlot(NamedTuple):
    """One cell of the master surgical schedule: a specialty's claim on an
    (OR, shift, day) slot."""

    or_id: str
    specialty: str
    shift_id: str
    day: int


class Shift(NamedTuple):
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

    @cached_property
    def registration_of(self) -> dict[str, Registration]:
        """Each registration by its id (a repeated id keeps its last), built
        at first use; every check and replay of the instance shares it."""
        return {r.id: r for r in self.registrations}


class Assignment(NamedTuple):
    """Placement of one registration into one MSS cell."""

    registration_id: str
    priority: int
    or_id: str
    day: int
    shift_id: str


class ObjectiveVector(NamedTuple):
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

    def to_json_dict(self) -> dict[str, int]:
        return dict(zip(("l6", "l5", "l4", "l3", "l2", "l1"), self))


@dataclass(frozen=True)
class Schedule:
    """A set of assignments plus the objective vector they realize."""

    assignments: tuple[Assignment, ...]
    objective: ObjectiveVector


@dataclass(frozen=True)
class Violation:
    """One structural defect found in a problem instance, with the position
    of the registration, shift or MSS cell at fault in its tuple."""

    code: str
    detail: str
    index: int | None = None


class InputFileError(Exception):
    """An input file that cannot be read, with the file, row and field at
    fault (None when the fault is in no field). Rows are numbered as lines
    of the file, the header being row 1."""

    def __init__(self, path: str | Path, row: int, field: str | None, problem: str):
        at = "" if field is None else f", field {field!r}"
        super().__init__(f"{path}: row {row}{at}: {problem}")


def not_utf8(path: str | Path) -> InputFileError:
    """The error for a file that does not decode as UTF-8, at the line of
    its first bad byte. A text reader decodes in blocks, so its line count
    is not that line: the file's bytes are read again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start + 1]
    return InputFileError(path, data.count(b"\n") + 1, None, f"byte {data[-1]:#04x} is not UTF-8")


@dataclass(frozen=True)
class RecordTable:
    """Rows as columns: ``columns`` maps each name, in order, to one value
    per row. ``lines`` holds each row's line in its file, for error
    messages, and ``widths`` how many of the header's columns the row had
    cells for. ``len`` is the row count. No table is changed in place, so
    derived tables share the value lists they do not change."""

    columns: dict[str, list]
    lines: list[int]
    widths: list[int]

    def __len__(self) -> int:
        return len(self.lines)

    def column(self, name: str) -> list:
        """The values of ``name``, all None where the table lacks it."""
        return self.columns[name] if name in self.columns else [None] * len(self)

    def take(self, rows: Sequence[int] | None, names: Sequence[str] | None = None) -> RecordTable:
        """The ``rows``, in their order (None: every row), of the columns
        ``names`` (all of them by default; a name the table lacks reads
        None). A row keeps its width only when every column is taken."""

        def pick(values: list) -> list:
            return values if rows is None else list(map(values.__getitem__, rows))

        columns = {name: pick(self.column(name)) for name in (self.columns if names is None else names)}
        lines = pick(self.lines)
        return RecordTable(columns, lines, pick(self.widths) if names is None else [len(columns)] * len(lines))

    def with_column(self, name: str, values: list) -> RecordTable:
        """This table with ``name``'s values replaced, or appended as its last column."""
        return RecordTable({**self.columns, name: values}, self.lines, self.widths)


def read_csv_table(
    path: str | Path,
    columns: Sequence[str] | None = None,
    parsers: Mapping[str, Callable[[str], Any]] = {},
    optional: Sequence[str] = (),
) -> RecordTable:
    """A CSV file as a table of ``columns`` (None: the header's, each
    optional, and a file without a header is an error), one row per line
    after the header, blank lines skipped and long rows cut. ``parsers``
    (``int`` or ``datetime.fromisoformat``) parse their columns as a whole.
    An ``optional`` column may be absent, and its empty cells read None.
    Raises ``InputFileError`` at a repeated column, a required one missing
    from the header, a byte that is not UTF-8, a cell over ``csv``'s field
    limit, or the first bad cell by row, then column order: a required cell
    empty or past the row's end, a parsed one that does not parse, or an
    integer that no float holds."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # as Excel saves UTF-8, with a byte-order mark
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None and columns is None:
                raise InputFileError(path, 1, "header", "empty records file")
            index: dict[str, int] = {}
            for at, name in enumerate(header or ()):
                if index.setdefault(name, at) != at:
                    raise InputFileError(path, 1, name, "column repeats in the header")
            if columns is None:
                columns = optional = header
            for name in columns:
                if name not in index and name not in optional:
                    raise InputFileError(path, 1, name, "column missing from the header")
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except csv.Error as exc:  # a cell longer than the field limit
        raise InputFileError(path, reader.line_num, None, str(exc)) from None
    n = len(index)
    widths = list(map(len, rows))
    ragged = widths.count(n) != len(widths)
    if ragged:  # cut or pad each row to the header, a missing cell as None
        rows = [row[:n] + [None] * (n - len(row)) for row in rows]
        widths = [min(width, n) for width in widths]
    ranks = {name: rank for rank, name in enumerate(columns)}
    table, bad = {}, []  # bad: (row, column rank, problem) of each column's first bad cell
    for name, texts in zip(index, zip(*rows)):  # in header order, one column's cells at a time
        rank = ranks.get(name)
        if rank is None:
            continue
        holes = ragged or "" in texts
        values = [text or None for text in texts] if holes else list(texts)
        if holes and name not in optional and None in values:  # an empty cell or one past the row's end
            bad.append((values.index(None), rank, "value missing"))
        parse = parsers.get(name)
        if parse is not None:
            try:
                values = [None if v is None else parse(v) for v in values] if holes else list(map(parse, values))
                if parse is int:
                    math.fsum(filter(None, values))  # takes each integer as a float
            except ValueError:
                i = next(i for i, v in enumerate(values) if v is not None and not _parses(parse, v))
                bad.append((i, rank, f"{values[i]!r} is not {'an integer' if parse is int else 'a timestamp'}"))
            except OverflowError:  # an integer, or the column's sum, beyond a float's range
                beyond = [i for i, v in enumerate(values) if v and abs(v) > sys.float_info.max]
                bad += [(i, rank, f"{texts[i]!r} is beyond a float's range") for i in beyond[:1]]
        table[name] = values
    if bad:
        i, rank, problem = min(bad)
        raise InputFileError(path, lines[i], columns[rank], problem)
    table = {name: table[name] if name in table else [None] * len(lines) for name in columns}  # in the order asked
    return RecordTable(table, lines, widths)


@cache
def _week_file_columns(row_type: type) -> tuple[dict[str, type], tuple[str, ...]]:
    """The parsers (``int`` for each ``int`` field) and the optional columns
    (the defaulted fields) of a week file of ``row_type``'s records."""
    hints = get_type_hints(row_type)
    parsers = {name: int for name in row_type._fields if hints[name] is int or int in get_args(hints[name])}
    return parsers, tuple(row_type._field_defaults)


def read_week_file(path: str | Path, row_type: type) -> tuple[tuple, list[int]]:
    """A week file as ``row_type`` records, one per row, and each row's
    line: its columns are the type's fields, its ``int`` fields parsed and
    its defaulted ones optional (``read_csv_table`` raises at a malformed file)."""
    parsers, optional = _week_file_columns(row_type)
    table = read_csv_table(path, row_type._fields, parsers, optional)
    return tuple(itertools.starmap(row_type, zip(*table.columns.values()))), table.lines


def _parses(parse: Callable[[str], Any], text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def write_csv_rows(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write ``header`` and then ``rows`` as a UTF-8 CSV file; None writes
    an empty cell and any other value its ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def validate_instance(instance: ProblemInstance) -> list[Violation]:
    """Check every structural invariant of a problem instance.

    Returns the full list of violations; an empty list means the instance
    is in solvable form. Violations are data, not exceptions.
    """
    violations: list[Violation] = []
    shift_ids = {s.shift_id for s in instance.shifts}

    seen_reg_ids: set[str] = set()
    for i, reg in enumerate(instance.registrations):
        if reg.id in seen_reg_ids:
            violations.append(Violation("duplicate_registration_id", f"registration id {reg.id!r} repeats", i))
        seen_reg_ids.add(reg.id)
        if reg.priority not in PRIORITIES:
            violations.append(Violation("priority_out_of_range", f"registration {reg.id!r} priority {reg.priority}", i))
        if reg.duration_min < 1:
            violations.append(Violation("non_positive_duration", f"registration {reg.id!r} duration {reg.duration_min}", i))
        if reg.actual_duration_min is not None and reg.actual_duration_min < 1:
            violations.append(
                Violation("non_positive_actual_duration", f"registration {reg.id!r} actual duration {reg.actual_duration_min}", i)
            )
        if reg.confidence is not None and reg.confidence not in PRIORITIES:
            violations.append(
                Violation("confidence_out_of_range", f"registration {reg.id!r} confidence level {reg.confidence}", i)
            )

    for i, shift in enumerate(instance.shifts):
        if shift.capacity_min < 1:
            violations.append(Violation("non_positive_capacity", f"shift {shift.shift_id!r} capacity {shift.capacity_min}", i))

    seen_cells: set[tuple[str, str, int]] = set()
    for i, slot in enumerate(instance.mss):
        key = (slot.or_id, slot.shift_id, slot.day)
        if key in seen_cells:
            violations.append(
                Violation("duplicate_mss_cell", f"cell (or={slot.or_id!r}, shift={slot.shift_id!r}, day={slot.day}) repeats", i)
            )
        seen_cells.add(key)
        if slot.shift_id not in shift_ids:
            violations.append(Violation("dangling_shift_id", f"MSS cell references unknown shift {slot.shift_id!r}", i))
        if not (0 <= slot.day < instance.planning_days):
            violations.append(Violation("day_out_of_range", f"MSS cell day {slot.day} outside [0, {instance.planning_days})", i))

    if instance.emergency_or_id is not None:
        if all(slot.or_id != instance.emergency_or_id for slot in instance.mss):
            violations.append(Violation("emergency_or_not_in_mss", f"emergency OR {instance.emergency_or_id!r} appears in no MSS cell"))

    return violations
