"""Schedule quality evaluation: replay a schedule against the actual surgery
durations, report its per-cell occupancy and booking counts, give each
scheduling method (VBA, Conf, Pred, Dep, Surg) its planned durations and
solve with them, and write the per-method report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from orsched.core import ProblemInstance, Registration, Schedule
from orsched.predict import ape, confidence_level
from orsched.solve import CellKey, SolveLimits, solve_auto

# the durations each method plans with: the actual ones, the model's
# predictions, or the historical mean of the registration's department or
# procedure type (the keys of the model artifact's baselines)
SOURCES = {"VBA": "actual", "Conf": "predicted", "Pred": "predicted", "Dep": "department", "Surg": "procedure_type"}
METHODS = tuple(SOURCES)

_METHOD_ALIASES = {m.lower(): m for m in METHODS}


class EvaluateError(Exception):
    pass


def normalize_method(name: str) -> str:
    try:
        return _METHOD_ALIASES[name.lower().rstrip(".")]
    except KeyError:
        raise EvaluateError(f"unknown method {name!r}; expected one of {METHODS}") from None


@dataclass(frozen=True)
class CellOccupancy:
    key: CellKey
    planned_min: int
    actual_min: int
    capacity_min: int

    @property
    def occupancy_pct(self) -> float:
        return 100.0 * self.actual_min / self.capacity_min


@dataclass(frozen=True)
class OccupancyTable:
    """Realized usage of every cell that hosts at least one patient."""

    cells: tuple[CellOccupancy, ...]


@dataclass(frozen=True)
class MethodReport:
    method: str
    occ_mean: float
    occ_std: float
    occ_min: float
    occ_max: float
    overbooked: int
    underbooked: int


def replay(schedule: Schedule, instance: ProblemInstance) -> OccupancyTable:
    """Realized per-cell usage from actual durations.

    Only cells with at least one assignment appear; structurally empty cells
    say nothing about booking quality.
    """
    regs = instance.registration_of
    missing = sorted(
        a.registration_id
        for a in schedule.assignments
        if regs.get(a.registration_id) is None or regs[a.registration_id].actual_duration_min is None
    )
    if missing:
        raise EvaluateError(f"missing actual durations for: {', '.join(missing)}")

    capacity = {s.shift_id: s.capacity_min for s in instance.shifts}
    planned: dict[tuple[str, int, str], int] = {}  # by cell, as a CellKey's fields
    actual: dict[tuple[str, int, str], int] = {}
    for a in schedule.assignments:
        key = (a.or_id, a.day, a.shift_id)
        reg = regs[a.registration_id]
        planned[key] = planned.get(key, 0) + reg.duration_min
        actual[key] = actual.get(key, 0) + (reg.actual_duration_min or 0)

    cells = tuple(
        CellOccupancy(CellKey(*key), planned[key], actual[key], capacity[key[2]])
        for key in sorted(planned)
    )
    return OccupancyTable(cells)


# ---------------------------------------------------------------------------
# per-method durations and solves


def apply_method_durations(
    instance: ProblemInstance, method: str, estimates: Mapping[str, Sequence[float]]
) -> ProblemInstance:
    """The instance the given method actually solves, planned with its
    source's durations (``SOURCES``): the actual ones, or ``estimates[source]``,
    one per registration in instance order. A method that plans with
    predictions gets each prediction's confidence level from its APE against
    the actual duration, known only in hindsight (a registration without an
    actual keeps its own confidence). The others keep the registration's own
    confidence, None when it has none."""
    method = normalize_method(method)
    source = SOURCES[method]
    regs = instance.registrations
    values = [reg.actual_duration_min for reg in regs] if source == "actual" else estimates.get(source, ())
    if len(values) != len(regs) or None in values:
        raise EvaluateError(f"method {method} needs one {source} duration for each of the {len(regs)} registrations")
    with_ape = source == "predicted"
    registrations = []
    for reg, estimate in zip(regs, values):
        actual = reg.actual_duration_min
        confidence = reg.confidence
        if with_ape and actual is not None:
            confidence = confidence_level(ape(actual, estimate))
        registrations.append(
            Registration(reg.id, reg.priority, reg.specialty, max(1, round(estimate)), actual, confidence)
        )
    return replace(instance, registrations=tuple(registrations))


def evaluate_schedule(method: str, schedule: Schedule, instance: ProblemInstance) -> MethodReport:
    """The method's report from the replay of its schedule: the mean,
    population standard deviation, min and max of the used cells' occupancy,
    and the cells above 100 % (overbooked) and below 80 % (underbooked); a
    boundary value counts as neither."""
    values = [c.occupancy_pct for c in replay(schedule, instance).cells]
    if not values:
        raise EvaluateError("occupancy stats need at least one used cell")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return MethodReport(
        method=normalize_method(method),
        occ_mean=mean,
        occ_std=var**0.5,
        occ_min=min(values),
        occ_max=max(values),
        overbooked=sum(v > 100.0 for v in values),
        underbooked=sum(v < 80.0 for v in values),
    )


def solve_method(
    instance: ProblemInstance,
    method: str,
    estimates: Mapping[str, Sequence[float]],
    limits: SolveLimits = SolveLimits(),
    solver: str | None = None,
) -> tuple[ProblemInstance, Schedule, bool]:
    """Solve the week with one method's durations: the instance it planned
    with, its schedule, and whether that schedule is a proven optimum.
    Confidence tiers enter the solver objective only for Conf."""
    method = normalize_method(method)
    method_instance = apply_method_durations(instance, method, estimates)
    schedule, proven = solve_auto(
        method_instance,
        limits,
        confidence_objective=(method == "Conf"),
        prefer=solver,
    )
    return method_instance, schedule, proven


# ---------------------------------------------------------------------------
# report files


def format_report_table(hospital: str, reports: Sequence[MethodReport]) -> str:
    """Fixed-width table under a hospital heading: one row per method,
    occupancy percentages rounded to integers, std with two decimals."""
    lines = [
        f"== {hospital} ==",
        f"{'method':<8}{'% occ (mean)':>14}{'occ (std)':>12}{'% occ (max)':>13}"
        f"{'% occ (min)':>13}{'overbooking':>13}{'underbooking':>14}",
    ]
    for r in reports:
        lines.append(
            f"{r.method:<8}{round(r.occ_mean):>14}{r.occ_std:>12.2f}{round(r.occ_max):>13}"
            f"{round(r.occ_min):>13}{r.overbooked:>13}{r.underbooked:>14}"
        )
    lines.append("")
    return "\n".join(lines)


def write_report_json(hospital: str, reports: Sequence[MethodReport], path: str | Path) -> None:
    payload = [{"hospital": hospital, **asdict(report)} for report in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_report_txt(hospital: str, reports: Sequence[MethodReport], path: str | Path) -> None:
    Path(path).write_text(format_report_table(hospital, reports), encoding="utf-8")
