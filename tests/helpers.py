"""Shared builders for solver and evaluation tests, a table of hand-written
records, the method comparison loop the evaluation and acceptance tests run,
a loader of a week's parts through its files, and a runner for commands that
must leave no process behind."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import signal
import subprocess
from pathlib import Path
from typing import Any, Mapping, Sequence

from orsched.core import (
    MssSlot,
    ProblemInstance,
    RecordTable,
    Registration,
    Shift,
)
from orsched.evaluate import (
    METHODS,
    EvaluateError,
    MethodReport,
    evaluate_schedule,
    solve_method,
)
from orsched.ingest import load_instance, write_mss_csv, write_registrations_csv, write_shifts_csv
from orsched.solve import SolveLimits


def reg(
    rid: str,
    priority: int = 2,
    specialty: str = "GEN",
    duration: int = 4,
    actual: int | None = None,
    confidence: int | None = None,
) -> Registration:
    return Registration(
        id=rid,
        priority=priority,
        specialty=specialty,
        duration_min=duration,
        actual_duration_min=actual,
        confidence=confidence,
    )


def records_table(records: Sequence[Mapping[str, Any]]) -> RecordTable:
    """Dicts as a table, with every key of any record as a column, in order
    of first appearance; a record's absent keys read None. Row i gets line
    i + 2, as if written below a header."""
    names = dict.fromkeys(itertools.chain.from_iterable(records))
    columns = {name: [rec.get(name) for rec in records] for name in names}
    return RecordTable(columns, list(range(2, len(records) + 2)), [len(names)] * len(records))


def instance(
    registrations,
    cells,
    capacities,
    emergency_or_id: str | None = None,
    planning_days: int | None = None,
) -> ProblemInstance:
    """Build an instance from (or_id, specialty, shift_id, day) cell tuples and
    a {shift_id: capacity} map."""
    mss = tuple(MssSlot(*c) for c in cells)
    shifts = tuple(Shift(sid, cap) for sid, cap in sorted(capacities.items()))
    days = planning_days if planning_days is not None else (max((s.day for s in mss), default=0) + 1)
    return ProblemInstance(
        registrations=tuple(registrations),
        mss=mss,
        shifts=shifts,
        planning_days=days,
        emergency_or_id=emergency_or_id,
    )


def scaled_confidences(inst: ProblemInstance, scale: int) -> ProblemInstance:
    """``inst`` with every confidence level multiplied by ``scale``; the
    solvers take an instance as given, so they accept levels above 4."""
    regs = tuple(r._replace(confidence=None if r.confidence is None else r.confidence * scale) for r in inst.registrations)
    return dataclasses.replace(inst, registrations=regs)


def load_week(directory: Path, registrations, mss, shifts, **options) -> ProblemInstance:
    """The instance ``orsched schedule`` reads from these parts: their three
    files written into ``directory``, then read and validated by
    ``load_instance`` with ``options``."""
    paths = [directory / "registrations.csv", directory / "mss.csv", directory / "shifts.csv"]
    for write, rows, path in zip((write_registrations_csv, write_mss_csv, write_shifts_csv), (registrations, mss, shifts), paths):
        write(rows, path)
    return load_instance(*paths, **options)


def single_cell_instance(registrations, capacity: int = 10, specialty: str = "GEN") -> ProblemInstance:
    return instance(registrations, [("R1", specialty, "S1", 0)], {"S1": capacity})


def random_instance(
    rng: random.Random,
    max_regs: int = 10,
    max_cells: int = 4,
    with_confidence: bool = True,
    p1_weight: float = 0.25,
) -> ProblemInstance:
    """A small random instance for oracle comparison; may be infeasible."""
    n_regs = rng.randint(1, max_regs)
    n_cells = rng.randint(1, max_cells)
    specialties = ["GEN", "ORT"][: rng.randint(1, 2)]

    shared_shift = rng.random() < 0.3
    cells = []
    caps = {}
    made = set()
    # the (or, day) grid must exceed max_cells or the rejection loop stalls
    n_ors = max(3, (n_cells + 2) // 3)
    while len(cells) < n_cells:
        or_id = f"R{rng.randint(1, n_ors)}"
        day = rng.randint(0, 2)
        shift_id = "S0" if shared_shift else f"S{len(cells)}"
        if (or_id, shift_id, day) in made:
            continue
        made.add((or_id, shift_id, day))
        cells.append((or_id, rng.choice(specialties), shift_id, day))
        caps.setdefault(shift_id, rng.randint(5, 14))

    regs = []
    for i in range(n_regs):
        r = rng.random()
        priority = 1 if r < p1_weight else rng.randint(2, 4)
        regs.append(
            reg(
                f"p{i:02d}",
                priority=priority,
                specialty=rng.choice(specialties),
                duration=rng.randint(1, 8),
                confidence=rng.randint(1, 4) if with_confidence and rng.random() < 0.75 else None,
            )
        )

    emergency = None
    if rng.random() < 0.3:
        emergency = cells[rng.randrange(len(cells))][0]
    return instance(regs, cells, caps, emergency_or_id=emergency)


def run_method_comparison(
    instance: ProblemInstance,
    estimates: Mapping[str, Sequence[float]],
    methods: Sequence[str] = METHODS,
    limits: SolveLimits = SolveLimits(),
    solver: str | None = None,
) -> list[MethodReport]:
    """Solve the same week once per method and replay each schedule against
    the actual durations. Every method gets identical limits."""
    if not methods:
        raise EvaluateError("empty method list")
    reports = []
    for method in methods:
        method_instance, schedule, _ = solve_method(instance, method, estimates, limits, solver)
        reports.append(evaluate_schedule(method, schedule, method_instance))
    return reports


def run_in_own_session(argv: Sequence[str], timeout: float, env: Mapping[str, str] | None = None):
    """``argv`` in a session of its own, which must hold no process once it
    has exited; its exit code, stdout and stderr."""
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True, env=env
    ) as process:
        try:
            out, err = process.communicate(timeout=timeout)
        finally:
            left = _session_alive(process.pid)
            if left:
                os.killpg(process.pid, signal.SIGKILL)
    assert not left, f"{argv[:3]} left a process behind"
    return process.returncode, out, err


def _session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True
