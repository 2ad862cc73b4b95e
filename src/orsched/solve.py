"""Schedule solvers: feasibility checking, lexicographic objectives, an exact
branch-and-bound for small instances, and an anytime restart heuristic.

Hard constraints:
  * each registration assigned at most once;
  * per-cell assigned duration within the shift capacity;
  * every priority-1 registration assigned;
  * assignment specialty matches the MSS cell specialty;
  * the emergency OR (when configured) hosts at most one patient over the
    whole horizon.

The objective is minimized lexicographically: unassigned counts per priority
tier first (p1 highest), then the maximum per-cell confidence sum, then the
max-minus-min confidence spread across cells. Every MSS cell participates in
the confidence aggregates, empty cells with sum 0.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from orsched.core import (
    Assignment,
    ObjectiveVector,
    ProblemInstance,
    Registration,
    Schedule,
    Violation,
    read_week_file,
    write_csv_rows,
)


class CellKey(NamedTuple):
    """Identity of one MSS cell."""

    or_id: str
    day: int
    shift_id: str


@dataclass(frozen=True)
class SolveLimits:
    """Resource limits for a solver run.

    ``node_limit`` caps branch-and-bound nodes; ``max_restarts`` caps
    heuristic restarts (useful for exactly reproducible runs regardless of
    machine speed). ``None`` means unlimited within the time budget.
    """

    time_budget_s: float = 60.0
    node_limit: int | None = None
    seed: int = 0
    max_restarts: int | None = None


class SolverError(Exception):
    pass


class InfeasibleInstanceError(SolverError):
    """No schedule can host every priority-1 registration."""

    def __init__(self, p1_ids: list[str], message: str):
        super().__init__(message)
        self.p1_ids = p1_ids


class IncompleteSearchError(SolverError):
    """The search hit its budget before proving optimality.

    ``incumbent`` carries the best feasible schedule found so far, or None
    if none was reached.
    """

    def __init__(self, incumbent: Schedule | None, reason: str):
        super().__init__(reason)
        self.incumbent = incumbent


def is_feasible(schedule: Schedule, instance: ProblemInstance) -> list[Violation]:
    """Check every hard constraint; empty list means the schedule is feasible."""
    violations: list[Violation] = []
    regs = instance.registration_of
    cells = {CellKey(s.or_id, s.day, s.shift_id): s for s in instance.mss}
    capacity = {s.shift_id: s.capacity_min for s in instance.shifts}

    seen: set[str] = set()
    loads: dict[CellKey, int] = {k: 0 for k in cells}
    emergency_count = 0

    for a in schedule.assignments:
        if a.registration_id in seen:
            violations.append(Violation("multiple_assignment", f"registration {a.registration_id!r} assigned more than once"))
        seen.add(a.registration_id)

        reg = regs.get(a.registration_id)
        if reg is None or reg.priority != a.priority:
            violations.append(Violation("unknown_registration", f"assignment references {a.registration_id!r} (priority {a.priority})"))
            continue
        key = (a.or_id, a.day, a.shift_id)  # looks up the CellKey it equals
        slot = cells.get(key)
        if slot is None:
            violations.append(Violation("unknown_cell", f"assignment {a.registration_id!r} targets missing cell {CellKey(*key)}"))
            continue
        if slot.specialty != reg.specialty:
            violations.append(
                Violation("specialty_mismatch", f"registration {a.registration_id!r} ({reg.specialty}) in {slot.specialty} cell {CellKey(*key)}")
            )
        loads[key] += reg.duration_min
        if instance.emergency_or_id is not None and a.or_id == instance.emergency_or_id:
            emergency_count += 1

    for key, load in loads.items():
        cap = capacity.get(key.shift_id)
        if cap is not None and load > cap:
            violations.append(Violation("capacity_exceeded", f"cell {key} load {load} exceeds capacity {cap}"))

    for reg in instance.registrations:
        if reg.priority == 1 and reg.id not in seen:
            violations.append(Violation("p1_unassigned", f"priority-1 registration {reg.id!r} not assigned"))

    if emergency_count > 1:
        violations.append(
            Violation("emergency_or_overused", f"emergency OR {instance.emergency_or_id!r} hosts {emergency_count} patients")
        )
    return violations


# ---------------------------------------------------------------------------
# shared solver model


class _Cell(NamedTuple):
    key: CellKey
    specialty: str
    capacity: int
    emergency: bool


class _Model:
    """Instance unpacked into index-based arrays for search."""

    def __init__(self, instance: ProblemInstance, confidence_scale: int):
        capacity = {s.shift_id: s.capacity_min for s in instance.shifts}
        cells = [
            _Cell(
                CellKey(s.or_id, s.day, s.shift_id),
                s.specialty,
                capacity[s.shift_id],
                instance.emergency_or_id is not None and s.or_id == instance.emergency_or_id,
            )
            for s in instance.mss
        ]
        cells.sort(key=lambda c: c.key)
        self.cells = cells
        self.capacity = [c.capacity for c in cells]
        self.emergency = [c.emergency for c in cells]
        # canonical search order: priorities first, then big rocks, then id
        self.regs: list[Registration] = sorted(
            instance.registrations, key=lambda r: (r.priority, -r.duration_min, r.id)
        )
        self.dur = [r.duration_min for r in self.regs]
        self.prio = [r.priority for r in self.regs]
        # the index of the first registration of each priority p (5: the count)
        self.tier_start = [bisect_left(self.prio, p) for p in range(6)]
        self.conf = [
            (r.confidence * confidence_scale) if r.confidence is not None else 0 for r in self.regs
        ]
        self.conf_values = sorted(set(self.conf))
        # the cells of each specialty, in index order; registrations of one
        # specialty share its list and set, which nothing mutates
        by_specialty: dict[str, list[int]] = {}
        for ci, c in enumerate(cells):
            by_specialty.setdefault(c.specialty, []).append(ci)
        sets = {specialty: set(cs) for specialty, cs in by_specialty.items()}
        self.compat: list[list[int]] = [by_specialty.get(r.specialty, []) for r in self.regs]
        self.compat_sets: list[set[int]] = [sets.get(r.specialty, set()) for r in self.regs]

    def p1_ids(self) -> list[str]:
        return sorted(r.id for r in self.regs if r.priority == 1)

    def build_schedule(self, choice: list[int | None], objective: ObjectiveVector) -> Schedule:
        """The schedule of ``choice``; ``objective`` is the one the search
        state holding ``choice`` reported."""
        assignments = []
        for ri, ci in enumerate(choice):
            if ci is None:
                continue
            reg, key = self.regs[ri], self.cells[ci].key
            assignments.append(Assignment(reg.id, reg.priority, key.or_id, key.day, key.shift_id))
        # ids are unique (the instance is validated), so they alone give the
        # (registration_id, day, or_id, shift_id) order
        assignments.sort(key=attrgetter("registration_id"))
        return Schedule(tuple(assignments), objective)

    def tie_key(self, choice: list[int | None]) -> tuple:
        items = []
        for ri, ci in enumerate(choice):
            if ci is not None:
                key = self.cells[ci].key
                items.append((self.regs[ri].id, key.day, key.or_id, key.shift_id))
        return tuple(sorted(items))


class _HeurState:
    """The assignment of a search, kept with its per-cell loads and
    confidence sums, unassigned counts per tier, emergency-OR use and cell
    occupants. Both solvers search on it: the exact search places and
    removes one registration per branch, the heuristic builds and improves
    one state per restart. Every registration not placed counts as
    unassigned."""

    def __init__(self, model: _Model, confidence_active: bool):
        self.m = model
        self.conf_active = confidence_active
        self.n_cells = len(model.cells)
        self.choice: list[int | None] = [None] * len(model.regs)
        self.loads = [0] * self.n_cells
        self.sums = [0] * self.n_cells
        self.unassigned = [0, 0, 0, 0]
        self.em_used = 0
        self.cell_regs: list[set[int]] = [set() for _ in range(self.n_cells)]
        for ri in range(len(model.regs)):
            self.unassigned[model.prio[ri] - 1] += 1

    def can_place(self, ri: int, ci: int) -> bool:
        cell = self.m.cells[ci]
        return (
            ci in self.m.compat_sets[ri]
            and self.loads[ci] + self.m.dur[ri] <= cell.capacity
            and (not cell.emergency or self.em_used == 0)
        )

    def place(self, ri: int, ci: int) -> None:
        self.choice[ri] = ci
        self.loads[ci] += self.m.dur[ri]
        self.sums[ci] += self.m.conf[ri]
        self.em_used += self.m.cells[ci].emergency
        self.unassigned[self.m.prio[ri] - 1] -= 1
        self.cell_regs[ci].add(ri)

    def remove(self, ri: int) -> int:
        ci = self.choice[ri]
        assert ci is not None
        self.choice[ri] = None
        self.loads[ci] -= self.m.dur[ri]
        self.sums[ci] -= self.m.conf[ri]
        self.em_used -= self.m.cells[ci].emergency
        self.unassigned[self.m.prio[ri] - 1] += 1
        self.cell_regs[ci].remove(ri)
        return ci

    def objective(self) -> ObjectiveVector:
        """All six tiers of the current assignment, whichever are active."""
        mx = max(self.sums) if self.sums else 0
        mn = min(self.sums) if self.sums else 0
        return ObjectiveVector(*self.unassigned, mx, mx - mn)

    def active(self) -> tuple:
        """The tiers the search minimizes: the counts, and the confidence
        tiers when they are active."""
        objective = self.objective()
        return objective if self.conf_active else objective[:4]

    def occupants(self, ci: int) -> list[int]:
        """Registrations in cell ``ci``, in ascending index order."""
        return sorted(self.cell_regs[ci])


# ---------------------------------------------------------------------------
# exact branch and bound


class _Abort(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _ExactSearch:
    """Depth-first branch and bound over per-registration choices.

    Explores, for each registration in canonical order, every compatible cell
    with room (and the unassigned option for priorities 2-4). Prunes a branch
    only when its optimistic bound is strictly worse than the incumbent, so
    all objective-equal optima are visited and the canonical tie-break
    (smallest sorted assignment tuple sequence) is exact.
    """

    def __init__(self, model: _Model, limits: SolveLimits, confidence_active: bool):
        self.m = model
        self.limits = limits
        self.conf_active = confidence_active
        self.n = len(model.regs)
        self.state = _HeurState(model, confidence_active)
        self.nodes = 0
        self.deadline = time.monotonic() + limits.time_budget_s
        self.best_choice: list[int | None] | None = None
        self.best_objective: ObjectiveVector | None = None
        self.best_active: tuple | None = None
        self.best_key: tuple | None = None

    def run(self) -> Schedule:
        for ri in range(self.n):
            if self.m.prio[ri] == 1 and not any(
                self.m.dur[ri] <= self.m.cells[ci].capacity for ci in self.m.compat[ri]
            ):
                raise InfeasibleInstanceError(
                    self.m.p1_ids(),
                    f"priority-1 registration {self.m.regs[ri].id!r} fits no compatible cell",
                )
        try:
            self._dfs(0)
        except _Abort as abort:
            incumbent = None
            if self.best_choice is not None:
                incumbent = self.m.build_schedule(self.best_choice, self.best_objective)
            raise IncompleteSearchError(incumbent, abort.reason) from None
        if self.best_choice is None:
            raise InfeasibleInstanceError(self.m.p1_ids(), "no feasible schedule hosts every priority-1 registration")
        return self.m.build_schedule(self.best_choice, self.best_objective)

    def _tick(self) -> None:
        self.nodes += 1
        if self.limits.node_limit is not None and self.nodes > self.limits.node_limit:
            raise _Abort("node limit reached before optimality was proven")
        if self.nodes % 512 == 0 and time.monotonic() > self.deadline:
            raise _Abort("time budget exhausted before optimality was proven")

    def _leaf(self) -> None:
        state = self.state
        active = state.active()
        if self.best_active is not None and active > self.best_active:
            return
        key = self.m.tie_key(state.choice)
        if active == self.best_active and key >= self.best_key:
            return
        self.best_active, self.best_key = active, key
        self.best_choice, self.best_objective = list(state.choice), state.objective()

    def _dfs(self, i: int) -> None:
        self._tick()
        if i == self.n:
            self._leaf()
            return
        state, m = self.state, self.m

        # optimistic bound: the state counts every registration not placed
        # yet, so those that still fit somewhere in this subtree come off
        counts = list(state.unassigned)
        for j in range(i, self.n):
            if any(state.can_place(j, ci) for ci in m.compat[j]):
                counts[m.prio[j] - 1] -= 1
            elif m.prio[j] == 1:
                return  # no feasible completion below this node
        if self.best_active is not None:
            bound = tuple(counts)
            if self.conf_active:
                bound += (max(state.sums) if state.sums else 0, 0)
            if bound > self.best_active:
                return

        for ci in m.compat[i]:
            if state.can_place(i, ci):
                state.place(i, ci)
                self._dfs(i + 1)
                state.remove(i)
        if m.prio[i] > 1:
            self._dfs(i + 1)


def solve_exact(
    instance: ProblemInstance,
    limits: SolveLimits = SolveLimits(),
    *,
    confidence_objective: bool = True,
    confidence_scale: int = 1,
) -> Schedule:
    """Find the lexicographically minimal feasible schedule, with proof.

    Intended for small instances (roughly up to 15 registrations and a dozen
    cells). Raises ``InfeasibleInstanceError`` when the priority-1 demand
    cannot be hosted and ``IncompleteSearchError`` (incumbent attached) when
    the time or node budget runs out first. Deterministic for a fixed
    instance: ties are broken by the smallest sorted assignment tuple
    sequence, so the result does not depend on registration order.
    The instance must be valid (``validate_instance``); it is not checked again.
    """
    model = _Model(instance, confidence_scale)
    return _ExactSearch(model, limits, confidence_objective).run()


# ---------------------------------------------------------------------------
# anytime heuristic: greedy best-fit-decreasing + first-improvement local search


class _ConfTiers:
    """The confidence tiers (max, spread) of one search state, and whether a
    move that changes the sums of one or two cells would lower them."""

    def __init__(self, sums: list[int]):
        order = sorted(range(len(sums)), key=sums.__getitem__)
        self.sums = sums
        # a move changes at most two cells, so among the three highest and the
        # three lowest cells is the extreme of the cells it leaves alone
        self.lowest, self.highest = order[:3], order[::-1][:3]
        mx, mn = sums[order[-1]], sums[order[0]]
        self.mx, self.mn, self.current = mx, mn, (mx, mx - mn)

    def hot_cells(self) -> set[int]:
        """Cells of which a move must touch one to lower the tiers: the only
        cell at the max and the only cell at the min, where unique.

        A move lowers (max, spread) only if it touches every cell at the max
        or every cell at the min: with an untouched cell at each, the max
        cannot fall, and at an unchanged max the min cannot rise. A replace
        changes one cell, so that cell must be the only one at the max or at
        the min. Relocates and swaps change two cells and keep their total,
        so touching two cells at the max leaves one of them at it or above,
        and touching two at the min leaves one at it or below.
        """
        hot: set[int] = set()
        for value in (self.mx, self.mn):
            at = [ci for ci, s in enumerate(self.sums) if s == value]
            if len(at) == 1:
                hot.update(at)
        return hot

    def improves_one(self, ci: int, delta: int) -> bool:
        """Whether adding ``delta`` to cell ``ci``'s sum lowers the tiers."""
        value = self.sums[ci] + delta
        return self._improves(ci, value, ci, value)

    def improves_shift(self, src: int, dst: int, amount: int) -> bool:
        """Whether moving ``amount`` from cell ``src``'s sum to ``dst``'s lowers the tiers."""
        return self._improves(src, self.sums[src] - amount, dst, self.sums[dst] + amount)

    def _improves(self, a: int, va: int, b: int, vb: int) -> bool:
        hi, lo = max(va, vb), min(va, vb)
        for ci in self.highest:
            if ci != a and ci != b:
                hi = max(hi, self.sums[ci])
                break
        for ci in self.lowest:
            if ci != a and ci != b:
                lo = min(lo, self.sums[ci])
                break
        return (hi, hi - lo) < self.current


# one restart's result: active tiers, assignment, objective
_Restart = tuple[tuple, list[int | None], ObjectiveVector]


class _Heuristic:
    def __init__(self, model: _Model, limits: SolveLimits, confidence_active: bool):
        self.m = model
        self.limits = limits
        self.conf_active = confidence_active
        self.deadline = time.monotonic() + limits.time_budget_s

    # -- greedy construction ------------------------------------------------

    def _greedy(self, rng: random.Random | None) -> _HeurState:
        state = _HeurState(self.m, self.conf_active)
        by_tier: dict[int, list[int]] = {1: [], 2: [], 3: [], 4: []}
        for ri in range(len(self.m.regs)):
            by_tier[self.m.prio[ri]].append(ri)
        for tier in (1, 2, 3, 4):
            order = by_tier[tier]
            if rng is not None:
                order = order[:]
                rng.shuffle(order)
            for ri in order:
                if not self._best_fit(state, ri, rng) and tier == 1:
                    if not self._repair_p1(state, ri):
                        raise InfeasibleInstanceError(
                            self.m.p1_ids(),
                            f"greedy repair could not place priority-1 registration {self.m.regs[ri].id!r}",
                        )
        return state

    def _best_fit(self, state: _HeurState, ri: int, rng: random.Random | None) -> bool:
        # every cell of compat[ri] has ri's specialty, so ``can_place`` reduces
        # to the capacity and emergency-OR checks, made inline
        m, loads = self.m, state.loads
        capacity, emergency, dur = m.capacity, m.emergency, m.dur[ri]
        em_full = state.em_used != 0
        best_ci, best_slack = None, None
        candidates = []
        for ci in m.compat[ri]:
            slack = capacity[ci] - loads[ci] - dur
            if slack < 0 or (em_full and emergency[ci]):
                continue
            if best_slack is None or slack < best_slack:
                best_slack, best_ci = slack, ci
                candidates = [ci]
            elif slack == best_slack:
                candidates.append(ci)
        if best_ci is None:
            return False
        if rng is not None and len(candidates) > 1:
            best_ci = candidates[rng.randrange(len(candidates))]
        state.place(ri, best_ci)
        return True

    def _repair_p1(self, state: _HeurState, ri: int) -> bool:
        """Place priority-1 ``ri`` by moving one occupant of a compatible cell
        to another cell. It runs while priority 1 is being placed, when every
        occupant is of priority 1, so no occupant may be ejected instead."""
        dur = self.m.dur[ri]
        for ci in self.m.compat[ri]:
            cell = self.m.cells[ci]
            if cell.emergency and state.em_used > 0:
                continue
            free = cell.capacity - state.loads[ci]
            for occ in state.occupants(ci):
                if free + self.m.dur[occ] < dur:
                    continue
                state.remove(occ)
                for ci2 in self.m.compat[occ]:
                    if ci2 != ci and state.can_place(occ, ci2):
                        state.place(occ, ci2)
                        state.place(ri, ci)
                        return True
                state.place(occ, ci)
        return False

    # -- local search ---------------------------------------------------------

    def _local_search(self, state: _HeurState) -> None:
        while time.monotonic() < self.deadline:
            if not self._improve_once(state):
                break

    def _improve_once(self, state: _HeurState) -> bool:
        """Apply the first improving move in scan order; False at a local optimum.

        Every probe of a pass starts from the same state, so each move is
        judged from its delta against that state, never applied and undone.
        """
        m, choice, em_used = self.m, state.choice, state.em_used
        dur, prio, conf, compat = m.dur, m.prio, m.conf, m.compat
        em = m.emergency
        free = [cap - load for cap, load in zip(m.capacity, state.loads)]
        unassigned = [ri for ri in range(len(m.regs)) if choice[ri] is None]
        by_cell = [state.occupants(ci) for ci in range(len(m.cells))]
        tiers = _ConfTiers(state.sums) if self.conf_active and state.sums else None

        # insert an unassigned registration; placing one lowers a count tier
        for ri in unassigned:
            for ci in compat[ri]:
                if free[ci] >= dur[ri] and (not em[ci] or em_used == 0):
                    state.place(ri, ci)
                    return True

        # insert enabled by moving one blocking occupant to the first other
        # cell that takes it; the occupants that qualify do not depend on the
        # newcomer, so each cell's list is built once per pass
        def movers(ci: int) -> list[tuple[int, int]]:
            # every occupant has ci's specialty, so all of them share one list
            # of cells, and one longer than the roomiest of those stays put
            found = []
            left = em_used - em[ci]
            occs = by_cell[ci]
            targets = [ci2 for ci2 in (compat[occs[0]] if occs else ()) if ci2 != ci and (not em[ci2] or left == 0)]
            roomiest = max((free[ci2] for ci2 in targets), default=0)
            for occ in occs:
                if dur[occ] > roomiest:
                    continue
                for ci2 in targets:
                    if free[ci2] >= dur[occ]:
                        if not em[ci] or left + em[ci2] == 0:
                            found.append((occ, ci2))
                        break
            return found

        movable: dict[int, list[tuple[int, int]]] = {}
        for ri in unassigned:
            for ci in compat[ri]:
                need = dur[ri] - free[ci]
                if need <= 0:
                    continue  # plain insert already failed on other grounds
                if ci not in movable:
                    movable[ci] = movers(ci)
                for occ, ci2 in movable[ci]:
                    if dur[occ] >= need:
                        state.remove(occ)
                        state.place(occ, ci2)
                        state.place(ri, ci)
                        return True

        # replace an assigned registration by an unassigned one: a higher
        # priority always improves, a lower one never does, and an equal one
        # only through the confidence tiers; the first occupant in index order
        # is taken, whichever cell holds it. Index order is by priority, then
        # by decreasing duration: a cell's occupants of the newcomer's
        # priority form one run, whose scan ends at the first too short to
        # make room, and those of lower priority follow it. A change to one
        # cell's sum lowers the confidence tiers only in a hot cell (see
        # ``_ConfTiers.hot_cells``), and the pass leaves the state as it is,
        # so for each (hot cell, newcomer confidence) the occupant
        # confidences whose replacement lowers them are found once per pass
        hot = tiers.hot_cells() if tiers is not None else set()
        lowering: dict[tuple[int, int], set[int]] = {}
        for ri in unassigned:
            pr, first, c = prio[ri], None, conf[ri]
            if pr == 4 and tiers is None:
                continue  # only a lower-priority occupant could give way, and none is below 4
            for ci in compat[ri]:
                if em[ci] and em_used - em[ci] != 0:
                    continue
                need = dur[ri] - free[ci]
                occs = by_cell[ci]
                lower = bisect_left(occs, m.tier_start[pr + 1])
                if ci in hot:
                    wanted = lowering.get((ci, c))
                    if wanted is None:
                        wanted = lowering[ci, c] = {c2 for c2 in m.conf_values if c2 != c and tiers.improves_one(ci, c - c2)}
                    if wanted:
                        for occ in occs[bisect_left(occs, m.tier_start[pr]) : lower]:
                            if (first is not None and occ > first) or dur[occ] < need:
                                break
                            if conf[occ] in wanted:
                                first = occ
                                break
                for occ in occs[lower:]:
                    if first is not None and occ > first:
                        break
                    if dur[occ] >= need:
                        first = occ
                        break
            if first is not None:
                ci = state.remove(first)
                state.place(ri, ci)
                return True

        if not hot:
            return False
        assigned = [ri for ri in range(len(m.regs)) if choice[ri] is not None]

        # relocate one assignment (confidence balancing only)
        for ri in assigned:
            c, ci = conf[ri], choice[ri]
            if c == 0:
                continue
            from_hot = ci in hot
            for ci2 in compat[ri]:
                if (
                    (from_hot or ci2 in hot)
                    and ci2 != ci
                    and free[ci2] >= dur[ri]
                    and (not em[ci2] or em_used - em[ci] == 0)
                    and tiers.improves_shift(ci, ci2, c)
                ):
                    state.remove(ri)
                    state.place(ri, ci2)
                    return True

        # swap two assignments across cells (confidence balancing only); each
        # registration sits in a cell of its own specialty, so the two cells
        # must share one, and one of them must be hot
        same_specialty: dict[str, list[int]] = {}
        hot_specialty: dict[str, list[int]] = {}
        for ri in assigned:
            specialty = m.cells[choice[ri]].specialty
            same_specialty.setdefault(specialty, []).append(ri)
            if choice[ri] in hot:
                hot_specialty.setdefault(specialty, []).append(ri)
        for ra in assigned:
            ca = choice[ra]
            specialty = m.cells[ca].specialty
            pool = same_specialty[specialty] if ca in hot else hot_specialty.get(specialty, [])
            for k in range(bisect_right(pool, ra), len(pool)):
                rb = pool[k]
                cb = choice[rb]
                delta = conf[rb] - conf[ra]
                if ca == cb or delta == 0:
                    continue
                if cb not in m.compat_sets[ra] or ca not in m.compat_sets[rb]:
                    continue
                left = em_used - em[ca] - em[cb]
                if (
                    free[cb] + dur[rb] >= dur[ra]
                    and free[ca] + dur[ra] >= dur[rb]
                    and (not em[cb] or left == 0)
                    and (not em[ca] or left == 0)
                    and tiers.improves_shift(cb, ca, delta)
                ):
                    state.remove(ra)
                    state.remove(rb)
                    state.place(ra, cb)
                    state.place(rb, ca)
                    return True
        return False

    # -- restart loop -----------------------------------------------------------

    def _one_restart(self, restart_index: int, seed: int) -> _Restart:
        rng = None if restart_index == 0 else random.Random(seed)
        state = self._greedy(rng)
        self._local_search(state)
        return state.active(), list(state.choice), state.objective()

    def run(self) -> Schedule:
        """The first restart, in index order, with the least (active tiers,
        tie key); a tie key is computed only for restarts whose active
        tiers equal the incumbent's."""
        best = self._one_restart(0, 0)  # canonical greedy always runs
        best_key = None  # the incumbent's tie key, once needed
        if any(best[0]):  # an all-zero objective is unbeatable
            seed_rng = random.Random(self.limits.seed)
            max_restarts = self.limits.max_restarts
            index = 0
            while (max_restarts is None or index + 1 < max_restarts) and time.monotonic() < self.deadline:
                index += 1
                try:
                    result = self._one_restart(index, seed_rng.getrandbits(63))
                except InfeasibleInstanceError:
                    continue  # a shuffled greedy missed a priority-1 registration; restart 0 placed them all
                if result[0] < best[0]:
                    best, best_key = result, None
                elif result[0] == best[0]:
                    if best_key is None:
                        best_key = self.m.tie_key(best[1])
                    key = self.m.tie_key(result[1])
                    if key < best_key:
                        best, best_key = result, key
        return self.m.build_schedule(best[1], best[2])


def solve_heuristic(
    instance: ProblemInstance,
    limits: SolveLimits = SolveLimits(),
    *,
    confidence_objective: bool = True,
    confidence_scale: int = 1,
) -> Schedule:
    """Anytime solver: greedy best-fit-decreasing construction followed by
    first-improvement local search with seeded restarts until the budget.

    A local-search pass scans its neighbourhoods in this order and applies
    the first move that lowers the active objective: insert an unassigned
    registration; insert one after moving a blocking occupant to another
    cell; replace an assigned registration by an unassigned one; and, with
    the confidence objective only, relocate one assignment or swap two
    across cells. Each move is judged from its delta against the state the
    pass started from, not applied and undone: inserts always lower a count
    tier, so the first feasible one wins; a replace improves when the
    newcomer's priority is higher, never when it is lower, and at equal
    priority only through the confidence tiers; relocates and swaps compare
    the confidence tiers of the two cells they change with the rest.
    Relocates and swaps are scanned only where they touch a hot cell, the
    only cell at the maximum or the only cell at the minimum. Proof: a move
    lowers (max, spread) only if it touches every cell at the maximum or
    every cell at the minimum, because an untouched cell at each keeps the
    maximum and, at an unchanged maximum, the minimum; and a move that
    keeps the total of the two cells it touches leaves one of two cells at
    the maximum (minimum) at or above (below) it. So when neither extreme
    is unique, neither neighbourhood is scanned. Scan order and acceptance
    are those of trying every move, so results at a fixed seed and
    ``max_restarts`` are unchanged by the delta evaluation.

    Always returns a feasible schedule that is lexicographically at least as
    good as the canonical greedy construction. Reproducible for a fixed seed
    when ``max_restarts`` bounds the run (a purely time-bounded run is
    deterministic only in the number of restarts that complete).
    The instance must be valid (``validate_instance``); it is not checked again.
    """
    model = _Model(instance, confidence_scale)
    return _Heuristic(model, limits, confidence_objective).run()


def solve_auto(
    instance: ProblemInstance,
    limits: SolveLimits = SolveLimits(),
    *,
    confidence_objective: bool = True,
    prefer: str | None = None,
) -> tuple[Schedule, bool]:
    """Pick a solver and report whether the result is a proven optimum.

    ``prefer`` forces "exact" or "heuristic"; the default sends small
    instances to branch-and-bound. An exact run that exhausts its budget
    degrades to its incumbent (or a heuristic run) with the proof flag off.
    The instance must be valid (``validate_instance``); it is not checked again.
    """
    if prefer not in (None, "exact", "heuristic"):
        raise ValueError(f"prefer must be 'exact', 'heuristic' or None, got {prefer!r}")
    small = (
        len(instance.registrations) <= 12
        and len(instance.registrations) * max(1, len(instance.mss)) <= 60
    )
    if prefer == "exact" or (prefer is None and small):
        try:
            return solve_exact(instance, limits, confidence_objective=confidence_objective), True
        except IncompleteSearchError as err:
            if err.incumbent is not None:
                return err.incumbent, False
    return solve_heuristic(instance, limits, confidence_objective=confidence_objective), False


# ---------------------------------------------------------------------------
# file formats


def write_schedule_csv(schedule: Schedule, path: str | Path) -> None:
    write_csv_rows(path, Assignment._fields, schedule.assignments)


def read_schedule_csv(path: str | Path) -> tuple[Assignment, ...]:
    """A file written by ``write_schedule_csv`` (``read_week_file`` raises at a malformed one)."""
    return read_week_file(path, Assignment)[0]


def write_objective_json(schedule: Schedule, proven_optimal: bool, wall_time_s: float, path: str | Path) -> None:
    payload = dict(schedule.objective.to_json_dict())
    payload["proven_optimal"] = proven_optimal
    payload["wall_time_s"] = wall_time_s
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
