"""Brute-force scheduling oracle, independent of the solvers under test.

Enumerates every assignment function (registration -> cell or unassigned) as
base-(cells+1) codes, filters the feasible ones with vectorized checks, and
reads off the lexicographically minimal objective. Exponential on purpose;
only for small instances.

Also holds ``reference_improve_once``, the heuristic's local-search pass by
trial and undo, against which the solver's delta-evaluated pass is checked.
"""

from __future__ import annotations

import numpy as np

from orsched.core import ProblemInstance

_CHUNK = 1 << 20


def _arrays(instance: ProblemInstance, confidence_scale: int):
    cells = sorted(instance.mss, key=lambda s: (s.day, s.or_id, s.shift_id))
    caps = {s.shift_id: s.capacity_min for s in instance.shifts}
    cap = np.array([caps[c.shift_id] for c in cells], dtype=np.int64)
    emergency = np.array(
        [instance.emergency_or_id is not None and c.or_id == instance.emergency_or_id for c in cells],
        dtype=bool,
    )
    regs = sorted(instance.registrations, key=lambda r: r.id)
    dur = np.array([r.duration_min for r in regs], dtype=np.int64)
    prio = np.array([r.priority for r in regs], dtype=np.int64)
    conf = np.array(
        [r.confidence.level * confidence_scale if r.confidence is not None else 0 for r in regs],
        dtype=np.int64,
    )
    n, n_cells = len(regs), len(cells)
    allowed = np.zeros((n, n_cells + 1), dtype=bool)
    for j, r in enumerate(regs):
        for c_idx, c in enumerate(cells):
            allowed[j, c_idx] = c.specialty == r.specialty
        allowed[j, n_cells] = r.priority > 1  # unassigned label
    return regs, cells, cap, emergency, dur, prio, conf, allowed


def _decode(codes: np.ndarray, n: int, base: int) -> np.ndarray:
    assign = np.empty((codes.shape[0], n), dtype=np.int64)
    tmp = codes
    for j in range(n):
        tmp, assign[:, j] = np.divmod(tmp, base)
    return assign


def _feasible_mask(assign, n_cells, cap, emergency, dur, allowed):
    n = assign.shape[1]
    cols = np.arange(n)
    valid = allowed[cols[None, :], assign].all(axis=1)
    for c in range(n_cells):
        valid &= ((assign == c) @ dur) <= cap[c]
    if emergency.any():
        em_label = np.append(emergency, False)  # unassigned label is never an emergency cell
        valid &= em_label[assign].sum(axis=1) <= 1
    return valid


def _objectives(assign, n_cells, prio, conf):
    """Six objective columns for each assignment row."""
    rows = assign.shape[0]
    unassigned = assign == n_cells
    comps = [(unassigned[:, prio == p]).sum(axis=1) for p in (1, 2, 3, 4)]
    if n_cells:
        sums = np.stack([(assign == c) @ conf for c in range(n_cells)], axis=1)
        mx = sums.max(axis=1)
        mn = sums.min(axis=1)
    else:
        mx = mn = np.zeros(rows, dtype=np.int64)
    comps.append(mx)
    comps.append(mx - mn)
    return np.stack(comps, axis=1)


def _lex_min_rows(obj: np.ndarray) -> np.ndarray:
    keep = np.arange(obj.shape[0])
    for k in range(obj.shape[1]):
        col = obj[keep, k]
        keep = keep[col == col.min()]
    return keep


def brute_force_best(instance: ProblemInstance, confidence_scale: int = 1):
    """Lexicographically minimal objective tuple over all feasible assignment
    functions, or None when no feasible one exists."""
    regs, cells, cap, emergency, dur, prio, conf, allowed = _arrays(instance, confidence_scale)
    n, n_cells = len(regs), len(cells)
    base = n_cells + 1
    total = base**n
    best = None
    for lo in range(0, total, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        assign = _decode(codes, n, base)
        valid = _feasible_mask(assign, n_cells, cap, emergency, dur, allowed)
        if not valid.any():
            continue
        obj = _objectives(assign[valid], n_cells, prio, conf)
        candidate = tuple(int(v) for v in obj[_lex_min_rows(obj)[0]])
        if best is None or candidate < best:
            best = candidate
    return best


def brute_force_optimal_patterns(instance: ProblemInstance, confidence_scale: int = 1):
    """All optimal assignment patterns as frozensets of (registration id,
    cell key) pairs; None when infeasible. Small instances only (materializes
    the full enumeration)."""
    regs, cells, cap, emergency, dur, prio, conf, allowed = _arrays(instance, confidence_scale)
    n, n_cells = len(regs), len(cells)
    base = n_cells + 1
    codes = np.arange(base**n, dtype=np.int64)
    assign = _decode(codes, n, base)
    valid = _feasible_mask(assign, n_cells, cap, emergency, dur, allowed)
    if not valid.any():
        return None
    feasible = assign[valid]
    obj = _objectives(feasible, n_cells, prio, conf)
    cell_keys = [(c.or_id, c.day, c.shift_id) for c in cells]
    patterns = set()
    for row in _lex_min_rows(obj):
        pattern = frozenset(
            (regs[j].id, cell_keys[feasible[row, j]]) for j in range(n) if feasible[row, j] < n_cells
        )
        patterns.add(pattern)
    return patterns


def schedule_pattern(schedule) -> frozenset:
    """Pattern representation of a solver schedule, comparable with oracle output."""
    return frozenset((a.registration_id, (a.or_id, a.day, a.shift_id)) for a in schedule.assignments)


def reference_improve_once(model, state, confidence_active: bool) -> bool:
    """The heuristic's local-search pass by trial and undo: every candidate
    move is applied to ``state``, the objective is recomputed over all cells,
    and the move is undone unless it improves. Accepts the first improving
    move in scan order (insert, relocate-to-insert, replace, then relocate
    and swap when the confidence tiers are active) and returns False when
    none exists. Occupants are found by scanning every registration, so this
    reference shares no incremental bookkeeping with the solver's pass."""
    current = state.active()
    n = len(model.regs)
    unassigned = [ri for ri in range(n) if state.choice[ri] is None]
    assigned = [ri for ri in range(n) if state.choice[ri] is not None]

    def occupants(ci):
        return [ri for ri, c in enumerate(state.choice) if c == ci]

    for ri in unassigned:
        for ci in model.compat[ri]:
            if state.can_place(ri, ci):
                state.place(ri, ci)
                if state.active() < current:
                    return True
                state.remove(ri)

    for ri in unassigned:
        dur = model.dur[ri]
        for ci in model.compat[ri]:
            free = model.cells[ci].capacity - state.loads[ci]
            if free >= dur:
                continue
            for occ in occupants(ci):
                if free + model.dur[occ] < dur:
                    continue
                state.remove(occ)
                for ci2 in model.compat[occ]:
                    if ci2 != ci and state.can_place(occ, ci2):
                        state.place(occ, ci2)
                        if state.can_place(ri, ci):
                            state.place(ri, ci)
                            if state.active() < current:
                                return True
                            state.remove(ri)
                        state.remove(occ)
                        break
                state.place(occ, ci)

    for ri in unassigned:
        for occ in assigned:
            ci = state.choice[occ]
            if ci not in model.compat_sets[ri]:
                continue
            state.remove(occ)
            if state.can_place(ri, ci):
                state.place(ri, ci)
                if state.active() < current:
                    return True
                state.remove(ri)
            state.place(occ, ci)

    if not confidence_active:
        return False

    for ri in assigned:
        ci = state.choice[ri]
        state.remove(ri)
        for ci2 in model.compat[ri]:
            if ci2 != ci and state.can_place(ri, ci2):
                state.place(ri, ci2)
                if state.active() < current:
                    return True
                state.remove(ri)
        state.place(ri, ci)

    for ai in range(len(assigned)):
        for bi in range(ai + 1, len(assigned)):
            ra, rb = assigned[ai], assigned[bi]
            ca, cb = state.choice[ra], state.choice[rb]
            if ca == cb:
                continue
            if cb not in model.compat_sets[ra] or ca not in model.compat_sets[rb]:
                continue
            state.remove(ra)
            state.remove(rb)
            if state.can_place(ra, cb) and state.can_place(rb, ca):
                state.place(ra, cb)
                state.place(rb, ca)
                if state.active() < current:
                    return True
                state.remove(ra)
                state.remove(rb)
            state.place(ra, ca)
            state.place(rb, cb)
    return False
