"""Brute-force scheduling oracle, independent of the solvers under test.

Enumerates every assignment function that gives each registration one of its
allowed labels (a cell of its own specialty, or unassigned for priority 2-4)
as mixed-radix codes, filters the feasible ones with vectorized checks, and
reads off the lexicographically minimal objective. Exponential on purpose;
only for small instances.

Also holds ``reference_improve_once``, the heuristic's local-search pass by
trial and undo, against which the solver's delta-evaluated pass is checked,
``reference_greedy``, its greedy construction over ``can_place`` with every
registration's cells found by a scan, against which the inline checks and
the per-specialty cell lists are checked,
``reference_grow_tree``/``reference_fit``, tree growing with a full
argsort at every node, against which the presorted grower is checked, and
``reference_predict``, one tree walked node by node, against which the
blocked array prediction is checked. ``objective_vector`` recomputes a
schedule's six objective components from its assignments, and
``compare_lex`` orders two objective vectors, highest tier first.

The data path has references that go cell by cell:
``reference_read_records_csv`` and ``reference_read_csv_rows`` (a
``csv.DictReader``), against which the readers are checked, and
``reference_numeric_encoding``, ``reference_transform`` and
``reference_categories``, against which the column-at-a-time encoders are
checked.

``reference_generate_synthetic_dataset``, ``reference_generate_week`` and
``reference_generate_hospitalizations`` are the synthetic generators with
one numpy call per random draw. Synth output is fixed by the order in which
the draws consume the bit generator, so the batched generators must return
exactly what these return. ``reference_iqr_filter`` is the outlier filter
by ``np.quantile``, whose quartiles the filter's own must equal bit for bit.
"""

from __future__ import annotations

import calendar
import csv
import math
from datetime import date, datetime, timedelta
from typing import Any

import numpy as np

from orsched.core import InputFileError, MssSlot, ObjectiveVector, ProblemInstance, Registration, Schedule, Shift
from orsched.ingest import (
    _PRIORITY_WEIGHTS,
    HOSPITAL_SHAPES,
    HospitalShape,
    SyntheticConfig,
    _duration_from_features,
    iqr_filter,
)
from orsched.solve import CellKey

_CHUNK = 1 << 20

SurgicalRecord = dict[str, Any]  # one row of a records file, by column name


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
        [r.confidence * confidence_scale if r.confidence is not None else 0 for r in regs],
        dtype=np.int64,
    )
    n, n_cells = len(regs), len(cells)
    allowed = np.zeros((n, n_cells + 1), dtype=bool)
    for j, r in enumerate(regs):
        for c_idx, c in enumerate(cells):
            allowed[j, c_idx] = c.specialty == r.specialty
        allowed[j, n_cells] = r.priority > 1  # unassigned label
    labels = [np.flatnonzero(row) for row in allowed]  # each registration's allowed labels, ascending
    return regs, cells, cap, emergency, dur, prio, conf, allowed, labels


def _decode(codes: np.ndarray, labels: list[np.ndarray]) -> np.ndarray:
    """Each code as one label per registration: digit j of the code, in the
    mixed radix of the label counts, picks registration j's label."""
    assign = np.empty((codes.shape[0], len(labels)), dtype=np.int64)
    tmp = codes
    for j, options in enumerate(labels):
        tmp, digit = np.divmod(tmp, len(options))
        assign[:, j] = options[digit]
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
    regs, cells, cap, emergency, dur, prio, conf, allowed, labels = _arrays(instance, confidence_scale)
    n_cells = len(cells)
    total = math.prod(map(len, labels))  # 0 when a priority-1 registration has no cell
    best = None
    for lo in range(0, total, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        assign = _decode(codes, labels)
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
    regs, cells, cap, emergency, dur, prio, conf, allowed, labels = _arrays(instance, confidence_scale)
    n, n_cells = len(regs), len(cells)
    total = math.prod(map(len, labels))
    if not total:  # a priority-1 registration has no cell
        return None
    assign = _decode(np.arange(total, dtype=np.int64), labels)
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


def compare_lex(a: ObjectiveVector, b: ObjectiveVector) -> int:
    """Lexicographic comparison, highest tier first; -1 means ``a`` is better."""
    ta, tb = tuple(a), tuple(b)
    return (ta > tb) - (ta < tb)


def objective_vector(schedule: Schedule, instance: ProblemInstance, confidence_scale: int = 1) -> ObjectiveVector:
    """Evaluate the six lexicographic components of a schedule.

    ``confidence_scale`` multiplies every confidence level before aggregation;
    it exists so tests can check that scaling leaves optimal assignment
    patterns unchanged.
    """
    regs = {r.id: r for r in instance.registrations}
    assigned = {a.registration_id for a in schedule.assignments}

    unassigned = [0, 0, 0, 0]
    for reg in instance.registrations:
        if reg.id not in assigned and reg.priority in (1, 2, 3, 4):
            unassigned[reg.priority - 1] += 1

    sums: dict[CellKey, int] = {CellKey(s.or_id, s.day, s.shift_id): 0 for s in instance.mss}
    for a in schedule.assignments:
        reg = regs.get(a.registration_id)
        key = CellKey(a.or_id, a.day, a.shift_id)
        if reg is not None and reg.confidence is not None and key in sums:
            sums[key] += reg.confidence * confidence_scale

    if sums:
        max_sum = max(sums.values())
        spread = max_sum - min(sums.values())
    else:
        max_sum = spread = 0
    return ObjectiveVector(*unassigned, max_sum, spread)


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


def reference_compat(model) -> list[list[int]]:
    """Per registration, the cells of its specialty in index order, by
    scanning every cell."""
    return [[ci for ci, c in enumerate(model.cells) if c.specialty == r.specialty] for r in model.regs]


def reference_greedy(model, state, rng):
    """The heuristic's greedy construction into the empty ``state``, with
    every placement checked by ``state.can_place`` and each registration's
    cells found by a scan of all cells: tiers in order, each shuffled by
    ``rng`` unless it is None; best fit by least slack, ties drawn by
    ``rng`` (else the first); a priority-1 registration that fits nowhere
    is placed by relocating one occupant or ejecting the fewest
    lower-priority ones, which are retried at the end. Returns ``state``,
    or None when a priority-1 registration cannot be placed."""
    compat = reference_compat(model)

    def best_fit(ri):
        best_slack, candidates = None, []
        for ci in compat[ri]:
            if not state.can_place(ri, ci):
                continue
            slack = model.cells[ci].capacity - state.loads[ci] - model.dur[ri]
            if best_slack is None or slack < best_slack:
                best_slack, candidates = slack, [ci]
            elif slack == best_slack:
                candidates.append(ci)
        if not candidates:
            return False
        pick = candidates[rng.randrange(len(candidates))] if rng is not None and len(candidates) > 1 else candidates[0]
        state.place(ri, pick)
        return True

    def repair(ri, retry):
        dur = model.dur[ri]
        for ci in compat[ri]:
            cell = model.cells[ci]
            if cell.emergency and state.em_used > 0:
                continue
            free = cell.capacity - state.loads[ci]
            for occ in sorted(o for o, c in enumerate(state.choice) if c == ci):
                if free + model.dur[occ] < dur:
                    continue
                state.remove(occ)
                for ci2 in compat[occ]:
                    if ci2 != ci and state.can_place(occ, ci2):
                        state.place(occ, ci2)
                        state.place(ri, ci)
                        return True
                state.place(occ, ci)
        best = None
        for ci in compat[ri]:
            cell = model.cells[ci]
            if cell.emergency and state.em_used > 0:
                continue
            free = cell.capacity - state.loads[ci]
            ejectable = sorted(
                (o for o, c in enumerate(state.choice) if c == ci and model.prio[o] > 1),
                key=lambda o: (model.prio[o], model.dur[o], model.regs[o].id),
                reverse=True,
            )
            chosen, gained = [], 0
            for occ in ejectable:
                if free + gained >= dur:
                    break
                chosen.append(occ)
                gained += model.dur[occ]
            if free + gained >= dur and (best is None or len(chosen) < len(best[1])):
                best = (ci, chosen)
        if best is None:
            return False
        ci, chosen = best
        for occ in chosen:
            state.remove(occ)
            retry.append(occ)
        state.place(ri, ci)
        return True

    retry = []
    for tier in (1, 2, 3, 4):
        order = [ri for ri in range(len(model.regs)) if model.prio[ri] == tier]
        if rng is not None:
            rng.shuffle(order)
        for ri in order:
            if not best_fit(ri) and tier == 1 and not repair(ri, retry):
                return None
    for ri in retry:
        best_fit(ri)
    return state


def _reference_best_split(X: np.ndarray, y: np.ndarray, criterion: str, min_leaf: int):
    """Best (feature, threshold) over all features at once, or None.

    Sorts the node's rows afresh for every feature and scores every sorted
    position; invalid positions score -inf, and the first maximum of the
    position-major (position, feature) grid wins."""
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1]

    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    sum_l = csum[:-1]
    sum_r = total[None, :] - sum_l
    valid = xs[1:] > xs[:-1]
    valid &= (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None

    if criterion == "friedman_mse":
        gain = (nl * nr / n) * (sum_l / nl - sum_r / nr) ** 2
        floor = 0.0
    else:
        gain = sum_l**2 / nl + sum_r**2 / nr
        floor = float(total[0] ** 2 / n) if d else 0.0
    gain = np.where(valid, gain, -np.inf)
    flat = int(np.argmax(gain))
    pos, feat = divmod(flat, d)
    best = float(gain[pos, feat])
    try:
        scale = max(1.0, float(np.abs(y).max()) ** 2)
    except OverflowError:  # every gain is inf as well
        scale = np.inf
    if best <= floor + 1e-12 * scale:
        return None
    threshold = float((xs[pos, feat] + xs[pos + 1, feat]) / 2.0)
    return feat, threshold


def reference_grow_tree(X, y, depth, params, rng=None, max_features=None) -> dict:
    """One regression tree grown by re-sorting the node's rows at every split."""
    max_depth = params["max_depth"]
    if (
        (max_depth is not None and depth >= max_depth)
        or len(y) < params["min_samples_split"]
        or float(y.min()) == float(y.max())
    ):
        return {"value": float(y.mean())}

    if max_features is not None and max_features < X.shape[1]:
        feats = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
        found = _reference_best_split(X[:, feats], y, params["criterion"], params["min_samples_leaf"])
        if found is not None:
            found = (int(feats[found[0]]), found[1])
    else:
        found = _reference_best_split(X, y, params["criterion"], params["min_samples_leaf"])
    if found is None:
        return {"value": float(y.mean())}
    feat, threshold = found
    mask = X[:, feat] <= threshold
    if mask.all() or not mask.any():  # a NaN or rounded-up midpoint splits no row off
        return {"value": float(y.mean())}
    return {
        "feature": int(feat),
        "threshold": threshold,
        "left": reference_grow_tree(X[mask], y[mask], depth + 1, params, rng, max_features),
        "right": reference_grow_tree(X[~mask], y[~mask], depth + 1, params, rng, max_features),
    }


def reference_predict(node: dict, X: np.ndarray) -> np.ndarray:
    """One tree's predictions for the rows of X, each subtree taking the
    rows that reach it; a row goes left when its value is ``<=`` the
    threshold."""
    out = np.empty(X.shape[0], dtype=float)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if "value" in nd:
            out[idx] = nd["value"]
            continue
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


def reference_fit(family: str, params: dict, X: np.ndarray, y: np.ndarray, seed: int = 0) -> dict:
    """The fitted ``structure`` of a tree, forest or boosted ensemble, grown by
    ``reference_grow_tree`` with the same bootstraps, feature draws and
    residual updates as ``regressors.fit``; boosting predicts each new tree
    on the training rows by walking it from the root."""
    from orsched.regressors import _resolve_max_features

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if family == "tree":
        return {"n_features": d, "tree": reference_grow_tree(X, y, 0, params)}
    if family == "forest":
        max_features = _resolve_max_features(params["max_features"], d)
        trees = []
        for ss in np.random.SeedSequence(seed).spawn(params["n_estimators"]):
            rng = np.random.default_rng(ss)
            sample = rng.integers(0, n, size=n)
            trees.append(reference_grow_tree(X[sample], y[sample], 0, params, rng, max_features))
        return {"n_features": d, "trees": trees}
    base = float(y.mean())
    current = np.full(n, base)
    trees = []
    for _ in range(params["n_estimators"]):
        tree = reference_grow_tree(X, y - current, 0, params)
        current = current + params["learning_rate"] * reference_predict(tree, X)
        trees.append(tree)
    return {"n_features": d, "base": base, "trees": trees}


def _reject_repeated_columns(path, header) -> None:
    repeated = [name for k, name in enumerate(header) if name in header[:k]]
    if repeated:
        raise InputFileError(path, 1, repeated[0], "column repeats in the header")


def reference_read_records_csv(path) -> list[dict]:
    """A records file parsed cell by cell in file order; a byte that is not
    UTF-8 is reported at the line that holds it."""
    try:
        return _reference_records(path)
    except UnicodeDecodeError:
        data = open(path, "rb").read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise InputFileError(path, line, None, f"byte {data[exc.start]:#04x} is not UTF-8") from None
        raise


def _reference_records(path) -> list[dict]:
    from orsched.ingest import INTEGER_COLUMNS, TIMESTAMP_COLUMNS

    def parse(column, text):
        if text == "":
            return None
        if column in TIMESTAMP_COLUMNS:
            return datetime.fromisoformat(text)
        if column in INTEGER_COLUMNS:
            return int(text)
        return text

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFileError(path, 1, "header", "empty records file") from None
        _reject_repeated_columns(path, header)
        records = []
        for row in reader:
            if not row:
                continue  # a blank line
            record = {}
            for column, text in zip(header, row):
                try:
                    record[column] = parse(column, text)
                except ValueError:
                    kind = "a timestamp" if column in TIMESTAMP_COLUMNS else "an integer"
                    raise InputFileError(path, reader.line_num, column, f"{text!r} is not {kind}") from None
            records.append(record)
    return records


def reference_read_csv_rows(path, columns, integers, optional=()) -> list[dict]:
    """``core.read_csv_rows`` by ``csv.DictReader``, cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _reject_repeated_columns(path, reader.fieldnames or [])
        for column in columns:
            if column not in optional and column not in (reader.fieldnames or ()):
                raise InputFileError(path, 1, column, "column missing from the header")
        rows = []
        for row in reader:
            values = {}
            for column in columns:
                value = row.get(column)
                if column in optional and not value:
                    value = None
                elif not value:  # an empty cell, or one past the row's end
                    raise InputFileError(path, reader.line_num, column, "value missing")
                elif column in integers:
                    try:
                        value = int(value)
                    except ValueError:
                        raise InputFileError(path, reader.line_num, column, f"{value!r} is not an integer") from None
                values[column] = value
            rows.append(values)
    return rows


def reference_numeric_encoding(records, columns) -> np.ndarray:
    """The correlation-pruning matrix value by value: numbers as floats,
    datetimes as UTC epoch seconds (a naive one read as UTC), None as -1,
    anything else by its first appearance in the column."""
    matrix = np.zeros((len(records), len(columns)), dtype=float)
    for j, col in enumerate(columns):
        codes = {}
        for i, rec in enumerate(records):
            v = rec.get(col)
            if isinstance(v, bool):
                matrix[i, j] = float(v)
            elif isinstance(v, (int, float)):
                matrix[i, j] = float(v)
            elif isinstance(v, datetime):
                matrix[i, j] = calendar.timegm(v.utctimetuple()) + v.microsecond / 1e6
            elif v is None:
                matrix[i, j] = -1.0
            else:
                matrix[i, j] = codes.setdefault(v, len(codes))
    return matrix


def reference_transform(encoder, records) -> np.ndarray:
    """``FeatureEncoder.transform`` one record and one column at a time."""
    rows = np.zeros((len(records), len(encoder.feature_names)), dtype=float)
    j = 0
    for col in encoder.numeric_columns:
        for i, rec in enumerate(records):
            v = rec.get(col)
            rows[i, j] = float(v) if isinstance(v, (int, float)) else 0.0
        j += 1
    for col in encoder.timestamp_columns:
        for i, rec in enumerate(records):
            v = rec.get(col)
            if isinstance(v, datetime):
                rows[i, j] = v.hour
                rows[i, j + 1] = v.weekday()
        j += 2
    for col in encoder.categorical_columns:
        table = encoder.categories[col]
        for i, rec in enumerate(records):
            v = rec.get(col)
            rows[i, j] = table.get("" if v is None else str(v), -1)
        j += 1
    return rows


def reference_categories(records, column) -> dict:
    """A categorical column's codes, by first appearance of each value's key."""
    table = {}
    for rec in records:
        v = rec.get(column)
        table.setdefault("" if v is None else str(v), len(table))
    return table


def reference_iqr_filter(values, multiplier: float = 1.5) -> list[int]:
    """``ingest.iqr_filter`` with its quartiles from ``np.quantile``."""
    arr = np.asarray(values, dtype=float)
    q1, q3 = (float(q) for q in np.quantile(arr, [0.25, 0.75]))
    span = multiplier * (q3 - q1)
    if not math.isfinite(span):
        return list(range(len(values)))
    return np.flatnonzero((q1 - span <= arr) & (arr <= q3 + span)).tolist()


def reference_generate_synthetic_dataset(config: SyntheticConfig, seed: int) -> list[SurgicalRecord]:
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


def reference_generate_week(
    config: SyntheticConfig,
    seed: int,
    shape: HospitalShape = HOSPITAL_SHAPES["bordighera"],
    planning_days: int = 5,
    fill_ratio: float = 1.15,
) -> tuple[list[SurgicalRecord], list[Registration], list[MssSlot], list[Shift]]:
    """One operating week: feature records for the waiting list, the derived
    registrations (actual duration attached), the MSS and the shift table.

    Registrations are drawn until their total actual duration reaches
    ``fill_ratio`` times the horizon capacity, so the packing is tight but
    p1 demand stays comfortably placeable.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    capacity = shape.n_ors * planning_days * shape.shift_minutes
    pool = reference_generate_synthetic_dataset(
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


def reference_generate_hospitalizations(seed: int, n_rows: int = 40) -> list[dict[str, str]]:
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
