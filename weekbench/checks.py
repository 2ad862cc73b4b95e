"""Independent checks of the files the ``orsched`` CLI writes.

Everything here is recomputed from the input CSVs and the written outputs
with the standard library alone; no ``orsched`` function is called, so a
fault in a shared helper cannot hide itself. Each check returns the list of
problems it found, empty when the output is correct, and what it read.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime
from pathlib import Path

METHODS = ("VBA", "Conf", "Pred", "Dep", "Surg")
_BASELINE_KEY = {"Dep": "department", "Surg": "procedure_type"}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class WeekInputs:
    """The week's input files: registrations, MSS cells, shift capacities and
    the feature records of the operating list."""

    def __init__(self, data: Path) -> None:
        self.regs = {r["id"]: r for r in read_csv(data / "registrations.csv")}
        self.cells = {(r["or_id"], int(r["day"]), r["shift_id"]): r["specialty"] for r in read_csv(data / "mss.csv")}
        self.capacity = {r["shift_id"]: int(r["capacity_min"]) for r in read_csv(data / "shifts.csv")}
        self.week = {r["PROGRESSIVO"]: r for r in read_csv(data / "week.csv")}
        self.actual = {rid: int(r["actual_duration_min"]) for rid, r in self.regs.items()}


# ---------------------------------------------------------------------------
# model replica: the encoder and boosted trees stored in model.json


def _features(encoder: dict, row: dict[str, str]) -> list[float]:
    x = [float(row[c]) if row.get(c) else 0.0 for c in encoder["numeric_columns"]]
    for col in encoder["timestamp_columns"]:
        ts = datetime.fromisoformat(row[col]) if row.get(col) else None
        x += [ts.hour, ts.weekday()] if ts else [0.0, 0.0]
    x += [encoder["categories"][c].get(row.get(c, ""), -1) for c in encoder["categorical_columns"]]
    return [float(v) for v in x]


def _tree_value(node: dict, x: list[float]) -> float:
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def model_predictions(model: dict, rows: dict[str, dict[str, str]]) -> dict[str, float]:
    """Boosted-tree predictions, summed tree by tree in the order ``predict`` uses."""
    if model["family"] != "boosted_trees":
        raise ValueError(f"the replica covers the boosted_trees grids, not {model['family']!r}")
    lr = model["hyperparameters"]["learning_rate"]
    out = {}
    for rid, row in rows.items():
        x = _features(model["encoder"], row)
        value = model["structure"]["base"]
        for tree in model["structure"]["trees"]:
            value += lr * _tree_value(tree, x)
        out[rid] = value
    return out


def confidence_level(actual: int, predicted: float) -> int:
    err = abs(predicted - actual) / actual * 100.0
    return 1 if err < 10.0 else 2 if err < 25.0 else 3 if err < 50.0 else 4


def planned_durations(inputs: WeekInputs, method: str, model: dict, predicted: dict[str, float]) -> dict[str, int]:
    """The minutes each registration occupies in the method's plan."""
    if method == "VBA":
        estimate = {rid: float(a) for rid, a in inputs.actual.items()}
    elif method in ("Conf", "Pred"):
        estimate = predicted
    else:
        base = model["baselines"][_BASELINE_KEY[method]]
        estimate = {
            rid: base["means"].get(inputs.week[rid].get(base["column"], ""), base["global_mean"])
            for rid in inputs.regs
        }
    return {rid: max(1, round(estimate[rid])) for rid in inputs.regs}


# ---------------------------------------------------------------------------
# schedule.csv + objective.json


def check_schedule(
    inputs: WeekInputs, model: dict, predicted: dict[str, float], method: str, out: Path
) -> tuple[list[str], tuple[list[dict[str, str]], dict]]:
    """Hard constraints of one schedule under the durations the method planned
    with; its objective's unassigned counts (every method) and confidence
    aggregates (Conf and Pred). Returns the schedule rows and the objective."""
    rows = read_csv(out / "schedule.csv")
    objective = json.loads((out / "objective.json").read_text(encoding="utf-8"))
    planned = planned_durations(inputs, method, model, predicted)
    problems = []
    placed: set[str] = set()
    loads = {cell: 0 for cell in inputs.cells}
    conf_sums = {cell: 0 for cell in inputs.cells}
    for row in rows:
        rid, cell = row["registration_id"], (row["or_id"], int(row["day"]), row["shift_id"])
        reg = inputs.regs.get(rid)
        if reg is None:
            problems.append(f"{method}: unknown registration {rid}")
            continue
        if rid in placed:
            problems.append(f"{method}: {rid} placed twice")
        placed.add(rid)
        if row["priority"] != reg["priority"]:
            problems.append(f"{method}: {rid} priority {row['priority']} != {reg['priority']}")
        if cell not in inputs.cells:
            problems.append(f"{method}: {rid} in unknown cell {cell}")
            continue
        if inputs.cells[cell] != reg["specialty"]:
            problems.append(f"{method}: {rid} ({reg['specialty']}) in a {inputs.cells[cell]} cell")
        loads[cell] += planned[rid]
        if method in ("Conf", "Pred"):
            conf_sums[cell] += confidence_level(inputs.actual[rid], predicted[rid])
    for cell, load in loads.items():
        if load > inputs.capacity[cell[2]]:
            problems.append(f"{method}: cell {cell} planned {load} min > {inputs.capacity[cell[2]]}")
    unassigned = [0, 0, 0, 0]
    for rid, reg in inputs.regs.items():
        if rid not in placed:
            unassigned[int(reg["priority"]) - 1] += 1
    if unassigned[0]:
        problems.append(f"{method}: {unassigned[0]} priority-1 registrations left out")
    expected = dict(zip(("l6", "l5", "l4", "l3"), unassigned))
    if method in ("Conf", "Pred"):
        top = max(conf_sums.values())
        expected.update(l2=top, l1=top - min(conf_sums.values()))
    for key, value in expected.items():
        if objective[key] != value:
            problems.append(f"{method}: objective {key}={objective[key]}, recomputed {value}")
    return problems, (rows, objective)


# ---------------------------------------------------------------------------
# metrics.json + predictions.csv


def check_training(data: Path, out: Path) -> tuple[list[str], tuple[WeekInputs, dict, dict[str, float], float]]:
    """Test MAE recomputed from predictions.csv, and below both historical-mean
    baselines on the same test rows. Returns the week's inputs, the model, its
    predictions for the week and the reported test MAE."""
    inputs = WeekInputs(data)
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    records = {r["PROGRESSIVO"]: r for r in read_csv(data / "records.csv")}
    reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["mae"]
    trained = (inputs, model, model_predictions(model, inputs.week), reported)
    rows = read_csv(out / "predictions.csv")
    if not rows:
        return ["predictions.csv holds no test rows"], trained
    problems = []
    mae = sum(abs(float(r["yhat"]) - float(r["y"])) for r in rows) / len(rows)
    if abs(mae - reported) > 1e-3:  # yhat is written with three decimals
        problems.append(f"test MAE {reported} in metrics.json, {mae} from predictions.csv")
    for key in ("department", "procedure_type"):
        base = model["baselines"][key]
        base_mae = sum(
            abs(base["means"].get(records[r["id"]][base["column"]], base["global_mean"]) - float(r["y"])) for r in rows
        ) / len(rows)
        if not reported < base_mae:
            problems.append(f"test MAE {reported} not below the {key}-mean MAE {base_mae}")
    return problems, trained


# ---------------------------------------------------------------------------
# report.json


def check_report(inputs: WeekInputs, schedules: dict[str, list[dict[str, str]]], out: Path) -> tuple[list[str], None]:
    """Occupancy statistics and booking counts replayed from actual durations;
    VBA, planned with the actual durations, overbooks no cell."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    by_method = {entry["method"]: entry for entry in report}
    for method, rows in schedules.items():
        entry = by_method.get(method)
        if entry is None:
            problems.append(f"report.json has no {method} row")
            continue
        actual: dict[tuple, int] = {}
        for row in rows:
            cell = (row["or_id"], int(row["day"]), row["shift_id"])
            actual[cell] = actual.get(cell, 0) + inputs.actual[row["registration_id"]]
        occ = [100.0 * minutes / inputs.capacity[cell[2]] for cell, minutes in actual.items()]
        mean = sum(occ) / len(occ)
        expected = {
            "occ_mean": mean,
            "occ_std": (sum((v - mean) ** 2 for v in occ) / len(occ)) ** 0.5,
            "occ_min": min(occ),
            "occ_max": max(occ),
            "overbooked": sum(v > 100.0 for v in occ),
            "underbooked": sum(v < 80.0 for v in occ),
        }
        for key, value in expected.items():
            if not math.isclose(entry[key], value, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"report {method} {key}={entry[key]}, recomputed {value}")
    if by_method.get("VBA", {}).get("overbooked"):
        problems.append(f"VBA overbooks {by_method['VBA']['overbooked']} cells")
    return problems, None
