#!/usr/bin/env python3
"""Time one subject of two orsched checkouts against each other, in alternating pairs.

    python scripts/ab.py {data,fit,solve,synth} --parent DIR [--change DIR] [--pairs N]

Each side is one worker process with its checkout's ``src/`` as
``PYTHONPATH``: it sets up, runs once untimed, then answers each request
with one JSON line. Shared inputs are made once, by ``--change``. The
subjects, with the digests that must match:

- ``data``: on the imperia synth of seed 1, its ``train --grid fast``
  model and its VBA schedule at ``--max-restarts 2``, the history read
  (``read_records_csv``), ``preprocess``, ``encode_features``, the week
  read, ``cli._build_estimates`` for Pred and for Dep as ``orsched
  schedule`` calls it (each reads the week again), ``load_instance``,
  ``read_schedule_csv`` and ``evaluate_schedule`` of that schedule on the
  loaded instance; the sha256 of the feature matrix and target, of the
  encoder, of the registrations each of Pred and Dep plans with
  (``evaluate.apply_method_durations``), of the instance, of the
  assignments and of the report, in every run. An instance's digest is of the three files
  ``ingest``'s writers make of it, its days and its emergency OR.
- ``fit``: ``regressors.fit`` of boosted 400x5 and 80x3 on the split that
  ``orsched train --seed 1`` fits on the bordighera 2,000-row synth; each
  structure's sha256 (a ``tracemalloc`` peak is printed too).
- ``solve``: ``evaluate.solve_method`` of the five methods on the imperia
  week of seed 1 at ``--max-restarts 2``; 180 solves: both hospitals x week
  seeds 1-6 (``synth``, ``train --grid fast``) x caps 1, 2, 4 x methods.
- ``synth``: ``orsched synth --hospital <h> --seed 1`` for bordighera and
  imperia; every written file's sha256, in every run.

It prints each pair's total, then for the total and each part both sides'
median and quartiles, the change's wins and the median ratio (change /
parent), and the first digest that differs. Exit status: 0 if none does, 1
if one does or a worker fails, 2 for a bad argument. Example:
    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python scripts/ab.py solve --parent /tmp/parent --pairs 10
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
GRIDS = {"400x5": (400, 5), "80x3": (80, 3)}
METHODS = ("VBA", "Conf", "Pred", "Dep", "Surg")
HOSPITALS = ("bordighera", "imperia")
WEEK_SEEDS = range(1, 7)
CAPS = (1, 2, 4)
TIME_LIMIT_S = 3600.0  # far above what the restart caps need
# a child runs in this directory, which holds no package that could shadow the checkout's
CHILD = "import sys, ab; ab.child(*sys.argv[1:])"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed(work, *args) -> float:
    start = time.perf_counter()
    work(*args)
    return time.perf_counter() - start


# -- worker side: runs with one checkout's package on sys.path ------------------
def run_cli(*argv: str) -> None:
    """``orsched <argv>``, which must succeed."""
    from orsched.cli import main

    if main(list(argv)) != 0:
        raise RuntimeError(f"orsched {' '.join(argv)} failed")


def make_inputs(subject: str, data: Path) -> None:
    if subject == "fit":  # keep the split that ``train`` hands to ``fit``
        import numpy as np
        from orsched import cli

        split, fit = [], cli.fit
        cli.fit = lambda spec, X, y, seed: split.append((X, y)) or fit(spec, X, y, seed=seed)
        run_cli("synth", "--rows", "2000", "--seed", str(SEED), "-o", str(data))
        run_cli("train", "--records", str(data / "records.csv"), "--grid", "fast", "--seed", str(SEED), "-o", str(data))
        np.savez(data / "split.npz", X=split[0][0], y=split[0][1])
    elif subject == "data":
        run_cli("synth", "--hospital", "imperia", "--rows", "2000", "--seed", str(SEED), "-o", str(data))
        run_cli("train", "--records", str(data / "records.csv"), "--grid", "fast", "--seed", str(SEED), "-o", str(data))
        instance = ["--registrations", str(data / "registrations.csv"), "--mss", str(data / "mss.csv"), "--shifts", str(data / "shifts.csv")]
        run_cli("schedule", *instance, "--max-restarts", "2", "--time-limit", str(TIME_LIMIT_S), "--seed", str(SEED), "-o", str(data))
    elif subject == "solve":
        for hospital, seed in itertools.product(HOSPITALS, WEEK_SEEDS):
            out = data / f"{hospital}-{seed}"
            run_cli("synth", "--hospital", hospital, "--rows", "2000", "--seed", str(seed), "-o", str(out))
            run_cli("train", "--records", str(out / "records.csv"), "--grid", "fast", "--seed", str(seed), "-o", str(out))


# A subject sets up on the inputs in ``data`` and returns what it times, the
# digests of its set-up, values it only prints, and ``run``, which gives each
# part's seconds and that run's digests.
def subject_fit(data: Path):
    import numpy as np
    from orsched.regressors import ModelSpec, fit

    X, y = (np.load(data / "split.npz")[key] for key in "Xy")
    specs = {grid: ModelSpec("boosted_trees", {"n_estimators": n, "learning_rate": 0.1, "max_depth": depth}) for grid, (n, depth) in GRIDS.items()}

    digests, info = {}, {}
    for grid, spec in specs.items():
        tracemalloc.start()
        model = fit(spec, X, y, SEED)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        digests[grid] = info[f"{grid} structure sha256"] = sha256(json.dumps(model.structure))
        info[f"{grid} tracemalloc peak"] = f"{peak} B"

    def run():
        return {grid: timed(fit, spec, X, y, SEED) for grid, spec in specs.items()}, {}

    return f"regressors.fit of boosted {' and '.join(GRIDS)} on {X.shape[0]}x{X.shape[1]}", digests, info, run


def subject_solve(data: Path):
    from orsched.cli import _build_estimates, build_parser
    from orsched.evaluate import solve_method
    from orsched.ingest import load_instance
    from orsched.solve import SolveLimits

    def week(hospital: str, seed: int):
        """The week's instance and the estimates ``orsched schedule --week --model`` plans with."""
        out = data / f"{hospital}-{seed}"
        instance = load_instance(out / "registrations.csv", out / "mss.csv", out / "shifts.csv")
        flags = build_parser().parse_args(["schedule", "--week", str(out / "week.csv"), "--model", str(out / "model.json")])
        return instance, _build_estimates(flags, METHODS, instance)

    digests = {}
    for hospital, seed in itertools.product(HOSPITALS, WEEK_SEEDS):
        instance, estimates = week(hospital, seed)
        for cap, method in itertools.product(CAPS, METHODS):
            limits = SolveLimits(time_budget_s=TIME_LIMIT_S, seed=seed, max_restarts=cap)
            _, schedule, proven = solve_method(instance, method, estimates, limits)
            placed = [[a.registration_id, a.priority, a.or_id, a.day, a.shift_id] for a in schedule.assignments]
            objective = list(schedule.objective.to_json_dict().values())  # to_json_dict: both checkouts have it
            digests[f"{hospital} seed {seed} cap {cap} {method}"] = sha256(json.dumps([placed, objective, proven]))
    info = {f"sha256 over {len(digests)} solves": sha256("\n".join(digests.values()))}
    (instance, estimates), limits = week("imperia", SEED), SolveLimits(time_budget_s=TIME_LIMIT_S, seed=SEED, max_restarts=2)

    def run():
        return {method: timed(solve_method, instance, method, estimates, limits) for method in METHODS}, {}

    return f"five imperia solves, week seed {SEED}, --max-restarts 2", digests, info, run


def subject_data(data: Path):
    from orsched.cli import _build_estimates, build_parser
    from orsched.core import ObjectiveVector, Schedule
    from orsched.evaluate import apply_method_durations, evaluate_schedule
    from orsched.ingest import load_instance, preprocess, read_records_csv, write_mss_csv, write_registrations_csv, write_shifts_csv
    from orsched.predict import encode_features
    from orsched.solve import read_schedule_csv

    def instance_sha256(instance) -> str:
        """The digest of what the writers make of the instance's parts, with its days and emergency OR."""
        texts = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part.csv"
            writers = {write_registrations_csv: instance.registrations, write_mss_csv: instance.mss, write_shifts_csv: instance.shifts}
            for write, rows in writers.items():
                write(rows, path)
                texts.append(path.read_text(encoding="utf-8"))
        return sha256(json.dumps([*texts, instance.planning_days, instance.emergency_or_id]))

    paths = (data / "registrations.csv", data / "mss.csv", data / "shifts.csv")
    instance = load_instance(*paths)
    flags = build_parser().parse_args(
        ["schedule", "--week", str(data / "week.csv"), "--model", str(data / "model.json"), "--seed", str(SEED)]
    )

    def run():
        times = {}

        def step(part: str, work, *args):
            start = time.perf_counter()
            result = work(*args)
            times[part] = time.perf_counter() - start
            return result

        history = step("read history", read_records_csv, data / "records.csv")
        clean, _ = step("preprocess", preprocess, history, SEED)
        X, y, encoder = step("encode", encode_features, clean)
        step("read week", read_records_csv, data / "week.csv")
        pred = step("Pred estimates", _build_estimates, flags, ["Pred"], instance)
        dep = step("Dep estimates", _build_estimates, flags, ["Dep"], instance)
        loaded = step("load instance", load_instance, *paths)
        assignments = step("read schedule", read_schedule_csv, data / "schedule.csv")
        report = step("evaluate", evaluate_schedule, "VBA", Schedule(assignments, ObjectiveVector(0, 0, 0, 0, 0, 0)), loaded)
        return times, {
            "feature matrix": hashlib.sha256(X.tobytes()).hexdigest(),
            "target": hashlib.sha256(y.tobytes()).hexdigest(),
            "encoder": sha256(json.dumps(vars(encoder))),
            "Pred planned": instance_sha256(apply_method_durations(instance, "Pred", pred)),
            "Dep planned": instance_sha256(apply_method_durations(instance, "Dep", dep)),
            "instance": instance_sha256(loaded),
            "assignments": sha256(repr(assignments)),
            "report": sha256(repr(report)),
        }

    return f"imperia records, week, estimates, instance and VBA schedule, seed {SEED}", {}, {}, run


def subject_synth(data: Path):
    def run():
        times, digests = {}, {}
        for hospital in HOSPITALS:
            with tempfile.TemporaryDirectory() as out:
                times[hospital] = timed(run_cli, "synth", "--hospital", hospital, "--seed", str(SEED), "-o", out)
                digests.update({f"{hospital}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())})
        return times, digests

    return f"orsched synth --seed {SEED} of {' and '.join(HOSPITALS)}", {}, {}, run


SUBJECTS = {"data": subject_data, "fit": subject_fit, "solve": subject_solve, "synth": subject_synth}


def child(role: str, subject: str, data: str) -> None:
    """``inputs`` writes the shared inputs into ``data``; ``serve`` sets up,
    replies, then answers each ``run`` on stdin until it closes."""
    replies, sys.stdout = sys.stdout, open(os.devnull, "w")
    if role == "inputs":
        return make_inputs(subject, Path(data))
    about, digests, info, run = SUBJECTS[subject](Path(data))
    run()  # untimed warm-up
    print(json.dumps({"about": about, "digests": digests, "info": info}), file=replies, flush=True)
    while sys.stdin.readline().strip() == "run":
        times, digests = run()
        print(json.dumps({"times": {"total": sum(times.values()), **times}, "digests": digests}), file=replies, flush=True)


# -- comparison: drives one worker per checkout ---------------------------------
def spawn(stack: contextlib.ExitStack, checkout: Path, *argv: str, **popen) -> subprocess.Popen:
    """A child importing ``checkout``'s package, killed and reaped when ``stack`` closes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    process = stack.enter_context(subprocess.Popen([sys.executable, "-c", CHILD, *argv], cwd=HERE, env=env, **popen))
    stack.callback(process.kill)
    return process


def reply(name: str, worker: subprocess.Popen, request: str | None = None) -> dict:
    """The worker's next line, after sending it ``request`` if one is given."""
    if request is not None:
        with contextlib.suppress(BrokenPipeError):  # a dead worker shows at the read
            worker.stdin.write(request + "\n")
            worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"error: {name} worker exited with code {worker.wait()}")
    return json.loads(line)


def ms_quartiles(values: list[float]) -> str:
    q1, q2, q3 = (q * 1e3 for q in statistics.quantiles(values, n=4))
    return f"median {q2:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms"


def first_difference(a: dict, b: dict) -> str | None:
    return next((key for key in [*a, *(k for k in b if k not in a)] if a.get(key) != b.get(key)), None)


def compare(sides: dict[str, Path], subject: str, pairs: int, stack: contextlib.ExitStack, data: Path) -> bool:
    if subject != "synth" and spawn(stack, sides["change"], "inputs", subject, str(data)).wait() != 0:
        raise SystemExit(f"error: making the {subject} inputs with {sides['change']} failed")
    pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "text": True}
    workers = {name: spawn(stack, checkout, "serve", subject, str(data), **pipes) for name, checkout in sides.items()}
    rounds = [{name: reply(name, worker) for name, worker in workers.items()}]  # both set up before any timing
    print(f"== {subject}: {rounds[0]['change']['about']}, {pairs} pairs", flush=True)
    for i in range(pairs):
        order = list(workers) if i % 2 == 0 else list(reversed(workers))
        rounds.append({name: reply(name, workers[name], "run") for name in order})
        p, c = (rounds[-1][name]["times"]["total"] for name in ("parent", "change"))
        print(f"pair {i + 1:2d} ({order[0]} first): parent {p * 1e3:.1f} ms  change {c * 1e3:.1f} ms  ratio {c / p:.3f}", flush=True)

    for part in rounds[1]["change"]["times"]:
        times = {name: [r[name]["times"][part] for r in rounds[1:]] for name in workers}
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        print(f"{part}: parent {ms_quartiles(times['parent'])}; change {ms_quartiles(times['change'])}")
        print(f"{part}: change won {sum(r < 1 for r in ratios)} of {pairs} pairs; median ratio {statistics.median(ratios):.3f}")
    for name in workers:
        for key, value in rounds[0][name]["info"].items():
            print(f"{name}: {key} {value}")
    labels = ["set-up", *(f"pair {i + 1}" for i in range(pairs))]
    differ = [f"{label}: {key}" for label, r in zip(labels, rounds) if (key := first_difference(r["parent"]["digests"], r["change"]["digests"]))]
    counts = f"{len(rounds[0]['change']['digests'])} at set-up, {len(rounds[1]['change']['digests'])} per run in each of {pairs} pairs"
    print(f"digests DIFFER: first at {differ[0]}" if differ else f"digests identical: {counts}")
    return not differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("subject", choices=SUBJECTS)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=HERE.parent, help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs, at least 2 (default %(default)s)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lacking = [str(checkout) for checkout in sides.values() if not (checkout / "src" / "orsched" / "__init__.py").is_file()]
    if lacking or args.pairs < 2:
        print(f"error: {lacking[0]}: no src/orsched package" if lacking else "error: --pairs must be >= 2", file=sys.stderr)
        return 2
    # the stack kills and reaps every child, on any exit, before the inputs are removed
    with tempfile.TemporaryDirectory() as data, contextlib.ExitStack() as stack:
        return 0 if compare(sides, args.subject, args.pairs, stack, Path(data)) else 1


if __name__ == "__main__":
    sys.exit(main())
