#!/usr/bin/env python3
"""Time the five method solves of two source trees against each other.

Two ``orsched`` packages cannot share one process, so every measurement is a
fresh subprocess of this script with ``PYTHONPATH`` set to one checkout's
``src/``. The inputs are made once, by the ``--change`` checkout's CLI, in a
temporary directory: for each week, ``orsched synth`` (2,000 rows) and
``orsched train --grid fast`` at the week's seed.

- **Timing.** Each subprocess loads the imperia week of seed 1 (913
  registrations) and its duration estimates untimed, then times
  ``evaluate.solve_method`` for VBA, Conf, Pred, Dep and Surg at the
  benchmark's ``--max-restarts 2`` (restart seed 1, a time limit far above
  what the cap needs). ``--pairs`` pairs run, the side that runs first
  alternating from pair to pair. It prints each pair's summed times and
  their ratio (change / parent), each side's median and quartiles, how many
  pairs the change won, and each method's median per side.
- **Digests.** One more subprocess per side solves both hospitals' weeks at
  seeds 1-6 with caps 1, 2 and 4 for all five methods (180 solves) and
  hashes each solve's (assignments, objective, proven) with sha256. It
  prints each side's digest over all of them; equal digests mean the two
  trees chose the same schedules. The first differing solve is named.

Example, with the parent commit unpacked beside the checkout:
    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python scripts/ab_solve.py --parent /tmp/parent --pairs 10
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("VBA", "Conf", "Pred", "Dep", "Surg")
HOSPITALS = ("bordighera", "imperia")
DIGEST_SEEDS = range(1, 7)
DIGEST_CAPS = (1, 2, 4)
TIMED_SEED, TIMED_CAP = 1, 2
ROWS = "2000"
TIME_LIMIT_S = 3600.0


def week_dir(data: Path, hospital: str, seed: int) -> Path:
    return data / f"{hospital}-{seed}"


def run_side(checkout: Path, *argv: str) -> str:
    """This script (or ``python -m orsched``) in a subprocess importing ``checkout``'s package."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[:3])} failed:\n{done.stderr}")
    return done.stdout


def make_weeks(checkout: Path, data: Path, weeks: list[tuple[str, int]]) -> None:
    for hospital, seed in weeks:
        out = week_dir(data, hospital, seed)
        common = ["--seed", str(seed), "-o", str(out)]
        run_side(checkout, "-m", "orsched", "synth", "--hospital", hospital, "--rows", ROWS, *common)
        run_side(checkout, "-m", "orsched", "train", "--records", str(out / "records.csv"), "--grid", "fast", *common)


# -- worker side: runs with one checkout's package on sys.path ------------------


def load_week(out: Path):
    """The week's instance and the estimates all five methods plan with,
    built as ``orsched schedule --week --model`` builds them."""
    from orsched.cli import _build_estimates, build_parser
    from orsched.ingest import load_instance

    instance = load_instance(out / "registrations.csv", out / "mss.csv", out / "shifts.csv")
    flags = build_parser().parse_args(["schedule", "--week", str(out / "week.csv"), "--model", str(out / "model.json")])
    return instance, _build_estimates(flags, METHODS, instance)


def worker_time(data: Path) -> dict:
    from orsched.evaluate import solve_method
    from orsched.solve import SolveLimits

    instance, estimates = load_week(week_dir(data, "imperia", TIMED_SEED))
    limits = SolveLimits(time_budget_s=TIME_LIMIT_S, seed=TIMED_SEED, max_restarts=TIMED_CAP)
    times = {}
    for method in METHODS:
        start = time.perf_counter()
        solve_method(instance, method, estimates, limits)
        times[method] = time.perf_counter() - start
    return times


def worker_digest(data: Path) -> list[list]:
    from orsched.evaluate import solve_method
    from orsched.solve import SolveLimits

    rows = []
    for hospital in HOSPITALS:
        for seed in DIGEST_SEEDS:
            instance, estimates = load_week(week_dir(data, hospital, seed))
            for cap in DIGEST_CAPS:
                limits = SolveLimits(time_budget_s=TIME_LIMIT_S, seed=seed, max_restarts=cap)
                for method in METHODS:
                    _, schedule, proven = solve_method(instance, method, estimates, limits)
                    solved = json.dumps(
                        [
                            [[a.registration_id, a.priority, a.or_id, a.day, a.shift_id] for a in schedule.assignments],
                            list(schedule.objective.as_tuple()),
                            proven,
                        ]
                    )
                    rows.append([hospital, seed, cap, method, hashlib.sha256(solved.encode("utf-8")).hexdigest()])
    return rows


# -- comparison: starts the workers of both checkouts -------------------------


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"


def compare_times(sides: dict[str, Path], data: Path, pairs: int) -> None:
    print(f"== five imperia solves, week seed {TIMED_SEED}, --max-restarts {TIMED_CAP}, {pairs} pairs")
    runs: dict[str, list[dict]] = {name: [] for name in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for name in order:
            out = run_side(sides[name], __file__, "--worker", "time", "--data", str(data))
            runs[name].append(json.loads(out))
        p, c = (sum(runs[name][-1].values()) for name in ("parent", "change"))
        print(f"pair {i + 1:2d} ({order[0]} first): parent {p:.4f} s  change {c:.4f} s  ratio {c / p:.3f}")
    totals = {name: [sum(run.values()) for run in runs[name]] for name in sides}
    wins = sum(c < p for p, c in zip(totals["parent"], totals["change"]))
    ratios = [c / p for p, c in zip(totals["parent"], totals["change"])]
    for name in sides:
        print(f"{name}: {quartiles(totals[name])}")
    print(f"change won {wins} of {pairs} pairs; median ratio {statistics.median(ratios):.3f}")
    for method in METHODS:
        medians = {name: statistics.median(run[method] for run in runs[name]) for name in sides}
        print(f"{method:<5} median: parent {medians['parent']:.4f} s  change {medians['change']:.4f} s  ratio {medians['change'] / medians['parent']:.3f}")


def compare_digests(sides: dict[str, Path], data: Path) -> None:
    n = len(HOSPITALS) * len(DIGEST_SEEDS) * len(DIGEST_CAPS) * len(METHODS)
    print(f"== digests over {n} solves: {', '.join(HOSPITALS)} x seeds {DIGEST_SEEDS.start}-{DIGEST_SEEDS.stop - 1} x caps {DIGEST_CAPS} x {len(METHODS)} methods")
    rows = {name: json.loads(run_side(checkout, __file__, "--worker", "digest", "--data", str(data))) for name, checkout in sides.items()}
    for name in sides:
        total = hashlib.sha256("\n".join(row[-1] for row in rows[name]).encode("utf-8")).hexdigest()
        print(f"{name}: sha256 {total}")
    differ = [p[:4] for p, c in zip(rows["parent"], rows["change"]) if p != c]
    if differ:
        print(f"digests DIFFER in {len(differ)} of {n} solves; first: {differ[0]}")
    else:
        print("digests identical")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--no-digest", dest="digest", action="store_false", help="skip the 180-solve digests")
    parser.add_argument("--worker", choices=("time", "digest"), help=argparse.SUPPRESS)
    parser.add_argument("--data", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker == "time":
        print(json.dumps(worker_time(args.data)))
        return 0
    if args.worker == "digest":
        print(json.dumps(worker_digest(args.data)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    weeks = [("imperia", TIMED_SEED)]
    if args.digest:
        weeks += [(h, s) for h in HOSPITALS for s in DIGEST_SEEDS if (h, s) != ("imperia", TIMED_SEED)]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        make_weeks(sides["change"], data, weeks)
        compare_times(sides, data, args.pairs)
        if args.digest:
            compare_digests(sides, data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
