"""Hospital-week benchmark of the ``orsched`` command line.

Runs one workload's week through ``orsched.cli.main`` in this process:
``synth`` as set-up, then rounds of ``train`` -> ``schedule`` for the five
methods -> ``evaluate`` until ``--seconds`` have passed, checking every
round's output files independently (``checks.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``. End-to-end times
are given at the host's full speed (``pace.py``).

    python3 weekbench/run.py --workload week-imperia --seed 1 --seconds 50 --trace 0

Run it from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from pace import Pace
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROWS = 2000
#: the timed operations of a round; each of the five methods is one ``schedule``
OPS = ("train", *checks.METHODS, "evaluate")
SETUP_REPEATS = 5
#: every solve stops at this restart cap ...
MAX_RESTARTS = 2
#: ... which needs a few seconds, far below this limit, so no solve races it
TIME_LIMIT_S = 600

# ``data_seed`` fixes synth's and train's seed; None takes ``--seed``. Imperia's
# Conf solve time depends ten-fold on the week and the model (0.8 to 9.9 s for
# the first restart over eight weeks), so its inputs are one fixed week. Round
# k of every run solves with restart seed k: on that week, Conf's time differs
# by a fifth between restart seeds, and a run holds too few rounds to average
# that out between runs.
WORKLOADS = {
    "week-bordighera": {"hospital": "bordighera", "grid": "best", "data_seed": None},
    "week-imperia": {"hospital": "imperia", "grid": "fast", "data_seed": 1},
}


class Week:
    """One workload's inputs and the CLI calls made on them, with the count of
    operations attempted and failed."""

    def __init__(self, cli_main, pace: Pace, workload: str, seed: int, work: Path, tracer: Tracer | None):
        self.cli_main = cli_main
        self.pace = pace
        self.spec = WORKLOADS[workload]
        self.data_seed = str(seed if self.spec["data_seed"] is None else self.spec["data_seed"])
        self.data = work / "data"
        self.out = work / "out"
        self.tracer = tracer
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, argv: list[str], traced: bool) -> float | None:
        """Run one CLI command and take a pace sample; the command's wall
        time, or None when it failed."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    span = self.tracer.open("cli." + argv[0])
                    try:
                        code = self.cli_main(argv)
                    finally:
                        self.tracer.close(span)
                else:
                    code = self.cli_main(argv)
        except Exception:
            code, sink = -1, io.StringIO(traceback.format_exc())
        seconds = time.perf_counter() - start
        self.pace.sample()
        if code != 0:
            self.failed += 1
            print(f"orsched {' '.join(argv)} exited {code}: {sink.getvalue().strip()[-500:]}", file=sys.stderr)
            return None
        return seconds

    def _judge(self, check, *args):
        """Run one output check and return what it read. A problem it finds,
        or an output it cannot read, fails the operation that wrote it."""
        try:
            problems, value = check(*args)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            problems, value = [f"{check.__name__}: unreadable output: {exc!r}"], None
        if problems:
            self.failed += 1
            self.problems += problems
            print("\n".join(problems), file=sys.stderr)
        return value

    def synth(self, traced: bool) -> float | None:
        return self._call(
            ["synth", "--rows", str(ROWS), "--seed", self.data_seed, "--hospital", self.spec["hospital"],
             "-o", str(self.data)],
            traced,
        )

    def round(self, traced: bool) -> dict | None:
        """train -> five schedules -> evaluate: the wall time of each and the
        week's quality, or None when an operation failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        restart_seed = str(self.rounds)
        self.rounds += 1
        failed_before = self.failed
        d = self.data
        times = {"train": self._call(["train", "--records", str(d / "records.csv"), "--grid", self.spec["grid"],
                                      "--seed", self.data_seed, "-o", str(self.out)], traced)}
        trained = self._judge(checks.check_training, d, self.out) if times["train"] is not None else None

        schedules, objectives = {}, {}
        for method in checks.METHODS:
            target = self.out / method.lower()
            argv = ["schedule", "--method", method.lower(), "--registrations", str(d / "registrations.csv"),
                    "--mss", str(d / "mss.csv"), "--shifts", str(d / "shifts.csv"), "--week", str(d / "week.csv"),
                    "--model", str(self.out / "model.json"), "--time-limit", str(TIME_LIMIT_S),
                    "--max-restarts", str(MAX_RESTARTS), "--seed", restart_seed, "-o", str(target)]
            if traced:
                self.tracer.method = method.lower()
            times[method] = self._call(argv, traced)
            if times[method] is not None and trained is not None:
                inputs, model, predicted, _ = trained
                written = self._judge(checks.check_schedule, inputs, model, predicted, method, target)
                if written is not None:
                    schedules[method], objectives[method] = written

        argv = ["evaluate", "--registrations", str(d / "registrations.csv"), "--mss", str(d / "mss.csv"),
                "--shifts", str(d / "shifts.csv"), "--hospital", self.spec["hospital"], "-o", str(self.out)]
        for method in schedules:
            argv += ["--schedule", f"{method.lower()}={self.out / method.lower() / 'schedule.csv'}"]
        if schedules:
            times["evaluate"] = self._call(argv, traced)
            if times["evaluate"] is not None:
                self._judge(checks.check_report, trained[0], schedules, self.out)
        else:  # nothing to evaluate: the round still attempts the operation
            self.attempted += 1
            self.failed += 1
        if self.failed != failed_before:
            return None
        return {
            **times,
            "test_mae": trained[3],
            "scheduled_regs": sum(len(rows) for rows in schedules.values()),
            "conf_max_cell_confidence": objectives["Conf"]["l2"],
        }


def _medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


def _run_s(rounds: list[dict]) -> float:
    """The week's wall time: each operation's median over the rounds, summed.
    Host slowdowns come in bursts of a second or two, so a per-operation
    median drops a burst that a per-round median would keep."""
    medians = _medians(rounds)
    return sum(medians[op] for op in OPS)


def measure(
    cli_main, pace: Pace, workload: str, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[Week, dict]:
    tracer = Tracer() if trace else None
    week = Week(cli_main, pace, workload, seed, work, tracer)

    def traced(step, summaries: list[dict]):
        first = len(tracer.spans)
        tracer.install()
        try:
            return step(True)
        finally:
            tracer.uninstall()
            summaries.append(summarize(tracer.spans[first:]))

    setup_layers: list[dict] = []
    setup_times = [traced(week.synth, setup_layers) if trace else week.synth(False) for _ in range(SETUP_REPEATS)]
    if None in setup_times:
        return week, {}

    # With tracing, every untraced round is followed by a traced one. The first
    # untraced round is a warm-up: it is checked, but its times are not used.
    plain, traced_rounds, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(week.round(False))
        if trace:
            traced_rounds.append(traced(week.round, layers))
        done = [r for r in plain[-1:] + traced_rounds[-1:] if r is not None]
        print(f"round {len(plain)}: " + " ".join(f"{sum(r[op] for op in OPS):.3f} s" for r in done), file=sys.stderr)
        if time.perf_counter() >= deadline and len(plain) > 1:
            break
    plain = [r for r in plain[1:] if r is not None]
    if not plain:
        return week, {}

    # end-to-end times are given at the host's full speed (see pace.py)
    scale = pace.scale()
    print(f"measured run_s {_run_s(plain):.4f} s, setup_s {statistics.median(setup_times):.4f} s; "
          f"pace {pace.median():.4f} s, median of {len(pace.samples)}; scale {scale:.4f}", file=sys.stderr)
    if not trace:
        metrics = {k: v for k, v in _medians(plain).items() if k not in OPS}
        metrics["run_s"] = _run_s(plain) * scale
        metrics["setup_s"] = statistics.median(setup_times) * scale
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return week, metrics

    traced_ok = [r for r in traced_rounds if r is not None]
    if not traced_ok:
        return week, {}
    # self times come from the rounds; synth's spans only from set-up
    per_layer = _medians([summary for summary, r in zip(layers, traced_rounds) if r is not None])
    for key, value in _medians(setup_layers).items():
        per_layer.setdefault(key, value)
    per_layer["trace.overhead_s"] = _run_s(traced_ok) - _run_s(plain)
    per_layer["host.pace_s"] = pace.median()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload}-{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "setup": setup_layers, "rounds": layers,
                    "spans": tracer.to_json()}, indent=1) + "\n",
        encoding="utf-8",
    )
    return week, per_layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orsched" / "cli.py").is_file():
        print(f"error: no orsched sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from orsched.cli import main as cli_main

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with Pace() as pace:
            week, measured = measure(cli_main, pace, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and week.failed == 0:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not week.problems,
        "attempted": week.attempted,
        "failed": week.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
