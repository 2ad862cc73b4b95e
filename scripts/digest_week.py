#!/usr/bin/env python3
"""Print digests of one fixed-seed ``orsched pipeline`` run.

Runs the pipeline for one hospital week at a fixed ``--seed`` and
``--max-restarts``, with the ``--emergency-or`` it is given, in a temporary
directory, then prints one
``<sha256>  <file>`` line for every ``schedule_*.csv``, every
``objective_*.json`` with its ``wall_time_s`` dropped, and ``report.json``,
then for the training outputs ``model.json``, ``metrics.json`` and
``predictions.csv``. Then comes ``model_best.json``: ``orsched train`` with
the ``best`` grid preset (boosted 400 trees of depth 5) on the same history.
Then comes the pipeline's ``preprocess_log.json``, the rows and features
each cleaning stage kept. Last come the synth's inputs, ``SYNTH_FILES``, so
a change to the generators shows in their own lines.
Two versions of the code whose digests match wrote byte-identical outputs,
so a change to the solvers or to training that must not alter results can
be checked by running this before and after it.

The pipeline's model is trained with the ``fast`` grid preset. The solver
time limit is far above what the bounded restarts need, so no solve stops at
its deadline and the outputs do not depend on machine speed.

Example:
    PYTHONPATH=src python scripts/digest_week.py --hospital imperia --seed 1 --max-restarts 4
    PYTHONPATH=src python scripts/digest_week.py --hospital imperia --seed 1 --max-restarts 4 --emergency-or OR1
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from orsched.cli import main as cli_main
from orsched.ingest import HOSPITAL_SHAPES

GRID = "fast"
BEST_GRID = "best"
TIME_LIMIT_S = "3600"
SYNTH_FILES = ("records.csv", "week.csv", "registrations.csv", "mss.csv", "shifts.csv", "hospitalizations.csv")


def digests(out: Path) -> list[tuple[str, str]]:
    """(sha256, file name) of the schedules, the objectives, the report, then the training outputs."""
    rows = []
    for path in sorted(out.glob("schedule_*.csv")):
        rows.append((hashlib.sha256(path.read_bytes()).hexdigest(), path.name))
    for path in sorted(out.glob("objective_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.pop("wall_time_s", None)
        canonical = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        rows.append((hashlib.sha256(canonical).hexdigest(), path.name))
    for name in ("report.json", "model.json", "metrics.json", "predictions.csv"):
        rows.append((hashlib.sha256((out / name).read_bytes()).hexdigest(), name))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hospital", choices=sorted(HOSPITAL_SHAPES), default="bordighera")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-restarts", type=int, default=4)
    parser.add_argument("--emergency-or", help="the pipeline's emergency OR (default: none)")
    args = parser.parse_args()
    emergency = [] if args.emergency_or is None else ["--emergency-or", args.emergency_or]

    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "pipeline",
            "--hospital", args.hospital,
            "--seed", str(args.seed),
            "--max-restarts", str(args.max_restarts),
            "--grid", GRID,
            "--time-limit", TIME_LIMIT_S,
            *emergency,
            "-o", tmp,
        ]
        best = Path(tmp) / BEST_GRID
        train_best = [
            "train",
            "--records", str(Path(tmp) / "records.csv"),
            "--seed", str(args.seed),
            "--grid", BEST_GRID,
            "-o", str(best),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv) or cli_main(train_best)
        if code != 0:
            return code
        rows = digests(Path(tmp))
        rows.append((hashlib.sha256((best / "model.json").read_bytes()).hexdigest(), "model_best.json"))
        log = Path(tmp) / "preprocess_log.json"
        rows.append((hashlib.sha256(log.read_bytes()).hexdigest(), log.name))
        rows += [(hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest(), name) for name in SYNTH_FILES]
        for digest, name in rows:
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
