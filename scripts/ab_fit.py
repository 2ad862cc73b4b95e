#!/usr/bin/env python3
"""Time the boosted fit of two source trees against each other in one process.

Loads ``src/orsched/regressors.py`` from two checkouts (``--parent`` and
``--change``) as separate modules and fits both on the same training split:
the one ``orsched train`` fits on the bordighera week of ``--seed`` (synth
with 2,000 rows, preprocess, encode, stratified split; 1,436×17 at seed 1).
For each grid, ``best`` (400 trees of depth 5) and ``fast`` (80 of depth 3),
it runs one untimed fit per side, then ``--pairs`` pairs of timed fits, the
side that runs first alternating from pair to pair. It prints:

- each pair's times and their ratio (change / parent);
- each side's median and quartiles, and how many pairs the change won;
- each side's sha256 of ``json.dumps(structure)``: equal digests mean the
  two trees fit byte-identical models;
- each side's ``tracemalloc`` peak over one more fit.

Example, with the parent commit unpacked beside the checkout:
    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    PYTHONPATH=src python scripts/ab_fit.py --parent /tmp/parent --pairs 20
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from orsched.cli import main as cli_main
from orsched.ingest import preprocess, read_records_csv
from orsched.predict import encode_features, stratified_split

ROOT = Path(__file__).resolve().parent.parent
GRIDS = {
    "400x5": {"n_estimators": 400, "learning_rate": 0.1, "max_depth": 5},
    "80x3": {"n_estimators": 80, "learning_rate": 0.1, "max_depth": 3},
}


def load_regressors(checkout: Path, name: str):
    """``regressors.py`` of one checkout as a module of its own (it imports
    nothing from the package)."""
    spec = importlib.util.spec_from_file_location(name, checkout / "src" / "orsched" / "regressors.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def training_split(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``orsched train --seed <seed>`` fits its model on."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["synth", "--hospital", "bordighera", "--rows", "2000", "--seed", str(seed), "-o", tmp])
        if code != 0:
            raise SystemExit(code)
        records = read_records_csv(Path(tmp) / "records.csv")
    clean, _ = preprocess(records, seed=seed)
    X, y, _ = encode_features(clean)
    train_idx, _ = stratified_split(X, y, test_fraction=0.2, n_bins=10, seed=seed)
    return X[train_idx], y[train_idx]


def timed_fit(module, params: dict, X: np.ndarray, y: np.ndarray, seed: int) -> float:
    start = time.perf_counter()
    module.fit(module.ModelSpec("boosted_trees", params), X, y, seed=seed)
    return time.perf_counter() - start


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"


def compare(sides: dict, grid: str, params: dict, X, y, seed: int, pairs: int) -> None:
    print(f"== boosted {grid} on {X.shape[0]}x{X.shape[1]}, {pairs} pairs")
    digests, peaks = {}, {}
    for name, module in sides.items():
        model = module.fit(module.ModelSpec("boosted_trees", params), X, y, seed=seed)  # untimed warm-up
        digests[name] = hashlib.sha256(json.dumps(model.structure).encode("utf-8")).hexdigest()
    times: dict[str, list[float]] = {name: [] for name in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for name in order:
            times[name].append(timed_fit(sides[name], params, X, y, seed))
        p, c = times["parent"][-1], times["change"][-1]
        print(f"pair {i + 1:2d} ({order[0]} first): parent {p:.4f} s  change {c:.4f} s  ratio {c / p:.3f}")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    for name in sides:
        print(f"{name}: {quartiles(times[name])}")
    print(f"change won {wins} of {pairs} pairs; median ratio {statistics.median(ratios):.3f}")
    for name, module in sides.items():
        tracemalloc.start()
        module.fit(module.ModelSpec("boosted_trees", params), X, y, seed=seed)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    for name in sides:
        print(f"{name}: structure sha256 {digests[name]}  tracemalloc peak {peaks[name]} B")
    print("structures " + ("identical" if digests["parent"] == digests["change"] else "DIFFER"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--grid", choices=sorted(GRIDS), action="append", help="repeatable (default: both)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    sides = {"parent": load_regressors(args.parent, "ab_parent_regressors"), "change": load_regressors(args.change, "ab_change_regressors")}
    X, y = training_split(args.seed)
    for grid in args.grid or ["400x5", "80x3"]:
        compare(sides, grid, GRIDS[grid], X, y, args.seed, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
