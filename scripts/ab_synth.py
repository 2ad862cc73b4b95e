#!/usr/bin/env python3
"""Time ``orsched synth`` of two source trees against each other in one process.

Loads ``src/orsched/core.py`` and ``src/orsched/ingest.py`` from two
checkouts (``--parent`` and ``--change``) as separate modules, each side's
ingest importing its own checkout's core, so the CSV writer is timed as each
side has it. One synth is what ``orsched synth --hospital <h> --seed <seed>``
does with its defaults: the 2,000-row history, the week, the
hospitalizations and the six CSV writes, into a fresh temporary directory.
For each hospital it runs one untimed synth per side, then ``--pairs`` pairs
of timed synths, the side that runs first alternating from pair to pair. It
prints:

- each pair's times and their ratio (change / parent);
- each side's median and quartiles, how many pairs the change won and the
  median ratio;
- whether every written file's sha256 was the same on both sides in every
  run, and the first file that differed if one did.

Example, with the parent commit unpacked beside the checkout:
    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python scripts/ab_synth.py --parent /tmp/parent --pairs 10
"""

import argparse
import hashlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_module(path: Path, name: str):
    """The Python file at ``path`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def load_ingest(checkout: Path, name: str):
    """``ingest.py`` of one checkout, importing ``orsched.core`` from the same
    checkout: its ``from orsched.core import ...`` finds that module in
    ``sys.modules`` while it loads, and keeps what it bound from it."""
    package = checkout / "src" / "orsched"
    saved = sys.modules.get("orsched.core")
    sys.modules["orsched.core"] = load_module(package / "core.py", f"{name}_core")
    try:
        return load_module(package / "ingest.py", name)
    finally:
        if saved is None:
            del sys.modules["orsched.core"]
        else:
            sys.modules["orsched.core"] = saved


def synth(module, hospital: str, seed: int, out: Path) -> None:
    """The files ``orsched synth --hospital <hospital> --seed <seed>`` writes."""
    config = module.SyntheticConfig(n_rows=2000, noise=0.25)
    records = module.generate_synthetic_dataset(config, seed=seed)
    week_records, registrations, mss, shifts = module.generate_week(
        config, seed=seed, shape=module.HOSPITAL_SHAPES[hospital], planning_days=5, fill_ratio=1.15
    )
    module.write_records_csv(records, out / "records.csv")
    module.write_records_csv(week_records, out / "week.csv")
    module.write_registrations_csv(registrations, out / "registrations.csv")
    module.write_mss_csv(mss, out / "mss.csv")
    module.write_shifts_csv(shifts, out / "shifts.csv")
    columns = ["patient_id", "admission", "discharge"]
    stays = ([stay[c] for c in columns] for stay in module.generate_hospitalizations(seed))
    module.write_csv_rows(out / "hospitalizations.csv", columns, stays)


def timed_synth(module, hospital: str, seed: int) -> tuple[float, dict[str, str]]:
    """Seconds for one synth, and the sha256 of each file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        start = time.perf_counter()
        synth(module, hospital, seed, out)
        elapsed = time.perf_counter() - start
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return elapsed, digests


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"


def compare(sides: dict, hospital: str, seed: int, pairs: int) -> bool:
    print(f"== synth --hospital {hospital} --seed {seed}, {pairs} pairs")
    for module in sides.values():
        timed_synth(module, hospital, seed)  # untimed warm-up
    times: dict[str, list[float]] = {name: [] for name in sides}
    mismatch = None
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        digests = {}
        for name in order:
            elapsed, digests[name] = timed_synth(sides[name], hospital, seed)
            times[name].append(elapsed)
        if mismatch is None and digests["parent"] != digests["change"]:
            files = sorted(set(digests["parent"]) | set(digests["change"]))
            mismatch = next(f for f in files if digests["parent"].get(f) != digests["change"].get(f))
        p, c = times["parent"][-1], times["change"][-1]
        print(f"pair {i + 1:2d} ({order[0]} first): parent {p * 1e3:.1f} ms  change {c * 1e3:.1f} ms  ratio {c / p:.3f}")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    for name in sides:
        print(f"{name}: {quartiles(times[name])}")
    print(f"change won {wins} of {pairs} pairs; median ratio {statistics.median(ratios):.3f}")
    if mismatch is None:
        print(f"files identical: sha256 of all {len(digests['parent'])} files equal in every pair")
    else:
        print(f"files DIFFER: first in {mismatch}")
    return mismatch is None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--hospital", action="append", help="repeatable (default: bordighera and imperia)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    sides = {"parent": load_ingest(args.parent, "ab_parent_ingest"), "change": load_ingest(args.change, "ab_change_ingest")}
    hospitals = args.hospital or ["bordighera", "imperia"]
    for hospital in hospitals:
        if hospital not in sides["change"].HOSPITAL_SHAPES:
            parser.error(f"unknown hospital {hospital!r}")
    identical = [compare(sides, hospital, args.seed, args.pairs) for hospital in hospitals]
    return 0 if all(identical) else 1


if __name__ == "__main__":
    sys.exit(main())
