"""Command-line entry point.

Subcommands mirror the pipeline stages: ``synth`` fabricates a hospital's
input files, ``preprocess`` cleans historical records, ``train`` fits and
selects a duration model, ``schedule`` computes one weekly schedule with a
chosen estimation method, ``evaluate`` replays schedules into a comparison
report, and ``pipeline`` chains everything for one seed.

Exit codes: 0 success, 2 usage or input validation, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from orsched.core import InputFileError, ObjectiveVector, ProblemInstance, Schedule
from orsched.evaluate import (
    METHODS,
    DurationEstimates,
    EvaluateError,
    MethodReport,
    evaluate_schedule,
    normalize_method,
    solve_method,
    write_report_json,
    write_report_txt,
)
from orsched.ingest import (
    HOSPITAL_SHAPES,
    IngestError,
    PreprocessConfig,
    SyntheticConfig,
    generate_hospitalizations,
    generate_synthetic_dataset,
    generate_week,
    load_instance,
    preprocess,
    read_records_csv,
    write_mss_csv,
    write_preprocess_log,
    write_records_csv,
    write_registrations_csv,
    write_shifts_csv,
)
from orsched.predict import (
    ModelSpec,
    PredictError,
    baseline_mean_estimator,
    encode_features,
    fit,
    grid_search_cv,
    load_model,
    predict,
    regression_metrics,
    save_model,
    stratified_split,
    write_predictions_csv,
)
from orsched.solve import (
    InfeasibleInstanceError,
    SolveLimits,
    SolverError,
    is_feasible,
    read_schedule_csv,
    write_objective_json,
    write_schedule_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


GRID_PRESETS: dict[str, list[ModelSpec]] = {
    "best": [ModelSpec("boosted_trees", {"n_estimators": 400, "learning_rate": 0.1, "max_depth": 5})],
    "fast": [ModelSpec("boosted_trees", {"n_estimators": 80, "learning_rate": 0.1, "max_depth": 3})],
    "full": [
        ModelSpec("tree", {"max_depth": 50, "min_samples_split": 2, "criterion": "friedman_mse"}),
        ModelSpec("forest", {"n_estimators": 10, "max_depth": None, "min_samples_split": 5}),
        ModelSpec("boosted_trees", {"n_estimators": 400, "learning_rate": 0.1, "max_depth": 5}),
        ModelSpec("knn", {"n_neighbors": 5, "weights": "distance"}),
    ],
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, key: str, default=None):
    """Flag beats config file beats default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return getattr(args, "_config", {}).get(key, default)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(_merged(args, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _limits(args: argparse.Namespace) -> SolveLimits:
    return SolveLimits(
        time_budget_s=float(_merged(args, "time_limit", 60.0)),
        threads=int(_merged(args, "threads", 1)),
        seed=int(_merged(args, "seed", 0)),
        max_restarts=_merged(args, "max_restarts"),
    )


def _require(args: argparse.Namespace, key: str, flag: str) -> str:
    value = _merged(args, key)
    if value is None:
        raise UsageError(f"missing required input: {flag}")
    return str(value)


def _check_hospitalizations(path: str | None) -> None:
    """The prior-hospitalizations file is accepted and validated but feeds no
    computation (the model does not track beds)."""
    if path is None:
        return
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if next(csv.reader(fh), None) is None:
                raise UsageError(f"hospitalizations file {path} is empty")
    except OSError as exc:
        raise UsageError(f"cannot read hospitalizations file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    rows = int(_merged(args, "rows", 2000))
    if rows < 1:
        raise UsageError("--rows must be >= 1")
    seed = int(_merged(args, "seed", 0))
    hospital = str(_merged(args, "hospital", "bordighera"))
    if hospital not in HOSPITAL_SHAPES:
        raise UsageError(f"unknown hospital {hospital!r}; choose from {sorted(HOSPITAL_SHAPES)}")
    out = _outdir(args)

    config = SyntheticConfig(n_rows=rows, noise=float(_merged(args, "noise", 0.25)))
    records = generate_synthetic_dataset(config, seed=seed)
    week_records, registrations, mss, shifts = generate_week(
        config,
        seed=seed,
        shape=HOSPITAL_SHAPES[hospital],
        planning_days=int(_merged(args, "planning_days", 5)),
        fill_ratio=float(_merged(args, "fill_ratio", 1.15)),
    )
    write_records_csv(records, out / "records.csv")
    write_records_csv(week_records, out / "week.csv")
    write_registrations_csv(registrations, out / "registrations.csv")
    write_mss_csv(mss, out / "mss.csv")
    write_shifts_csv(shifts, out / "shifts.csv")
    hosp_rows = generate_hospitalizations(seed)
    with open(out / "hospitalizations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["patient_id", "admission", "discharge"])
        writer.writeheader()
        writer.writerows(hosp_rows)
    print(f"wrote {rows} historical rows, {len(registrations)} registrations to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args: argparse.Namespace) -> int:
    records_path = _require(args, "records", "--records")
    out = _outdir(args)
    records = read_records_csv(records_path)
    clean, log = preprocess(records, PreprocessConfig(seed=int(_merged(args, "seed", 0))))
    write_records_csv(clean.records, out / "cleaned.csv", columns=clean.kept_features)
    write_preprocess_log(log, out / "preprocess_log.json")
    last = log.stages[-1]
    print(f"kept {last.rows_out} rows, {last.features_out} features -> {out / 'cleaned.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _resolve_grid(args: argparse.Namespace) -> list[ModelSpec]:
    name = str(_merged(args, "grid", "best"))
    if name in GRID_PRESETS:
        return GRID_PRESETS[name]
    try:
        entries = json.loads(Path(name).read_text(encoding="utf-8"))
        return [ModelSpec(e["family"], e.get("hyperparameters", {})) for e in entries]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"--grid must be a preset ({sorted(GRID_PRESETS)}) or a JSON grid file: {exc}") from exc


def cmd_train(args: argparse.Namespace) -> int:
    records_path = _require(args, "records", "--records")
    seed = int(_merged(args, "seed", 0))
    out = _outdir(args)
    records = read_records_csv(records_path)

    clean, log = preprocess(records, PreprocessConfig(seed=seed))
    write_preprocess_log(log, out / "preprocess_log.json")
    X, y, encoder = encode_features(clean)
    train_idx, test_idx = stratified_split(X, y, test_fraction=0.2, n_bins=10, seed=seed)

    grid = _resolve_grid(args)
    if len(grid) == 1:
        best = grid[0]
        cv_results = []
    else:
        best, cv_results = grid_search_cv(grid, X[train_idx], y[train_idx], k_folds=5, seed=seed)
    model = fit(best, X[train_idx], y[train_idx], seed=seed)

    yhat = predict(model, X[test_idx])
    report = regression_metrics(y[test_idx], yhat)
    train_records = [clean.records[i] for i in train_idx]
    baselines = [
        baseline_mean_estimator(train_records, "department"),
        baseline_mean_estimator(train_records, "procedure_type"),
    ]
    save_model(model, encoder, out / "model.json", baselines=baselines)

    metrics_payload = report.to_json_dict()
    metrics_payload["spec"] = {"family": best.family, "hyperparameters": model.hyperparameters}
    if cv_results:
        metrics_payload["cv"] = [
            {
                "family": r.spec.family,
                "hyperparameters": dict(r.spec.hyperparameters),
                "mean_mae": r.mean_mae,
                "mean_rmse": r.mean_rmse,
            }
            for r in cv_results
        ]
    (out / "metrics.json").write_text(json.dumps(metrics_payload, indent=2) + "\n", encoding="utf-8")

    ids = [str(clean.records[i].get("PROGRESSIVO", i)) for i in test_idx]
    write_predictions_csv(ids, y[test_idx], yhat, out / "predictions.csv")
    r2 = "undefined" if report.r2 is None else f"{report.r2:.3f}"
    print(f"model={best.family} test MAE={report.mae:.2f} RMSE={report.rmse:.2f} R2={r2} -> {out / 'model.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# schedule


def _load_week_instance(args: argparse.Namespace) -> ProblemInstance:
    try:
        return load_instance(
            _require(args, "registrations", "--registrations"),
            _require(args, "mss", "--mss"),
            _require(args, "shifts", "--shifts"),
            planning_days=_merged(args, "planning_days"),
            emergency_or_id=_merged(args, "emergency_or"),
        )
    except IngestError as exc:  # the violations in no file: an --emergency-or absent from the MSS
        raise UsageError(str(exc)) from None


def _build_estimates(args: argparse.Namespace, method: str, instance: ProblemInstance) -> DurationEstimates:
    if method == "VBA":
        return DurationEstimates()
    week_path = _merged(args, "week")
    if week_path is None:
        raise UsageError(f"method {method} needs --week with the operating list's feature records")
    week_records = read_records_csv(week_path)
    by_id = {str(r.get("PROGRESSIVO")): r for r in week_records}
    missing = [r.id for r in instance.registrations if r.id not in by_id]
    if missing:
        raise UsageError(f"week records missing for registrations: {', '.join(missing[:5])}")

    predicted = department = procedure = None
    if method in ("Pred", "Conf"):
        model_path = _merged(args, "model")
        if model_path is None:
            raise UsageError(f"method {method} needs --model with a trained artifact")
        model, encoder, _ = load_model(model_path)
        rows = [by_id[r.id] for r in instance.registrations]
        yhat = predict(model, encoder.transform(rows))
        predicted = {r.id: float(p) for r, p in zip(instance.registrations, yhat)}
        if method == "Conf":
            lacking = [r.id for r in instance.registrations if r.actual_duration_min is None]
            if lacking:
                raise UsageError(
                    "Conf derives confidence from actual durations, missing for: " + ", ".join(lacking[:5])
                )
    else:  # Dep / Surg
        model_path = _merged(args, "model")
        records_path = _merged(args, "records")
        if model_path is not None:
            _, _, baselines = load_model(model_path)
            if not baselines:
                raise UsageError("model artifact carries no baselines; pass --records instead")
        elif records_path is not None:
            clean, _ = preprocess(read_records_csv(records_path), PreprocessConfig(seed=int(_merged(args, "seed", 0))))
            baselines = {
                "department": baseline_mean_estimator(clean.records, "department"),
                "procedure_type": baseline_mean_estimator(clean.records, "procedure_type"),
            }
        else:
            raise UsageError(f"method {method} needs --model or --records for the historical means")
        key = "department" if method == "Dep" else "procedure_type"
        estimator = baselines[key]
        estimates = {r.id: estimator.estimate_record(by_id[r.id]) for r in instance.registrations}
        if method == "Dep":
            department = estimates
        else:
            procedure = estimates
    return DurationEstimates(predicted=predicted, department_mean=department, procedure_mean=procedure)


def _solve_and_write(
    instance: ProblemInstance,
    method: str,
    estimates: DurationEstimates,
    limits: SolveLimits,
    prefer: str | None,
    schedule_path: Path,
    objective_path: Path,
) -> tuple[ProblemInstance, Schedule]:
    start = time.monotonic()
    method_instance, schedule, proven = solve_method(instance, method, estimates, limits, prefer)
    wall = time.monotonic() - start
    write_schedule_csv(schedule, schedule_path)
    write_objective_json(schedule, proven, wall, objective_path)
    return method_instance, schedule


def cmd_schedule(args: argparse.Namespace) -> int:
    method = normalize_method(str(_merged(args, "method", "vba")))
    instance = _load_week_instance(args)
    _check_hospitalizations(_merged(args, "hospitalizations"))
    estimates = _build_estimates(args, method, instance)
    out = _outdir(args)
    prefer = _merged(args, "solver")
    _, schedule = _solve_and_write(
        instance, method, estimates, _limits(args), prefer, out / "schedule.csv", out / "objective.json"
    )
    print(
        f"{method}: assigned {len(schedule.assignments)}/{len(instance.registrations)} "
        f"registrations, objective {schedule.objective.as_tuple()} -> {out / 'schedule.csv'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _parse_schedule_specs(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--schedule expects method=path, got {pair!r}")
        method, path = pair.split("=", 1)
        out[normalize_method(method)] = path
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    pairs = _merged(args, "schedule") or []
    if not pairs:
        raise UsageError("--schedule method=path required at least once")
    schedules = _parse_schedule_specs(list(pairs))
    instance = _load_week_instance(args)
    hospital = str(_merged(args, "hospital", "hospital"))
    out = _outdir(args)

    reports: list[MethodReport] = []
    for method, path in schedules.items():
        # the report reads only the assignments, so no objective is computed
        schedule = Schedule(read_schedule_csv(path), ObjectiveVector(0, 0, 0, 0, 0, 0))
        # capacity is judged by the replay: registrations.csv durations are
        # not the ones the method planned with, and overbooking is what the
        # report measures
        for violation in is_feasible(schedule, instance):
            if violation.code != "capacity_exceeded":
                raise UsageError(f"{path}: {violation.code}: {violation.detail}")
        reports.append(evaluate_schedule(method, schedule, instance))
    write_report_json({hospital: reports}, out / "report.json")
    write_report_txt({hospital: reports}, out / "report.txt")
    print((out / "report.txt").read_text(encoding="utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args: argparse.Namespace) -> int:
    out = _outdir(args)
    methods = _merged(args, "methods")
    if methods is None:
        methods = list(METHODS)
    elif isinstance(methods, str):
        methods = [m for m in methods.split(",") if m]
    methods = [normalize_method(m) for m in methods]
    if not methods:
        raise UsageError("empty method list")

    # each stage reads the files the stages before it wrote into ``out``
    args.records, args.week, args.model = str(out / "records.csv"), str(out / "week.csv"), str(out / "model.json")
    args.registrations, args.mss, args.shifts = str(out / "registrations.csv"), str(out / "mss.csv"), str(out / "shifts.csv")
    cmd_synth(args)
    cmd_train(args)
    instance = _load_week_instance(args)
    limits = _limits(args)
    prefer = _merged(args, "solver")
    reports: list[MethodReport] = []
    for method in methods:
        method_instance, schedule = _solve_and_write(
            instance,
            method,
            _build_estimates(args, method, instance),
            limits,
            prefer,
            out / f"schedule_{method.lower()}.csv",
            out / f"objective_{method.lower()}.json",
        )
        reports.append(evaluate_schedule(method, schedule, method_instance))

    hospital = str(_merged(args, "hospital", "bordighera"))
    write_report_json({hospital: reports}, out / "report.json")
    write_report_txt({hospital: reports}, out / "report.txt")
    print((out / "report.txt").read_text(encoding="utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orsched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="master random seed (default 0)")
        p.add_argument("--threads", type=int, default=None, help="solver worker threads")
        p.add_argument("--time-limit", dest="time_limit", type=float, default=None, help="solver budget in seconds (default 60)")
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags win over config keys")
        p.add_argument("-o", "--out", type=str, default=None, help="output directory (default .)")

    p = sub.add_parser("synth", help="generate synthetic hospital inputs")
    common(p)
    p.add_argument("--rows", type=int, default=None, help="historical record count (default 2000)")
    p.add_argument("--hospital", type=str, default=None, choices=sorted(HOSPITAL_SHAPES), help="hospital shape")
    p.add_argument("--noise", type=float, default=None, help="duration noise sigma (default 0.25)")
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--fill-ratio", dest="fill_ratio", type=float, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="clean a historical records file")
    common(p)
    p.add_argument("--records", type=str, default=None, help="records.csv path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train and select a duration model")
    common(p)
    p.add_argument("--records", type=str, default=None, help="records.csv path")
    p.add_argument("--grid", type=str, default=None, help="grid preset (best/fast/full) or JSON grid file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("schedule", help="compute one weekly schedule")
    common(p)
    p.add_argument("--method", type=str, default=None, help="vba, conf, pred, dep or surg")
    p.add_argument("--registrations", type=str, default=None)
    p.add_argument("--mss", type=str, default=None)
    p.add_argument("--shifts", type=str, default=None)
    p.add_argument("--week", type=str, default=None, help="feature records for the operating list")
    p.add_argument("--model", type=str, default=None, help="trained model artifact")
    p.add_argument("--records", type=str, default=None, help="historical records (for Dep/Surg without --model)")
    p.add_argument("--hospitalizations", type=str, default=None, help="prior-week stays; accepted, unused")
    p.add_argument("--solver", type=str, default=None, choices=["exact", "heuristic"], help="force a solver")
    p.add_argument("--max-restarts", dest="max_restarts", type=int, default=None)
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--emergency-or", dest="emergency_or", type=str, default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("evaluate", help="replay schedules into a comparison report")
    common(p)
    p.add_argument("--registrations", type=str, default=None)
    p.add_argument("--mss", type=str, default=None)
    p.add_argument("--shifts", type=str, default=None)
    p.add_argument("--schedule", action="append", default=None, help="method=path, repeatable")
    p.add_argument("--hospital", type=str, default=None, help="grouping label for the report")
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--emergency-or", dest="emergency_or", type=str, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="synth + train + schedule + evaluate in one run")
    common(p)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--hospital", type=str, default=None, choices=sorted(HOSPITAL_SHAPES))
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--methods", type=str, default=None, help="comma-separated subset of vba,conf,pred,dep,surg")
    p.add_argument("--grid", type=str, default=None)
    p.add_argument("--solver", type=str, default=None, choices=["exact", "heuristic"])
    p.add_argument("--max-restarts", dest="max_restarts", type=int, default=None)
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--fill-ratio", dest="fill_ratio", type=float, default=None)
    p.add_argument("--emergency-or", dest="emergency_or", type=str, default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None))
        return args.func(args)
    except (UsageError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc} (priority-1 ids: {', '.join(exc.p1_ids)})", file=sys.stderr)
        return EXIT_RUNTIME
    except (IngestError, PredictError, EvaluateError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
