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
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from orsched.core import InputFileError, ObjectiveVector, ProblemInstance, Schedule, write_csv_rows
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
from orsched.regressors import InvalidSpecError, validate_spec
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


def _load_config(path: str | None, command: argparse.ArgumentParser) -> dict:
    """The config file's settings for ``command``: each key must be one of its
    options' ``dest`` (as ``time_limit`` for ``--time-limit``), and each
    value, or each item of a list, is converted by that option's type and
    checked against its choices, as the flag's text would be."""
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}
    settings = {}
    for key, value in data.items():
        if key not in options:
            raise UsageError(f"config {path}: unknown key {key!r} for {command.prog}; known keys: {', '.join(sorted(options))}")
        option = options[key]
        try:
            if value is None:
                settings[key] = None
            elif isinstance(value, list):
                settings[key] = [_config_value(option, item) for item in value]
            else:
                settings[key] = _config_value(option, value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config {path}: key {key!r}: {exc}") from None
    return settings


def _config_value(option: argparse.Action, value):
    """``value`` as the option would parse its text."""
    if isinstance(value, (dict, list, bool)):
        raise ValueError(f"expected a {getattr(option.type, '__name__', 'str')} value, got {json.dumps(value)}")
    text = str(value)
    try:
        parsed = option.type(text) if option.type is not None else text
    except ValueError:
        raise ValueError(f"invalid {option.type.__name__} value {value!r}") from None
    if option.choices is not None and parsed not in option.choices:
        raise ValueError(f"invalid choice {parsed!r}; choose from {', '.join(map(str, option.choices))}")
    return parsed


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
        seed=int(_merged(args, "seed", 0)),
        max_restarts=_merged(args, "max_restarts"),
    )


def _seed(args: argparse.Namespace) -> int:
    """The seed of a command that seeds numpy, which takes no negative seed."""
    seed = int(_merged(args, "seed", 0))
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    return seed


def _require(args: argparse.Namespace, key: str, flag: str) -> str:
    value = _merged(args, key)
    if value is None:
        raise UsageError(f"missing required input: {flag}")
    return str(value)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    rows = int(_merged(args, "rows", 2000))
    if rows < 1:
        raise UsageError("--rows must be >= 1")
    planning_days = int(_merged(args, "planning_days", 5))
    if planning_days < 1:
        raise UsageError("--planning-days must be >= 1")
    fill_ratio = float(_merged(args, "fill_ratio", 1.15))
    if not fill_ratio > 0:
        raise UsageError("--fill-ratio must be > 0")
    seed = _seed(args)
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
        planning_days=planning_days,
        fill_ratio=fill_ratio,
    )
    write_records_csv(records, out / "records.csv")
    write_records_csv(week_records, out / "week.csv")
    write_registrations_csv(registrations, out / "registrations.csv")
    write_mss_csv(mss, out / "mss.csv")
    write_shifts_csv(shifts, out / "shifts.csv")
    columns = ["patient_id", "admission", "discharge"]
    stays = ([stay[c] for c in columns] for stay in generate_hospitalizations(seed))
    write_csv_rows(out / "hospitalizations.csv", columns, stays)
    print(f"wrote {rows} historical rows, {len(registrations)} registrations to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args: argparse.Namespace) -> int:
    records_path = _require(args, "records", "--records")
    out = _outdir(args)
    records = read_records_csv(records_path)
    clean, log = preprocess(records, PreprocessConfig(seed=_seed(args)))
    write_records_csv(clean.records, out / "cleaned.csv", columns=clean.kept_features)
    write_preprocess_log(log, out / "preprocess_log.json")
    last = log.stages[-1]
    print(f"kept {last.rows_out} rows, {last.features_out} features -> {out / 'cleaned.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _resolve_grid(args: argparse.Namespace) -> list[ModelSpec]:
    """The preset ``--grid`` names, or the specs of a JSON grid file: a list
    of ``{"family": ..., "hyperparameters": {...}}``, each entry validated."""
    name = str(_merged(args, "grid", "best"))
    if name in GRID_PRESETS:
        return GRID_PRESETS[name]
    try:
        entries = json.loads(Path(name).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"--grid {name}: not a preset ({sorted(GRID_PRESETS)}) nor a JSON grid file: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise UsageError(f"grid file {name} must hold a non-empty JSON list of model entries")
    specs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise UsageError(f"grid file {name}: entry {index} must be a JSON object")
        stray = sorted(set(entry) - {"family", "hyperparameters"})
        if stray:
            raise UsageError(f"grid file {name}: entry {index}, field {stray[0]!r}: unknown field")
        spec = ModelSpec(entry.get("family"), entry.get("hyperparameters", {}))
        try:
            validate_spec(spec)
        except InvalidSpecError as exc:
            raise UsageError(f"grid file {name}: entry {index}, field {exc.field!r}: {exc}") from None
        specs.append(spec)
    return specs


def cmd_train(args: argparse.Namespace) -> int:
    records_path = _require(args, "records", "--records")
    grid = _resolve_grid(args)
    seed = _seed(args)
    out = _outdir(args)
    records = read_records_csv(records_path)

    clean, log = preprocess(records, PreprocessConfig(seed=seed))
    write_preprocess_log(log, out / "preprocess_log.json")
    X, y, encoder = encode_features(clean)
    train_idx, test_idx = stratified_split(X, y, test_fraction=0.2, n_bins=10, seed=seed)

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

    metrics_payload = asdict(report)
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


def _build_estimates(args: argparse.Namespace, methods: Sequence[str], instance: ProblemInstance) -> DurationEstimates:
    """The duration estimates ``methods`` plan with: ``--week`` is read and
    ``--model`` loaded at most once, and only the maps the methods use are
    built."""
    needing = [m for m in methods if m != "VBA"]
    if not needing:
        return DurationEstimates()
    week_path = _merged(args, "week")
    if week_path is None:
        raise UsageError(f"method {needing[0]} needs --week with the operating list's feature records")
    by_id = {str(r.get("PROGRESSIVO")): r for r in read_records_csv(week_path)}
    regs = instance.registrations
    missing = [r.id for r in regs if r.id not in by_id]
    if missing:
        raise UsageError(f"week records missing for registrations: {', '.join(missing[:5])}")

    predictive = [m for m in needing if m in ("Pred", "Conf")]
    means = [m for m in needing if m in ("Dep", "Surg")]
    model_path = _merged(args, "model")
    if predictive and model_path is None:
        raise UsageError(f"method {predictive[0]} needs --model with a trained artifact")
    try:
        loaded = load_model(model_path) if model_path is not None else None
    except PredictError as exc:  # every one is about the file's content
        raise UsageError(str(exc)) from None
    predicted = department = procedure = None
    if predictive:
        model, encoder, _ = loaded
        yhat = predict(model, encoder.transform([by_id[r.id] for r in regs]))
        predicted = {r.id: float(p) for r, p in zip(regs, yhat)}
        if "Conf" in predictive:
            lacking = [r.id for r in regs if r.actual_duration_min is None]
            if lacking:
                raise UsageError("Conf derives confidence from actual durations, missing for: " + ", ".join(lacking[:5]))
    if means:
        records_path = _merged(args, "records")
        if loaded is not None:
            baselines = loaded[2]
            if not baselines:
                raise UsageError("model artifact carries no baselines; pass --records instead")
        elif records_path is not None:
            records = read_records_csv(records_path)
            clean, _ = preprocess(records, PreprocessConfig(seed=_seed(args)))
            baselines = {key: baseline_mean_estimator(clean.records, key) for key in ("department", "procedure_type")}
        else:
            raise UsageError(f"method {means[0]} needs --model or --records for the historical means")
        if "Dep" in means:
            department = {r.id: baselines["department"].estimate_record(by_id[r.id]) for r in regs}
        if "Surg" in means:
            procedure = {r.id: baselines["procedure_type"].estimate_record(by_id[r.id]) for r in regs}
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
    estimates = _build_estimates(args, [method], instance)
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
        method = normalize_method(method)
        if method in out:
            raise UsageError(f"--schedule names method {method} twice: {out[method]} and {path}")
        out[method] = path
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
    write_report_json(hospital, reports, out / "report.json")
    write_report_txt(hospital, reports, out / "report.txt")
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
    twice = next((m for i, m in enumerate(methods) if m in methods[:i]), None)
    if twice is not None:
        raise UsageError(f"--methods names method {twice} twice")

    # each stage reads the files the stages before it wrote into ``out``
    args.records, args.week, args.model = str(out / "records.csv"), str(out / "week.csv"), str(out / "model.json")
    args.registrations, args.mss, args.shifts = str(out / "registrations.csv"), str(out / "mss.csv"), str(out / "shifts.csv")
    cmd_synth(args)
    cmd_train(args)
    instance = _load_week_instance(args)
    estimates = _build_estimates(args, methods, instance)
    limits = _limits(args)
    prefer = _merged(args, "solver")
    reports: list[MethodReport] = []
    for method in methods:
        method_instance, schedule = _solve_and_write(
            instance,
            method,
            estimates,
            limits,
            prefer,
            out / f"schedule_{method.lower()}.csv",
            out / f"objective_{method.lower()}.json",
        )
        reports.append(evaluate_schedule(method, schedule, method_instance))

    hospital = str(_merged(args, "hospital", "bordighera"))
    write_report_json(hospital, reports, out / "report.json")
    write_report_txt(hospital, reports, out / "report.txt")
    print((out / "report.txt").read_text(encoding="utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orsched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = True, time_limit: bool = False) -> None:
        if seed:
            p.add_argument("--seed", type=int, default=None, help="master random seed (default 0)")
        if time_limit:
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
    p.set_defaults(func=cmd_synth, command_parser=p)

    p = sub.add_parser("preprocess", help="clean a historical records file")
    common(p)
    p.add_argument("--records", type=str, default=None, help="records.csv path")
    p.set_defaults(func=cmd_preprocess, command_parser=p)

    p = sub.add_parser("train", help="train and select a duration model")
    common(p)
    p.add_argument("--records", type=str, default=None, help="records.csv path")
    p.add_argument("--grid", type=str, default=None, help="grid preset (best/fast/full) or JSON grid file")
    p.set_defaults(func=cmd_train, command_parser=p)

    p = sub.add_parser("schedule", help="compute one weekly schedule")
    common(p, time_limit=True)
    p.add_argument("--method", type=str, default=None, help="vba, conf, pred, dep or surg")
    p.add_argument("--registrations", type=str, default=None)
    p.add_argument("--mss", type=str, default=None)
    p.add_argument("--shifts", type=str, default=None)
    p.add_argument("--week", type=str, default=None, help="feature records for the operating list")
    p.add_argument("--model", type=str, default=None, help="trained model artifact")
    p.add_argument("--records", type=str, default=None, help="historical records (for Dep/Surg without --model)")
    p.add_argument("--solver", type=str, default=None, choices=["exact", "heuristic"], help="force a solver")
    p.add_argument("--max-restarts", dest="max_restarts", type=int, default=None)
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--emergency-or", dest="emergency_or", type=str, default=None)
    p.set_defaults(func=cmd_schedule, command_parser=p)

    p = sub.add_parser("evaluate", help="replay schedules into a comparison report")
    common(p, seed=False)
    p.add_argument("--registrations", type=str, default=None)
    p.add_argument("--mss", type=str, default=None)
    p.add_argument("--shifts", type=str, default=None)
    p.add_argument("--schedule", action="append", default=None, help="method=path, repeatable")
    p.add_argument("--hospital", type=str, default=None, help="grouping label for the report")
    p.add_argument("--planning-days", dest="planning_days", type=int, default=None)
    p.add_argument("--emergency-or", dest="emergency_or", type=str, default=None)
    p.set_defaults(func=cmd_evaluate, command_parser=p)

    p = sub.add_parser("pipeline", help="synth + train + schedule + evaluate in one run")
    common(p, time_limit=True)
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
    p.set_defaults(func=cmd_pipeline, command_parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None), args.command_parser)
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
