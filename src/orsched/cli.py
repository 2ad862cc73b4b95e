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
import functools
import json
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from orsched.core import InputFileError, ObjectiveVector, ProblemInstance, Registration, Schedule, write_csv_rows
from orsched.evaluate import (
    METHODS,
    SOURCES,
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
    CleanDataset,
    IngestError,
    PreprocessLog,
    RecordTable,
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


def _load_config(path: str, command: argparse.ArgumentParser) -> dict:
    """The config file's settings for ``command``: each key must be one of its
    options' ``dest`` (as ``time_limit`` for ``--time-limit``), and each
    value, or each item of a list for ``schedule`` (one per ``--schedule``)
    or ``methods`` (one per name), is converted by that option's type and
    checked against its choices, as the flag's text would be. A null leaves
    the option's default."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
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
                continue
            if key in ("schedule", "methods"):
                items = [_config_value(option, item) for item in (value if isinstance(value, list) else [value])]
                settings[key] = items if key == "schedule" else ",".join(items)
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


class _Repeat(argparse.Action):
    """``append`` whose first flag starts a new list, so that flags replace a
    config file's list rather than extend it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


def _outdir(args: argparse.Namespace) -> Path:
    """The ``-o`` directory, made if absent; a file in its place is a usage
    error (one that cannot be written stays a runtime failure)."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise UsageError(f"-o {args.out}: is a file, not a directory") from None
    except NotADirectoryError:
        raise UsageError(f"-o {args.out}: a parent of it is a file, not a directory") from None
    return out


def _limits(args: argparse.Namespace) -> SolveLimits:
    if not 0 < args.time_limit < math.inf:
        raise UsageError("--time-limit must be a finite number > 0")
    if args.max_restarts is not None and args.max_restarts < 1:
        raise UsageError("--max-restarts must be >= 1")
    return SolveLimits(time_budget_s=args.time_limit, seed=args.seed, max_restarts=args.max_restarts)


def _seed(args: argparse.Namespace) -> int:
    """The seed of a command that seeds numpy, which takes no negative seed."""
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    return args.seed


def _require(value: str | None, flag: str) -> str:
    if value is None:
        raise UsageError(f"missing required input: {flag}")
    return _input(value, flag)


def _input(path: str, flag: str) -> str:
    """``path``, an input file; a directory is a usage error (writing into
    one stays a runtime failure)."""
    if Path(path).is_dir():
        raise UsageError(f"{flag} {path}: is a directory, not a file")
    return path


def _method(name: str) -> str:
    """``normalize_method``, with an unknown name as a usage error."""
    try:
        return normalize_method(name)
    except EvaluateError as exc:
        raise UsageError(str(exc)) from None


def _require_actuals(args: argparse.Namespace, registrations: Sequence[Registration], why: str) -> None:
    """A usage error naming the ``--registrations`` file if one of
    ``registrations`` lacks its actual duration."""
    lacking = [r.id for r in registrations if r.actual_duration_min is None]
    if lacking:
        raise UsageError(f"{args.registrations}: field 'actual_duration_min' is empty for {', '.join(lacking[:5])}; {why}")


def _clean_history(path: str, seed: int) -> tuple[CleanDataset, PreprocessLog]:
    """``preprocess`` of the records file at ``path``, whose header must hold
    the columns a duration is derived from; so must the first record's
    cells, as its width sets the columns ``preprocess`` reads."""
    records = read_records_csv(path)
    header = list(records.columns)
    _require_duration_columns(path, 1, None, "the header lacks", header)
    if len(records) and records.widths[0] < len(header):
        width = records.widths[0]
        _require_duration_columns(path, records.lines[0], header[width], "the first record ends here, without", header[:width])
    return preprocess(records, seed=seed)


def _require_duration_columns(path: str, row: int, field: str | None, what: str, names: Sequence[str]) -> None:
    lacking = [c for c in ("INGRESSOSALA", "USCITASALA", "DURATA") if c not in names]
    if "DURATA" in lacking and len(lacking) > 1:
        problem = f"{what} {', '.join(lacking)} (needs INGRESSOSALA and USCITASALA, or DURATA)"
        raise InputFileError(path, row, field, f"cannot derive durations: {problem}")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be >= 1")
    if args.planning_days < 1:
        raise UsageError("--planning-days must be >= 1")
    if not args.fill_ratio > 0:
        raise UsageError("--fill-ratio must be > 0")
    if not 0 <= args.noise < math.inf:
        raise UsageError("--noise must be a finite number >= 0")
    seed = _seed(args)
    out = _outdir(args)
    config = SyntheticConfig(n_rows=args.rows, noise=args.noise)

    def history() -> None:
        write_records_csv(generate_synthetic_dataset(config, seed=seed), out / "records.csv")

    def week() -> int:
        shape = HOSPITAL_SHAPES[args.hospital]
        week_records, registrations, mss, shifts = generate_week(config, seed, shape, args.planning_days, args.fill_ratio)
        write_records_csv(week_records, out / "week.csv")
        write_registrations_csv(registrations, out / "registrations.csv")
        write_mss_csv(mss, out / "mss.csv")
        write_shifts_csv(shifts, out / "shifts.csv")
        return len(registrations)

    # the two draws have seeds of their own, so the week is drawn beside the history
    try:
        _, registrations = _beside(history, week)
    except OverflowError as exc:  # a noise draw too large for a date or an integer
        raise UsageError(f"--noise {args.noise}: a drawn duration is out of range ({exc})") from None
    columns = ["patient_id", "admission", "discharge"]
    stays = ([stay[c] for c in columns] for stay in generate_hospitalizations(seed))
    write_csv_rows(out / "hospitalizations.csv", columns, stays)
    print(f"wrote {args.rows} historical rows, {registrations} registrations to {out}")
    return EXIT_OK


def _beside(here, there):
    """``(here(), there())``, with ``there`` run in a forked child while this
    process runs ``here``, where the platform can fork. The child sends back
    its result or its exception, pickled, and ends with ``os._exit``, so it
    flushes none of this process's buffers. This process reads the pipe to
    its end and reaps the child on every path; ``here``'s exception comes
    first, then ``there``'s, unchanged, as if the two had run in order.
    ``there`` must call no BLAS code, whose threads a fork does not copy."""
    if not hasattr(os, "fork"):
        return here(), there()
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            try:
                reply = (True, there())
            except BaseException as exc:
                reply = (False, exc)
            payload = pickle.dumps(reply)
            pickle.loads(payload)  # what the parent cannot load is not sent
            with open(writer, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    try:
        result = here()
    finally:
        with open(reader, "rb") as pipe:
            payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not payload:
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exited with code {code}"
        raise ChildProcessError(f"the child process drawing the week {how} before it reported")
    done, value = pickle.loads(payload)
    if not done:
        raise value
    return result, value


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args: argparse.Namespace) -> int:
    records_path = _require(args.records, "--records")
    out = _outdir(args)
    clean, log = _clean_history(records_path, _seed(args))
    write_records_csv(clean.records, out / "cleaned.csv", columns=clean.kept_features)
    write_preprocess_log(log, out / "preprocess_log.json")
    last = log.stages[-1]
    print(f"kept {last.rows_out} rows, {last.features_out} features -> {out / 'cleaned.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _resolve_grid(name: str) -> list[ModelSpec]:
    """The preset ``--grid`` names, or the specs of a JSON grid file: a list
    of ``{"family": ..., "hyperparameters": {...}}``, each entry validated."""
    if name in GRID_PRESETS:
        return GRID_PRESETS[name]
    try:
        entries = json.loads(Path(name).read_text(encoding="utf-8-sig"))
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
    records_path = _require(args.records, "--records")
    grid = _resolve_grid(args.grid)
    seed = _seed(args)
    out = _outdir(args)
    clean, log = _clean_history(records_path, seed)
    write_preprocess_log(log, out / "preprocess_log.json")
    X, y, encoder = encode_features(clean)
    try:
        train_idx, test_idx = stratified_split(y, test_fraction=0.2, n_bins=10, seed=seed)
    except PredictError:  # fewer rows than quantile bins
        test_idx = ()
    if not len(test_idx):
        raise PredictError(f"{records_path}: preprocessing kept {len(y)} rows, too few to hold out a test set")

    if len(grid) == 1:
        best = grid[0]
        cv_results = []
    else:
        best, cv_results = grid_search_cv(grid, X[train_idx], y[train_idx], k_folds=5, seed=seed)
    model = fit(best, X[train_idx], y[train_idx], seed=seed)

    yhat = predict(model, X[test_idx])
    report = regression_metrics(y[test_idx], yhat)
    train_rows = train_idx.tolist()
    baselines = [
        baseline_mean_estimator(clean.records, "department", train_rows),
        baseline_mean_estimator(clean.records, "procedure_type", train_rows),
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

    progressivo = clean.records.columns.get("PROGRESSIVO")
    ids = [str(i if progressivo is None else progressivo[i]) for i in test_idx]
    write_predictions_csv(ids, y[test_idx], yhat, out / "predictions.csv")
    r2 = "undefined" if report.r2 is None else f"{report.r2:.3f}"
    print(f"model={best.family} test MAE={report.mae:.2f} RMSE={report.rmse:.2f} R2={r2} -> {out / 'model.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# schedule


def _load_week_instance(args: argparse.Namespace) -> ProblemInstance:
    try:
        return load_instance(
            _require(args.registrations, "--registrations"),
            _require(args.mss, "--mss"),
            _require(args.shifts, "--shifts"),
            emergency_or_id=args.emergency_or,
        )
    except IngestError as exc:  # the violations in no file: an --emergency-or absent from the MSS
        raise UsageError(str(exc)) from None


def _build_estimates(args: argparse.Namespace, methods: Sequence[str], instance: ProblemInstance) -> dict[str, list[float]]:
    """The durations ``methods`` plan with, by source (``SOURCES``), one per
    registration in instance order: ``--week`` is read and ``--model`` loaded
    at most once, and only the sources the methods use are built."""
    regs = instance.registrations
    # VBA plans with the actual durations and Conf rates its predictions by them
    rater = next((m for m in methods if m in ("VBA", "Conf")), None)
    if rater is not None:
        _require_actuals(args, regs, f"method {rater} needs it")
    wanted = {SOURCES[m] for m in methods}
    sources = [s for s in dict.fromkeys(SOURCES.values()) if s in wanted and s != "actual"]  # in the order they are computed
    if not sources:
        return {}

    def first(*using: str) -> str:
        return next(m for m in methods if SOURCES[m] in using)

    if args.week is None:
        raise UsageError(f"method {first(*sources)} needs --week with the operating list's feature records")
    week = read_records_csv(_input(args.week, "--week"))
    row_of = _week_rows(args.week, week)
    missing = [r.id for r in regs if r.id not in row_of]
    if missing:
        raise UsageError(f"{args.week}: field 'PROGRESSIVO': no record for registrations {', '.join(missing[:5])}")
    rows = [row_of[r.id] for r in regs]

    if "predicted" in sources and args.model is None:
        raise UsageError(f"method {first('predicted')} needs --model with a trained artifact")
    try:
        loaded = load_model(_input(args.model, "--model")) if args.model is not None else None
    except PredictError as exc:  # every one is about the file's content
        raise UsageError(str(exc)) from None
    means = [s for s in sources if s != "predicted"]
    if means:
        if loaded is not None:
            baselines = loaded[2]
            if not baselines:
                raise UsageError("model artifact carries no baselines; pass --records instead")
        elif args.records is not None:
            clean, _ = _clean_history(_input(args.records, "--records"), _seed(args))
            baselines = {s: baseline_mean_estimator(clean.records, s) for s in means}
        else:
            raise UsageError(f"method {first(*means)} needs --model or --records for the historical means")

    # ``load_model`` checks the artifact's shape; its values show only here,
    # where the model is applied (means from --records are always finite)
    estimates = {}
    try:
        for source in sources:
            if source == "predicted":
                model, encoder, _ = loaded
                read = [*encoder.numeric_columns, *encoder.timestamp_columns, *encoder.categorical_columns]
                estimates[source] = predict(model, encoder.transform(week, rows)).tolist()
            else:
                read = [baselines[source].column]
                estimates[source] = baselines[source].estimates(week, rows)
            # an empty cell is a missing value the source handles, but an absent column reads as one in every row
            missing = next((name for name in read if name not in week.columns), None)
            if missing is not None:
                raise InputFileError(args.week, 1, missing, "column missing from the header")
        for values in estimates.values():
            for reg, value in zip(regs, values):
                if not math.isfinite(value):
                    raise ValueError(f"estimate {value} for registration {reg.id} is not a finite number")
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        problem = f"key {exc.args[0]!r} missing" if isinstance(exc, KeyError) else exc
        raise UsageError(f"{args.model}: malformed model values: {problem}") from None
    return estimates


def _week_rows(path: str, week: RecordTable) -> dict[str, int]:
    """The row of each ``PROGRESSIVO`` in the week's table; an absent column
    or a repeated id raises ``InputFileError``."""
    if "PROGRESSIVO" not in week.columns:
        raise InputFileError(path, 1, "PROGRESSIVO", "column missing from the header")
    row_of: dict[str, int] = {}
    for i, rid in enumerate(week.columns["PROGRESSIVO"]):
        if rid is not None and row_of.setdefault(rid, i) != i:  # an empty id names no registration
            raise InputFileError(path, week.lines[i], "PROGRESSIVO", f"id {rid!r} repeats row {week.lines[row_of[rid]]}")
    return row_of


def _solve_and_write(
    instance: ProblemInstance,
    method: str,
    estimates: dict[str, list[float]],
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
    method = _method(args.method)
    limits = _limits(args)
    instance = _load_week_instance(args)
    estimates = _build_estimates(args, [method], instance)
    out = _outdir(args)
    _, schedule = _solve_and_write(
        instance, method, estimates, limits, args.solver, out / "schedule.csv", out / "objective.json"
    )
    print(
        f"{method}: assigned {len(schedule.assignments)}/{len(instance.registrations)} "
        f"registrations, objective {tuple(schedule.objective)} -> {out / 'schedule.csv'}"
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
        method = _method(method)
        if method in out:
            raise UsageError(f"--schedule names method {method} twice: {out[method]} and {path}")
        out[method] = path
    return out


def _write_report(hospital: str, reports: Sequence[MethodReport], out: Path) -> None:
    """``report.json`` and ``report.txt`` in ``out``, and the table printed."""
    write_report_json(hospital, reports, out / "report.json")
    write_report_txt(hospital, reports, out / "report.txt")
    print((out / "report.txt").read_text(encoding="utf-8"))


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.schedule:
        raise UsageError("--schedule method=path required at least once")
    schedules = _parse_schedule_specs(args.schedule)
    instance = _load_week_instance(args)
    out = _outdir(args)

    reports: list[MethodReport] = []
    for method, path in schedules.items():
        # the report reads only the assignments, so no objective is computed
        schedule = Schedule(read_schedule_csv(_input(path, "--schedule")), ObjectiveVector(0, 0, 0, 0, 0, 0))
        # capacity is judged by the replay: registrations.csv durations are
        # not the ones the method planned with, and overbooking is what the
        # report measures
        for violation in is_feasible(schedule, instance):
            if violation.code != "capacity_exceeded":
                raise UsageError(f"{path}: {violation.code}: {violation.detail}")
        if not schedule.assignments:
            raise UsageError(f"{path}: assigns no registration; the report needs at least one used cell")
        assigned = {a.registration_id for a in schedule.assignments}
        _require_actuals(args, [r for r in instance.registrations if r.id in assigned], f"the replay of {path} needs it")
        reports.append(evaluate_schedule(method, schedule, instance))
    _write_report(args.hospital, reports, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args: argparse.Namespace) -> int:
    methods = [_method(m) for m in args.methods.split(",") if m]
    if not methods:
        raise UsageError("empty method list")
    twice = next((m for i, m in enumerate(methods) if m in methods[:i]), None)
    if twice is not None:
        raise UsageError(f"--methods names method {twice} twice")
    limits = _limits(args)
    out = _outdir(args)

    # each stage reads the files the stages before it wrote into ``out``
    args.records, args.week, args.model = str(out / "records.csv"), str(out / "week.csv"), str(out / "model.json")
    args.registrations, args.mss, args.shifts = str(out / "registrations.csv"), str(out / "mss.csv"), str(out / "shifts.csv")
    cmd_synth(args)
    cmd_train(args)
    instance = _load_week_instance(args)
    estimates = _build_estimates(args, methods, instance)
    reports: list[MethodReport] = []
    for method in methods:
        method_instance, schedule = _solve_and_write(
            instance,
            method,
            estimates,
            limits,
            args.solver,
            out / f"schedule_{method.lower()}.csv",
            out / f"objective_{method.lower()}.json",
        )
        reports.append(evaluate_schedule(method, schedule, method_instance))
    _write_report(args.hospital, reports, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Every option is declared once, with its default: the options several
    commands share are declared in one function each, which adds them to each
    of those commands. Related options form an argument group, a section of
    ``--help`` whose ``add_argument`` also costs less than the parser's."""

    def seeded(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="master random seed (default %(default)s)")

    def history(p: argparse.ArgumentParser) -> None:
        p.add_argument("--records", help="historical records CSV (schedule: for Dep/Surg without --model)")

    def grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", default="best", help="grid preset (best/fast/full) or JSON grid file (default %(default)s)")

    def emergency(p: argparse.ArgumentParser) -> None:
        p.add_argument("--emergency-or", help="OR kept nearly free for emergencies (default: none)")

    def world(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("synthetic hospital")
        g.add_argument("--rows", type=int, default=2000, help="historical record count (default %(default)s)")
        g.add_argument("--hospital", default="bordighera", choices=sorted(HOSPITAL_SHAPES), help="hospital shape (default %(default)s)")
        g.add_argument("--noise", type=float, default=0.25, help="duration noise sigma (default %(default)s)")
        g.add_argument("--planning-days", type=int, default=5, help="days in the generated week (default %(default)s)")
        g.add_argument("--fill-ratio", type=float, default=1.15, help="booked over offered minutes (default %(default)s)")

    def instance(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("week instance")
        g.add_argument("--registrations", help="registrations CSV")
        g.add_argument("--mss", help="master surgical schedule CSV")
        g.add_argument("--shifts", help="shifts CSV")

    def solving(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("solver")
        g.add_argument("--time-limit", type=float, default=60.0, help="solver budget in seconds (default %(default)s)")
        g.add_argument("--solver", choices=["exact", "heuristic"], help="force a solver (default: exact for small instances)")
        g.add_argument("--max-restarts", type=int, help="cap on heuristic restarts (default: until the time limit)")

    parser = argparse.ArgumentParser(prog="orsched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, command_parser=p)
        p.add_argument("--config", help="JSON file of option values (time_limit for --time-limit); flags win")
        p.add_argument("-o", "--out", default=".", help="output directory (default %(default)s)")
        for add in options:
            add(p)
        return p

    command("synth", cmd_synth, "generate synthetic hospital inputs", seeded, world)
    command("preprocess", cmd_preprocess, "clean a historical records file", seeded, history)
    command("train", cmd_train, "train and select a duration model", seeded, history, grid)
    p = command("schedule", cmd_schedule, "compute one weekly schedule", seeded, history, emergency, instance, solving)
    p.add_argument("--method", default="vba", help="vba, conf, pred, dep or surg (default %(default)s)")
    p.add_argument("--week", help="feature records for the operating list")
    p.add_argument("--model", help="trained model artifact")
    p = command("evaluate", cmd_evaluate, "replay schedules into a comparison report", emergency, instance)
    p.add_argument("--schedule", action=_Repeat, default=[], help="method=path, repeatable")
    p.add_argument("--hospital", default="hospital", help="grouping label for the report (default %(default)s)")
    p = command("pipeline", cmd_pipeline, "synth + train + schedule + evaluate in one run", seeded, grid, emergency, world, solving)
    p.add_argument("--methods", default=",".join(METHODS), help="comma-separated methods (default %(default)s)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process and shared by every ``main``."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values become the command's defaults, which flags
            # override, for this call only: the shared parser gets its own back
            command = args.command_parser
            settings = _load_config(args.config, command)
            saved = {a.dest: a.default for a in command._actions if a.dest in settings}
            command.set_defaults(**settings)
            try:
                args = parser.parse_args(argv)
            finally:
                command.set_defaults(**saved)
        return args.func(args)
    except (UsageError, InputFileError, FileNotFoundError) as exc:  # a missing input file is a usage error
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
