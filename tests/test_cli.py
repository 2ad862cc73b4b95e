"""Command-line interface tests, run through the real entry point."""

import csv
import json
import subprocess
import sys

import pytest


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "orsched", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized hospital plus a fast trained model, shared by tests."""
    out = tmp_path_factory.mktemp("cli")
    r = run_cli("synth", "--rows", "600", "--seed", "11", "-o", str(out))
    assert r.returncode == 0, r.stderr
    r = run_cli("train", "--records", str(out / "records.csv"), "--grid", "fast", "--seed", "11", "-o", str(out))
    assert r.returncode == 0, r.stderr
    return out


def instance_flags(out):
    return [
        "--registrations", str(out / "registrations.csv"),
        "--mss", str(out / "mss.csv"),
        "--shifts", str(out / "shifts.csv"),
    ]


# -- synth ------------------------------------------------------------------


def test_synth_writes_all_inputs(workspace):
    for name in ("records.csv", "week.csv", "registrations.csv", "mss.csv", "shifts.csv", "hospitalizations.csv"):
        assert (workspace / name).exists(), name


def test_synth_zero_rows_is_usage_error(tmp_path):
    r = run_cli("synth", "--rows", "0", "-o", str(tmp_path))
    assert r.returncode == 2


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--rows", "80", "--seed", "5", "-o", str(a)).returncode == 0
    assert run_cli("synth", "--rows", "80", "--seed", "5", "-o", str(b)).returncode == 0
    for name in ("records.csv", "week.csv", "registrations.csv", "mss.csv", "shifts.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# -- preprocess ----------------------------------------------------------------


def test_preprocess_writes_cleaned_and_log(workspace, tmp_path):
    r = run_cli("preprocess", "--records", str(workspace / "records.csv"), "-o", str(tmp_path))
    assert r.returncode == 0, r.stderr
    log = json.loads((tmp_path / "preprocess_log.json").read_text())
    assert [s["stage"] for s in log["stages"]] == [
        "derive_duration",
        "group_rare_diagnoses",
        "iqr_filter",
        "prune_correlated_features",
    ]
    assert (tmp_path / "cleaned.csv").exists()


# -- train -------------------------------------------------------------------------


def test_train_outputs(workspace):
    metrics = json.loads((workspace / "metrics.json").read_text())
    assert set(metrics) >= {"mae", "rmse", "r2", "spec"}
    assert (workspace / "model.json").exists()
    head = (workspace / "predictions.csv").read_text().splitlines()[0]
    assert head == "id,y,yhat,ape,confidence"


def test_train_noise_free_reaches_high_r2(tmp_path):
    out = tmp_path / "clean"
    assert run_cli("synth", "--rows", "1200", "--noise", "0", "--seed", "2", "-o", str(out)).returncode == 0
    r = run_cli("train", "--records", str(out / "records.csv"), "--grid", "best", "--seed", "2", "-o", str(out))
    assert r.returncode == 0, r.stderr
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["r2"] > 0.9


def test_train_unparsable_timestamp_is_input_error(workspace, tmp_path):
    with open(workspace / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][rows[0].index("INGRESSOSALA")] = "not-a-time"
    bad = tmp_path / "records.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    r = run_cli("train", "--records", str(bad), "--grid", "fast", "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(bad) in r.stderr and "row 3" in r.stderr and "'INGRESSOSALA'" in r.stderr


def test_train_empty_records_file_is_input_error(tmp_path):
    empty = tmp_path / "records.csv"
    empty.write_text("")
    r = run_cli("train", "--records", str(empty), "--grid", "fast", "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(empty) in r.stderr and "row 1" in r.stderr


def test_train_missing_records_flag_is_usage_error(tmp_path):
    r = run_cli("train", "-o", str(tmp_path))
    assert r.returncode == 2


# -- schedule ---------------------------------------------------------------------


def test_schedule_vba_small_instance_proven_optimal(workspace, tmp_path):
    r = run_cli(
        "schedule", "--method", "vba", *instance_flags(workspace),
        "--time-limit", "20", "-o", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    objective = json.loads((tmp_path / "objective.json").read_text())
    assert set(objective) == {"l6", "l5", "l4", "l3", "l2", "l1", "proven_optimal", "wall_time_s"}
    # l6 is the hard tier: must be zero for any feasible schedule
    assert objective["l6"] == 0
    head = (tmp_path / "schedule.csv").read_text().splitlines()[0]
    assert head == "registration_id,priority,or_id,day,shift_id"


def test_schedule_conf_without_model_is_usage_error(workspace, tmp_path):
    r = run_cli(
        "schedule", "--method", "conf", *instance_flags(workspace),
        "--week", str(workspace / "week.csv"), "-o", str(tmp_path),
    )
    assert r.returncode == 2
    assert "--model" in r.stderr


def test_schedule_pred_runs_with_model(workspace, tmp_path):
    r = run_cli(
        "schedule", "--method", "pred", *instance_flags(workspace),
        "--week", str(workspace / "week.csv"), "--model", str(workspace / "model.json"),
        "--time-limit", "5", "--max-restarts", "3", "-o", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "schedule.csv").exists()


def test_schedule_dep_needs_model_or_records(workspace, tmp_path):
    r = run_cli(
        "schedule", "--method", "dep", *instance_flags(workspace),
        "--week", str(workspace / "week.csv"), "-o", str(tmp_path),
    )
    assert r.returncode == 2


def test_schedule_infeasible_p1_reports_certificate(tmp_path):
    (tmp_path / "registrations.csv").write_text(
        "id,priority,specialty,duration_min,actual_duration_min,confidence\nbig,1,GEN,500,500,\n"
    )
    (tmp_path / "mss.csv").write_text("or_id,specialty,shift_id,day\nOR1,GEN,MAIN,0\n")
    (tmp_path / "shifts.csv").write_text("shift_id,capacity_min\nMAIN,360\n")
    r = run_cli(
        "schedule", "--method", "vba",
        "--registrations", str(tmp_path / "registrations.csv"),
        "--mss", str(tmp_path / "mss.csv"),
        "--shifts", str(tmp_path / "shifts.csv"),
        "-o", str(tmp_path),
    )
    assert r.returncode == 1
    assert "big" in r.stderr


# -- evaluate ------------------------------------------------------------------------


def test_evaluate_replays_schedule_files(workspace, tmp_path):
    sched_dir = tmp_path / "s"
    assert run_cli(
        "schedule", "--method", "vba", *instance_flags(workspace),
        "--time-limit", "10", "--max-restarts", "3", "-o", str(sched_dir),
    ).returncode == 0
    r = run_cli(
        "evaluate", *instance_flags(workspace),
        "--schedule", f"vba={sched_dir / 'schedule.csv'}",
        "--hospital", "bordighera", "-o", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report[0]["hospital"] == "bordighera"
    assert report[0]["method"] == "VBA"
    assert report[0]["overbooked"] == 0
    assert "VBA" in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize(
    "content, row, field",
    [
        ("registration_id,priority,or_id,day,shift_id\nr1,1,OR1,0,MAIN\nr2,x,OR1,0,MAIN\n", 3, "priority"),
        ("registration_id,priority,or_id,day\nr1,1,OR1,0\n", 1, "shift_id"),
    ],
    ids=["bad_priority", "missing_shift_id"],
)
def test_evaluate_malformed_schedule_is_input_error(workspace, tmp_path, content, row, field):
    bad = tmp_path / "schedule.csv"
    bad.write_text(content)
    r = run_cli(
        "evaluate", *instance_flags(workspace),
        "--schedule", f"vba={bad}", "-o", str(tmp_path / "out"),
    )
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(bad) in r.stderr
    assert f"row {row}" in r.stderr and repr(field) in r.stderr


@pytest.mark.parametrize(
    "name, content, row, field",
    [
        (
            "registrations.csv",
            "id,priority,specialty,duration_min,actual_duration_min,confidence\na,1,GEN,300,300,\nb,x,GEN,300,300,\n",
            3,
            "priority",
        ),
        ("shifts.csv", "shift_id,capacity_min\nMAIN,abc\n", 2, "capacity_min"),
        ("mss.csv", "or_id,specialty,shift_id,day\nOR1,GEN,MAIN,0\nOR2,ORT,MAIN,mon\n", 3, "day"),
        (
            "registrations.csv",
            "id,priority,specialty,duration_min,actual_duration_min,confidence\na,1,GEN,300,300,\n\nb,2,GEN,300,300,9\n",
            4,
            "confidence",
        ),
        (
            "registrations.csv",
            "id,priority,specialty,duration_min,actual_duration_min,confidence\na,1,GEN,300,300,\na,2,GEN,100,100,\n",
            3,
            "id",
        ),
        ("mss.csv", "or_id,specialty,shift_id,day\nOR1,GEN,MAIN,0\nOR2,ORT,NIGHT,0\n", 3, "shift_id"),
    ],
    ids=["registration_priority", "shift_capacity", "mss_day", "confidence_9", "duplicate_id", "unknown_shift"],
)
def test_schedule_malformed_instance_file_is_input_error(tmp_path, name, content, row, field):
    flags = _tiny_week(tmp_path)
    bad = tmp_path / name
    bad.write_text(content)
    r = run_cli("schedule", "--method", "vba", *flags, "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(bad) in r.stderr
    assert f"row {row}" in r.stderr and repr(field) in r.stderr


def test_schedule_emergency_or_not_in_mss_is_usage_error(tmp_path):
    flags = _tiny_week(tmp_path)
    r = run_cli("schedule", "--method", "vba", *flags, "--emergency-or", "OR9", "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "OR9" in r.stderr


def _tiny_week(tmp_path):
    """Two cells of 360 minutes, one GEN and one ORT, and three registrations."""
    (tmp_path / "registrations.csv").write_text(
        "id,priority,specialty,duration_min,actual_duration_min,confidence\n"
        "a,1,GEN,300,300,\nb,2,GEN,300,300,\nc,2,ORT,100,100,\n"
    )
    (tmp_path / "mss.csv").write_text("or_id,specialty,shift_id,day\nOR1,GEN,MAIN,0\nOR2,ORT,MAIN,0\n")
    (tmp_path / "shifts.csv").write_text("shift_id,capacity_min\nMAIN,360\n")
    return instance_flags(tmp_path)


@pytest.mark.parametrize(
    "rows, code",
    [
        (["a,1,OR1,0,MAIN", "c,2,OR1,0,MAIN"], "specialty_mismatch"),
        (["a,1,OR1,0,MAIN", "nope,2,OR1,0,MAIN"], "unknown_registration"),
    ],
    ids=["wrong_specialty", "unknown_id"],
)
def test_evaluate_infeasible_schedule_is_input_error(tmp_path, rows, code):
    flags = _tiny_week(tmp_path)
    bad = tmp_path / "schedule.csv"
    bad.write_text("registration_id,priority,or_id,day,shift_id\n" + "\n".join(rows) + "\n")
    r = run_cli("evaluate", *flags, "--schedule", f"pred={bad}", "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(bad) in r.stderr and code in r.stderr


def test_evaluate_replays_overbooked_schedule(tmp_path):
    """A cell over capacity is what the report measures, not an input error."""
    flags = _tiny_week(tmp_path)
    over = tmp_path / "schedule.csv"
    over.write_text("registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\nb,2,OR1,0,MAIN\n")
    r = run_cli("evaluate", *flags, "--schedule", f"pred={over}", "-o", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report[0]["overbooked"] == 1 and report[0]["occ_max"] > 100


def test_evaluate_without_schedules_is_usage_error(workspace, tmp_path):
    r = run_cli("evaluate", *instance_flags(workspace), "-o", str(tmp_path))
    assert r.returncode == 2


# -- pipeline ------------------------------------------------------------------------


def test_pipeline_end_to_end(tmp_path):
    r = run_cli(
        "pipeline", "--rows", "500", "--seed", "4", "--grid", "fast",
        "--methods", "vba,pred,dep", "--time-limit", "3", "--max-restarts", "3",
        "-o", str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [row["method"] for row in report] == ["VBA", "Pred", "Dep"]
    for method in ("vba", "pred", "dep"):
        assert (tmp_path / f"schedule_{method}.csv").exists()
        assert (tmp_path / f"objective_{method}.json").exists()
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert lines[0] == "== bordighera =="
    assert len([l for l in lines if l and not l.startswith("==") and "method" not in l]) == 3


def test_pipeline_is_deterministic(tmp_path):
    """Two runs at one seed and a restart cap write the same schedules,
    objectives (but for the wall time) and report."""
    for run in ("a", "b"):
        r = run_cli(
            "pipeline", "--rows", "500", "--grid", "fast", "--methods", "vba,conf,pred",
            "--max-restarts", "2", "-o", str(tmp_path / run),
        )
        assert r.returncode == 0, r.stderr
    a, b = tmp_path / "a", tmp_path / "b"
    for method in ("vba", "conf", "pred"):
        name = f"schedule_{method}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        objectives = [json.loads((d / f"objective_{method}.json").read_text()) for d in (a, b)]
        for objective in objectives:
            del objective["wall_time_s"]
        assert objectives[0] == objectives[1], method
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_pipeline_empty_methods_is_usage_error(tmp_path):
    r = run_cli("pipeline", "--methods", ",", "-o", str(tmp_path))
    assert r.returncode == 2


def test_config_file_supplies_defaults(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "registrations": str(workspace / "registrations.csv"),
        "mss": str(workspace / "mss.csv"),
        "shifts": str(workspace / "shifts.csv"),
        "method": "vba",
        "time_limit": 10,
        "max_restarts": 3,
    }))
    r = run_cli("schedule", "--config", str(config), "-o", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "schedule.csv").exists()
