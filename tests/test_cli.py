"""Command-line interface tests, run through the real entry point."""

import contextlib
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import run_in_own_session

import orsched.cli
import orsched.evaluate
from orsched.core import ObjectiveVector, Schedule
from orsched.ingest import load_instance, preprocess, read_records_csv
from orsched.predict import baseline_mean_estimator, load_model
from orsched.solve import is_feasible, read_schedule_csv


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


# -- synth's second process ------------------------------------------------------
# ``synth`` draws the week in a forked child beside the history. These check
# that the child never outlives the command, that its output and its errors
# are those of the two draws run in order, and that without ``os.fork`` they
# do run in order.


def test_synth_leaves_no_process_behind(tmp_path):
    argv = [sys.executable, "-m", "orsched", "synth", "--hospital", "imperia", "--seed", "1", "-o", str(tmp_path)]
    code, out, err = run_in_own_session(argv, timeout=60)
    assert code == 0, err
    assert out == f"wrote 2000 historical rows, 913 registrations to {tmp_path}\n" and err == ""


def test_synth_child_flushes_none_of_the_parents_output(tmp_path):
    """Text still in the parent's stdout buffer when it forks is written
    once, by the parent: the child ends without flushing its copy."""
    script = "import sys; from orsched.cli import main; print('before'); sys.exit(main(sys.argv[1:]))"
    buffered = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-c", script, "synth", "--rows", "50", "-o", str(tmp_path)]
    code, out, err = run_in_own_session(argv, timeout=60, env=buffered)
    assert code == 0, err
    assert out.splitlines()[0] == "before" and out.count("before") == 1 and out.count("wrote") == 1


@pytest.fixture
def forked(monkeypatch):
    """The pids that ``os.fork`` returns to this process during the test."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# each case: (outputs made as directories first, argv, exit code, the one
# stderr line, ``{out}`` the output directory); the directory cases print
# what they printed before the week had a process of its own
SYNTH_FAILURES = {
    "week_csv_is_a_directory": (
        ["week.csv"], ["synth", "--rows", "50"], 1, "error: [Errno 21] Is a directory: '{out}/week.csv'"
    ),
    "records_csv_is_a_directory": (
        ["records.csv"], ["synth", "--rows", "50"], 1, "error: [Errno 21] Is a directory: '{out}/records.csv'"
    ),
    "both_are_directories": (  # the history's error, as when the history was drawn first
        ["records.csv", "week.csv"], ["synth", "--rows", "50"], 1, "error: [Errno 21] Is a directory: '{out}/records.csv'"
    ),
    "noise_overflows_in_the_history": (
        [], ["synth", "--seed", "2", "--noise", "3"], 2,
        "error: --noise 3.0: a drawn duration is out of range (date value out of range)",
    ),
    "noise_overflows_in_the_week": (  # the one history row draws in range
        [], ["synth", "--rows", "1", "--seed", "3", "--noise", "1e308"], 2,
        "error: --noise 1e+308: a drawn duration is out of range (cannot convert float infinity to integer)",
    ),
}


@pytest.mark.parametrize("with_fork", [True, False], ids=["forked", "in_order"])
@pytest.mark.parametrize("case", list(SYNTH_FAILURES))
def test_synth_failure_is_one_line_and_leaves_no_process(tmp_path, capsys, monkeypatch, forked, case, with_fork):
    if not with_fork:
        monkeypatch.delattr(os, "fork")
    directories, argv, code, line = SYNTH_FAILURES[case]
    for name in directories:
        (tmp_path / name).mkdir()
    assert orsched.cli.main([*argv, "-o", str(tmp_path)]) == code
    assert capsys.readouterr().err == line.format(out=tmp_path) + "\n"
    assert len(forked) == with_fork and all(map(_reaped, forked))


def test_synth_noise_overflow_in_the_week_is_the_childs(tmp_path, capsys, forked):
    """The history is written and the week is not: the error line came
    through the pipe from the child."""
    assert orsched.cli.main(["synth", "--rows", "1", "--seed", "3", "--noise", "1e308", "-o", str(tmp_path)]) == 2
    assert "--noise 1e+308" in capsys.readouterr().err
    assert (tmp_path / "records.csv").is_file() and not (tmp_path / "week.csv").exists()
    assert len(forked) == 1 and _reaped(forked[0])


def test_synth_child_killed_by_a_signal_is_one_runtime_line(tmp_path, capsys, monkeypatch, forked):
    monkeypatch.setattr(orsched.cli, "generate_week", lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
    assert orsched.cli.main(["synth", "--rows", "50", "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "signal 9" in err, err
    assert len(forked) == 1 and _reaped(forked[0])


def test_synth_in_order_imports_no_numpy_ma(tmp_path):
    """The week's quartiles take no ``np.quantile``, whose first call
    imports ``numpy.ma``: a forked week would pay that import again."""
    script = "import os, sys; del os.fork; from orsched.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", script, "synth", "--rows", "200", "-o", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("hospital", ["bordighera", "imperia"])
def test_synth_without_fork_writes_the_same_files(tmp_path, capsys, monkeypatch, hospital):
    argv = ["synth", "--rows", "300", "--seed", "4", "--hospital", hospital, "-o"]
    outputs = []
    for name in ("forked", "in_order"):
        if name == "in_order":
            monkeypatch.delattr(os, "fork")
        assert orsched.cli.main([*argv, str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out.replace(str(tmp_path / name), "OUT"))
    assert outputs[0] == outputs[1]
    files = sorted(path.name for path in (tmp_path / "forked").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "in_order").iterdir()) and len(files) == 6
    for name in files:
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "in_order" / name).read_bytes(), name


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


def _distinct_durations(rows):
    """The header and the first 16 records whose durations all differ."""
    at, first = rows[0].index("DURATA"), {}
    for row in rows[1:]:
        first.setdefault(row[at], row)
    rows[1:] = list(first.values())[:16]


@pytest.mark.parametrize(
    "case, kept",
    [
        # no quantile bin holds the three rows it needs to give the test set one
        ("distinct_durations", 14),
        # fewer rows survive than there are quantile bins
        ("synth_12_rows", 9),
    ],
)
def test_train_on_too_short_history_is_one_line(workspace, tmp_path, capsys, case, kept):
    if case == "synth_12_rows":
        assert orsched.cli.main(["synth", "--rows", "12", "--seed", "1", "-o", str(tmp_path)]) == 0
        records = tmp_path / "records.csv"
    else:
        records, _ = _rewritten(workspace, tmp_path, "records.csv", _distinct_durations)
    capsys.readouterr()
    assert orsched.cli.main(["train", "--records", str(records), "--grid", "fast", "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {records}: preprocessing kept {kept} rows, too few to hold out a test set\n"


def test_train_skips_blank_records_line(workspace, tmp_path):
    """A blank line right after the header is skipped, not read as an empty
    record whose missing columns would stop preprocessing."""
    header, rest = (workspace / "records.csv").read_text(encoding="utf-8").split("\n", 1)
    records = tmp_path / "records.csv"
    records.write_text(f"{header}\n\n{rest}", encoding="utf-8")
    r = run_cli("train", "--records", str(records), "--grid", "fast", "-o", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr


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


def test_week_file_headers_are_the_readme_file_formats(workspace, tmp_path):
    """A week file's columns are its record's fields, so renaming a field
    would change the file: the headers ``synth`` and ``schedule`` write are
    the ones README's File formats give."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    formats = dict(re.findall(r"`(\w+\.csv)` — `([\w,]+)`", readme))
    argv = ["schedule", "--method", "vba", *instance_flags(workspace), "--max-restarts", "1", "-o", str(tmp_path)]
    assert orsched.cli.main(argv) == 0
    paths = {name: workspace / name for name in ("registrations.csv", "mss.csv", "shifts.csv")}
    paths["schedule.csv"] = tmp_path / "schedule.csv"
    assert set(formats) == set(paths)
    for name, path in paths.items():
        assert path.read_text(encoding="utf-8").splitlines()[0] == formats[name], name


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


@pytest.mark.parametrize("method, key", [("dep", "department"), ("surg", "procedure_type")])
def test_schedule_means_from_records_are_the_whole_cleaned_history(workspace, tmp_path, monkeypatch, method, key):
    """With --records and no --model, Dep and Surg plan each registration with
    the mean of its department or procedure over every cleaned record, not
    over the training split the model's baselines keep."""
    planned = []
    solve_auto = orsched.evaluate.solve_auto
    monkeypatch.setattr(orsched.evaluate, "solve_auto", lambda inst, *a, **k: planned.append(inst) or solve_auto(inst, *a, **k))
    argv = _schedule(workspace, "--method", method, "--records", str(workspace / "records.csv"), "--seed", "3")
    assert orsched.cli.main([*argv, "-o", str(tmp_path)]) == 0

    week = read_records_csv(workspace / "week.csv")
    row_of = {rid: i for i, rid in enumerate(week.columns["PROGRESSIVO"])}
    rows = [row_of[r.id] for r in planned[0].registrations]
    clean, _ = preprocess(read_records_csv(workspace / "records.csv"), seed=3)
    means = baseline_mean_estimator(clean.records, key).estimates(week, rows)
    assert [r.duration_min for r in planned[0].registrations] == [max(1, round(m)) for m in means]
    split_means = load_model(workspace / "model.json")[2][key].estimates(week, rows)
    assert means != split_means


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


@pytest.mark.parametrize(
    "name, content, field",
    [
        ("records.csv", "ETA,ETA,PROGRESSIVO\n7,8,P1\n", "ETA"),
        (
            "registrations.csv",
            "id,priority,specialty,duration_min,actual_duration_min,confidence,priority\na,1,GEN,300,300,,2\n",
            "priority",
        ),
    ],
    ids=["records", "registrations"],
)
def test_repeated_header_column_is_input_error(tmp_path, name, content, field):
    flags = _tiny_week(tmp_path)
    bad = tmp_path / name
    bad.write_text(content)
    if name == "records.csv":
        r = run_cli("train", "--records", str(bad), "--grid", "fast", "-o", str(tmp_path / "out"))
    else:
        r = run_cli("schedule", "--method", "vba", *flags, "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert str(bad) in r.stderr and "row 1" in r.stderr and repr(field) in r.stderr


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


def test_evaluate_same_method_twice_is_usage_error(tmp_path):
    """Two schedules under one method (names compared case-blind) would
    report only the last one, under that name."""
    flags = _tiny_week(tmp_path)
    fits, over = tmp_path / "fits.csv", tmp_path / "over.csv"
    fits.write_text("registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\n")
    over.write_text("registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\nb,2,OR1,0,MAIN\n")
    r = run_cli("evaluate", *flags, "--schedule", f"vba={fits}", "--schedule", f"VBA={over}", "-o", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert "VBA" in r.stderr and str(fits) in r.stderr and str(over) in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("seed", [
    1,
    # its CHIR priority-1 minutes need the emergency OR's one place, which the
    # greedy construction gives another specialty first; the repair does not
    # move that occupant, so the feasible week is reported infeasible (exit 1)
    pytest.param(0, marks=pytest.mark.xfail(strict=True, reason="priority-1 repair never frees the emergency OR")),
])
def test_pipeline_with_an_emergency_or_keeps_its_rules(tmp_path, seed):
    """Each method's schedule of a week with an emergency OR, checked against
    the instance reloaded with it: no violation but capacity, which the
    methods that plan with estimates may exceed at the actual durations,
    and at most one registration in the emergency OR."""
    argv = ["pipeline", "--rows", "300", "--grid", "fast", "--max-restarts", "2", "--emergency-or", "OR1", "--seed", str(seed)]
    argv += ["-o", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert orsched.cli.main(argv) == 0
    paths = [tmp_path / name for name in ("registrations.csv", "mss.csv", "shifts.csv")]
    instance = load_instance(*paths, emergency_or_id="OR1")
    for method in orsched.evaluate.METHODS:
        assignments = read_schedule_csv(tmp_path / f"schedule_{method.lower()}.csv")
        violations = is_feasible(Schedule(assignments, ObjectiveVector(0, 0, 0, 0, 0, 0)), instance)
        assert {v.code for v in violations} <= {"capacity_exceeded"}, (method, violations)
        assert sum(a.or_id == "OR1" for a in assignments) <= 1, method


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


@pytest.fixture(scope="module")
def counted_pipeline(tmp_path_factory):
    """One in-process pipeline run over the five methods, and how often it
    read a records file and loaded a model."""
    out = tmp_path_factory.mktemp("pipeline")
    calls = {"read_records_csv": 0, "load_model": 0}

    def counting(name):
        original = getattr(orsched.cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        for name in calls:
            patch.setattr(orsched.cli, name, counting(name))
        argv = ["pipeline", "--rows", "500", "--seed", "4", "--grid", "fast", "--max-restarts", "2", "-o", str(out)]
        assert orsched.cli.main(argv) == 0
    return out, calls


def test_pipeline_reads_each_input_once(counted_pipeline):
    """records.csv for training and week.csv for every method's estimates,
    each read once, and the model it trained loaded once."""
    _, calls = counted_pipeline
    assert calls == {"read_records_csv": 2, "load_model": 1}


@pytest.mark.parametrize("method", ["vba", "conf", "pred", "dep", "surg"])
def test_schedule_matches_pipeline(counted_pipeline, method, tmp_path):
    """`schedule` on the pipeline's own inputs, at its seed and restart cap,
    writes the pipeline's schedule and objective (but for the wall time)."""
    out, _ = counted_pipeline
    argv = [
        "schedule", "--method", method, *instance_flags(out), "--week", str(out / "week.csv"),
        "--model", str(out / "model.json"), "--seed", "4", "--max-restarts", "2", "-o", str(tmp_path),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert orsched.cli.main(argv) == 0
    assert (tmp_path / "schedule.csv").read_bytes() == (out / f"schedule_{method}.csv").read_bytes()
    objectives = [json.loads(path.read_text()) for path in (tmp_path / "objective.json", out / f"objective_{method}.json")]
    for objective in objectives:
        del objective["wall_time_s"]
    assert objectives[0] == objectives[1]


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


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tyop": 1, "threads": 4}))
    assert orsched.cli.main(["synth", "--rows", "50", "--config", str(config), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(config) in err and "'tyop'" in err
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("rows", "abc"), ("rows", 2.5), ("time_limit", "soon"), ("hospital", "nowhere"), ("seed", True)],
    ids=["text_for_int", "float_for_int", "text_for_float", "not_a_choice", "bool_for_int"],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    command = "schedule" if key == "time_limit" else "synth"
    assert orsched.cli.main([command, "--config", str(config), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(config) in err and repr(key) in err


@pytest.mark.parametrize(
    "entry, field",
    [
        ({"family": "xgb"}, "family"),
        ({"hyperparameters": {"max_depth": 3}}, "family"),
        ({"family": "tree", "hyperparameters": {"depth": 3}}, "depth"),
        ({"family": "forest", "hyperparameters": {"max_features": "log2"}}, "max_features"),
        ({"family": "boosted_trees", "hyperparameters": {"n_estimators": 2.5}}, "n_estimators"),
        ({"family": "tree", "hyperparameters": {"max_depth": "3"}}, "max_depth"),
        ({"family": "knn", "hyperparameters": {"n_neighbors": True}}, "n_neighbors"),
        ({"family": "tree", "hyperparameters": [3]}, "hyperparameters"),
    ],
    ids=["unknown_family", "no_family", "unknown_name", "log2", "fractional_count", "text_depth", "bool_count", "list"],
)
def test_train_malformed_grid_entry_is_usage_error(workspace, tmp_path, capsys, entry, field):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"family": "tree", "hyperparameters": {"max_depth": 2}}, entry]))
    argv = ["train", "--records", str(workspace / "records.csv"), "--grid", str(grid), "-o", str(tmp_path / "out")]
    assert orsched.cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(grid) in err and "entry 1" in err and repr(field) in err



def _not_utf8(src, dst, line):
    """``src`` copied to ``dst`` with a byte that is not UTF-8 opening its ``line``-th line."""
    lines = src.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    dst.write_bytes(b"\n".join(lines))
    return str(dst)


def _written(path, data):
    path.write_bytes(data)
    return str(path)


def _model(workspace, tmp_path, change):
    """The workspace's model artifact with ``change`` applied to its JSON object."""
    data = json.loads((workspace / "model.json").read_text())
    change(data)
    return _written(tmp_path / "model.json", json.dumps(data).encode())


def _model_values(ws, tmp, method, change):
    """``schedule --method`` with the workspace model with ``change`` applied,
    and the model's path, which the error line must name."""
    model = _model(ws, tmp, change)
    return _schedule(ws, "--method", method, "--model", model), model


def _first_tree(data, tree):
    data["structure"]["trees"][0] = tree


def _first_root_feature(ws, tmp, feature):
    """``schedule --method pred`` with the workspace model's first tree
    splitting its root on ``feature(n_features)``, and the error line's text."""

    def change(data):
        data["structure"]["trees"][0]["feature"] = feature(data["structure"]["n_features"])

    argv, model = _model_values(ws, tmp, "pred", change)
    return argv, f"{model}: malformed model values: a tree node's 'feature' is outside [0, "


def _schedule(ws, *flags):
    return ["schedule", *instance_flags(ws), "--week", str(ws / "week.csv"), "--max-restarts", "1", *flags]


def _rewritten(ws, tmp, name, change):
    """The workspace's file ``name`` copied into ``tmp`` with its rows (header
    first) changed in place by ``change``, and the rows."""
    with open(ws / name, newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(tmp / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return tmp / name, rows


def _week(ws, tmp, change, problem, method="dep"):
    """``schedule --method`` with the workspace's week.csv, its rows (header
    first) changed by ``change``, and the error line's text: the file's
    path, then ``problem``."""
    path, _ = _rewritten(ws, tmp, "week.csv", change)
    argv = ["schedule", *instance_flags(ws), "--week", str(path), "--model", str(ws / "model.json"), "--method", method]
    return argv, f"{path}: {problem}"


def _repeat_first_record(rows):
    """The first record again, as row 3, in another department."""
    repeat = list(rows[1])
    repeat[rows[0].index("REPARTO")] = "ALTRO"
    rows.insert(2, repeat)


def _drop_column(name):
    def change(rows):
        at = rows[0].index(name)
        for row in rows:
            del row[at]

    return change


def _without_actual(ws, tmp, method, *flags):
    """``schedule --method`` with the workspace's registrations.csv, the
    actual duration of its second registration blanked, and the error line's
    text: the file, the field and that registration."""

    def blank(rows):
        rows[2][rows[0].index("actual_duration_min")] = ""

    path, rows = _rewritten(ws, tmp, "registrations.csv", blank)
    argv = ["schedule", "--registrations", str(path), "--mss", str(ws / "mss.csv"), "--shifts", str(ws / "shifts.csv")]
    return [*argv, "--week", str(ws / "week.csv"), "--max-restarts", "1", "--method", method, *flags], (
        f"{path}: field 'actual_duration_min' is empty for {rows[2][0]}"
    )


def _evaluate_without_actual(tmp):
    """``evaluate`` of a schedule that assigns a registration without an
    actual duration, and the error line's text."""
    flags = _tiny_week(tmp)
    regs = tmp / "registrations.csv"
    regs.write_text(regs.read_text().replace("a,1,GEN,300,300,", "a,1,GEN,300,,"))
    schedule = _written(tmp / "schedule.csv", b"registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\n")
    return ["evaluate", *flags, "--schedule", f"vba={schedule}"], f"{regs}: field 'actual_duration_min' is empty for a"


def _evaluate_empty_schedule(tmp):
    """``evaluate`` of a schedule file that holds only its header, in a week
    without priority-1 registrations (so it leaves none out), and the error
    line's text."""
    flags = _tiny_week(tmp)
    regs = tmp / "registrations.csv"
    regs.write_text(regs.read_text().replace("a,1,GEN", "a,2,GEN"))
    schedule = _written(tmp / "schedule.csv", b"registration_id,priority,or_id,day,shift_id\n")
    return ["evaluate", *flags, "--schedule", f"vba={schedule}"], f"{schedule}: assigns no registration"


def _records_without_durations(ws, tmp, argv):
    """``argv(path)``, with ``path`` the workspace's records.csv without the
    columns a duration is derived from, and the error line's text."""

    def drop(rows):
        for name in ("INGRESSOSALA", "USCITASALA", "DURATA"):
            _drop_column(name)(rows)

    path, _ = _rewritten(ws, tmp, "records.csv", drop)
    return argv(str(path)), f"{path}: row 1: cannot derive durations"


def _records_with_short_first_record(ws, tmp, argv):
    """``argv(path)``, with ``path`` the workspace's records.csv with its
    first record cut to 5 cells, and the error line's text: the record's
    line and the first field it lacks."""

    def cut(rows):
        rows[1] = rows[1][:5]

    path, rows = _rewritten(ws, tmp, "records.csv", cut)
    return argv(str(path)), f"{path}: row 2, field {rows[0][5]!r}: cannot derive durations"


def _emptied(ws, tmp, name, column, *flags):
    """``schedule`` with ``flags`` and the workspace's instance file ``name``
    with its first row's ``column`` cell emptied, and the error line's text."""

    def empty(rows):
        rows[1][rows[0].index(column)] = ""

    path, _ = _rewritten(ws, tmp, name, empty)
    argv = _schedule(ws, *flags)
    argv[argv.index(str(ws / name))] = str(path)
    return argv, f"{path}: row 2, field {column!r}: value missing"


def _schedule_file_emptied(ws, tmp, column):
    """``evaluate`` of a one-row schedule file with its ``column`` cell empty,
    and the error line's text."""
    row = {"registration_id": "W0000", "priority": "2", "or_id": "OR1", "day": "0", "shift_id": "MAIN", column: ""}
    path = _written(tmp / "schedule.csv", f"{','.join(row)}\n{','.join(row.values())}\n".encode())
    return ["evaluate", *instance_flags(ws), "--schedule", f"vba={path}"], f"{path}: row 2, field {column!r}: value missing"


def _noise_overflow(argv, noise):
    return [*argv, "--noise", noise], f"--noise {float(noise)}: a drawn duration is out of range"


def _out_is_a_file(tmp, argv):
    """``argv``, with the ``-o`` directory the case runs with made a file."""
    (tmp / "out").write_bytes(b"")
    return argv, f"-o {tmp / 'out'}: is a file, not a directory"


def _pipeline(*flags):
    return ["pipeline", "--rows", "200", "--grid", "fast", "--max-restarts", "1", "--time-limit", "5", *flags]


# each case: (workspace, tmp_path) -> (argv, text the error line must hold)
MALFORMED_INPUT = {
    "model_not_json": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _written(tmp / "model.json", b"{not json")), "line 1"
    ),
    "model_without_family": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _model(ws, tmp, lambda d: d.pop("family"))), "'family'"
    ),
    "model_wrong_version": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _model(ws, tmp, lambda d: d.update(format_version=2))),
        "'format_version'",
    ),
    "records_not_utf8": lambda ws, tmp: (
        ["train", "--records", _not_utf8(ws / "records.csv", tmp / "records.csv", 300)], "row 300"
    ),
    "registrations_not_utf8": lambda ws, tmp: (
        ["schedule", "--registrations", _not_utf8(ws / "registrations.csv", tmp / "registrations.csv", 5),
         "--mss", str(ws / "mss.csv"), "--shifts", str(ws / "shifts.csv")],
        "row 5",
    ),
    "config_not_utf8": lambda ws, tmp: (
        ["synth", "--config", _written(tmp / "latin1.json", b'{"rows": "\xe9"}')], "latin1.json"
    ),
    "grid_not_utf8": lambda ws, tmp: (
        ["train", "--records", str(ws / "records.csv"), "--grid", _written(tmp / "latin1.json", b'[{"family": "\xe9"}]')],
        "latin1.json",
    ),
    "pipeline_same_method_twice": lambda ws, tmp: (_pipeline("--methods", "vba,VBA"), "VBA"),
    "synth_negative_seed": lambda ws, tmp: (["synth", "--rows", "50", "--seed", "-1"], "--seed"),
    "synth_negative_seed_in_config": lambda ws, tmp: (
        ["synth", "--rows", "50", "--config", _written(tmp / "seed.json", b'{"seed": -1}')], "--seed"
    ),
    "preprocess_negative_seed": lambda ws, tmp: (["preprocess", "--records", str(ws / "records.csv"), "--seed", "-1"], "--seed"),
    "train_negative_seed": lambda ws, tmp: (
        ["train", "--records", str(ws / "records.csv"), "--grid", "fast", "--seed", "-1"], "--seed"
    ),
    "pipeline_negative_seed": lambda ws, tmp: (_pipeline("--seed", "-1"), "--seed"),
    "schedule_dep_history_negative_seed": lambda ws, tmp: (
        _schedule(ws, "--method", "dep", "--records", str(ws / "records.csv"), "--seed", "-1"), "--seed"
    ),
    "synth_zero_planning_days": lambda ws, tmp: (["synth", "--rows", "50", "--planning-days", "0"], "--planning-days"),
    "synth_negative_fill_ratio": lambda ws, tmp: (["synth", "--rows", "50", "--fill-ratio", "-1"], "--fill-ratio"),
    "pipeline_zero_planning_days": lambda ws, tmp: (_pipeline("--planning-days", "0"), "--planning-days"),
    "pipeline_negative_fill_ratio": lambda ws, tmp: (_pipeline("--fill-ratio", "-1"), "--fill-ratio"),
    "schedule_unknown_method": lambda ws, tmp: (_schedule(ws, "--method", "vbx"), "'vbx'"),
    "pipeline_unknown_method": lambda ws, tmp: (_pipeline("--methods", "foo"), "'foo'"),
    "evaluate_unknown_method": lambda ws, tmp: (
        ["evaluate", *instance_flags(ws), "--schedule", f"foo={tmp / 'x.csv'}"], "'foo'"
    ),
    "model_missing": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", str(tmp / "nothere.json")), "nothere.json"
    ),
    "model_unknown_family": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _model(ws, tmp, lambda d: d.update(family="xgb"))), "'family'"
    ),
    "model_empty_structure": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _model(ws, tmp, lambda d: d.update(structure={}))), "'n_features'"
    ),
    "model_empty_hyperparameters": lambda ws, tmp: (
        _schedule(ws, "--method", "pred", "--model", _model(ws, tmp, lambda d: d.update(hyperparameters={}))),
        "'learning_rate'",
    ),
    "config_list_for_scalar": lambda ws, tmp: (
        ["synth", "--config", _written(tmp / "rows.json", b'{"rows": [30, 40]}')], "'rows'"
    ),
    # values well formed as JSON but not as the model or baselines read them
    "model_n_features_text": lambda ws, tmp: _model_values(ws, tmp, "pred", lambda d: d["structure"].update(n_features="x")),
    "model_first_tree_empty": lambda ws, tmp: _model_values(ws, tmp, "conf", lambda d: _first_tree(d, {})),
    "model_tree_feature_negative": lambda ws, tmp: _first_root_feature(ws, tmp, lambda n_features: -1),
    "model_tree_feature_past_the_last": lambda ws, tmp: _first_root_feature(ws, tmp, lambda n_features: n_features),
    "model_learning_rate_text": lambda ws, tmp: _model_values(ws, tmp, "pred", lambda d: d["hyperparameters"].update(learning_rate="a")),
    "model_categories_list": lambda ws, tmp: _model_values(ws, tmp, "conf", lambda d: d["encoder"].update(categories=[])),
    "model_department_means_list": lambda ws, tmp: _model_values(
        ws, tmp, "dep", lambda d: d["baselines"]["department"].update(means=[])
    ),
    "model_procedure_mean_text": lambda ws, tmp: _model_values(
        ws, tmp, "surg", lambda d: d["baselines"]["procedure_type"].update(means={}, global_mean="x")
    ),
    "model_base_infinite": lambda ws, tmp: _model_values(ws, tmp, "pred", lambda d: d["structure"].update(base=float("inf"))),
    "model_base_nan": lambda ws, tmp: _model_values(ws, tmp, "conf", lambda d: d["structure"].update(base=float("nan"))),
    "synth_infinite_noise": lambda ws, tmp: (["synth", "--rows", "50", "--noise", "inf"], "--noise"),
    "synth_nan_noise": lambda ws, tmp: (["synth", "--rows", "50", "--noise", "nan"], "--noise"),
    "pipeline_negative_noise": lambda ws, tmp: (_pipeline("--noise", "-0.5"), "--noise"),
    # a draw too large for a date or an integer; the week's is the forked child's
    "synth_noise_overflows_a_date": lambda ws, tmp: _noise_overflow(["synth", "--seed", "2"], "3"),
    "synth_noise_overflows_an_integer": lambda ws, tmp: _noise_overflow(["synth"], "50"),
    "synth_noise_overflows_a_float": lambda ws, tmp: _noise_overflow(["synth"], "1e308"),
    "synth_noise_overflows_in_the_week": lambda ws, tmp: _noise_overflow(["synth", "--rows", "1", "--seed", "3"], "1e308"),
    "pipeline_noise_overflows": lambda ws, tmp: _noise_overflow(_pipeline("--seed", "2"), "3"),
    "synth_nan_noise_in_config": lambda ws, tmp: (
        ["synth", "--rows", "50", "--config", _written(tmp / "noise.json", b'{"noise": NaN}')], "--noise"
    ),
    "schedule_zero_time_limit": lambda ws, tmp: (_schedule(ws, "--time-limit", "0"), "--time-limit"),
    "schedule_negative_time_limit": lambda ws, tmp: (_schedule(ws, "--time-limit", "-1"), "--time-limit"),
    "schedule_nan_time_limit": lambda ws, tmp: (_schedule(ws, "--time-limit", "nan"), "--time-limit"),
    "schedule_negative_max_restarts": lambda ws, tmp: (_schedule(ws, "--max-restarts", "-5"), "--max-restarts"),
    "schedule_zero_time_limit_in_config": lambda ws, tmp: (
        _schedule(ws, "--config", _written(tmp / "limit.json", b'{"time_limit": 0}')), "--time-limit"
    ),
    "pipeline_zero_time_limit": lambda ws, tmp: (_pipeline("--time-limit", "0"), "--time-limit"),
    "pipeline_zero_max_restarts": lambda ws, tmp: (_pipeline("--max-restarts", "0"), "--max-restarts"),
    "schedule_infinite_time_limit": lambda ws, tmp: (_schedule(ws, "--time-limit", "inf"), "--time-limit"),
    "schedule_infinite_time_limit_in_config": lambda ws, tmp: (
        _schedule(ws, "--config", _written(tmp / "limit.json", b'{"time_limit": Infinity}')), "--time-limit"
    ),
    "pipeline_infinite_time_limit": lambda ws, tmp: (_pipeline("--time-limit", "inf"), "--time-limit"),
    "schedule_vba_without_actual": lambda ws, tmp: _without_actual(ws, tmp, "vba"),
    "schedule_conf_without_actual": lambda ws, tmp: _without_actual(ws, tmp, "conf", "--model", str(ws / "model.json")),
    "evaluate_without_actual": lambda ws, tmp: _evaluate_without_actual(tmp),
    "preprocess_records_without_durations": lambda ws, tmp: _records_without_durations(
        ws, tmp, lambda path: ["preprocess", "--records", path]
    ),
    "train_records_without_durations": lambda ws, tmp: _records_without_durations(
        ws, tmp, lambda path: ["train", "--records", path, "--grid", "fast"]
    ),
    "schedule_dep_records_without_durations": lambda ws, tmp: _records_without_durations(
        ws, tmp, lambda path: _schedule(ws, "--method", "dep", "--records", path)
    ),
    "preprocess_records_with_short_first_record": lambda ws, tmp: _records_with_short_first_record(
        ws, tmp, lambda path: ["preprocess", "--records", path]
    ),
    "train_records_with_short_first_record": lambda ws, tmp: _records_with_short_first_record(
        ws, tmp, lambda path: ["train", "--records", path, "--grid", "fast"]
    ),
    "evaluate_schedule_without_assignments": lambda ws, tmp: _evaluate_empty_schedule(tmp),
    "week_repeated_id": lambda ws, tmp: _week(
        ws, tmp, _repeat_first_record, "row 3, field 'PROGRESSIVO': id 'W0000' repeats row 2"
    ),
    "week_without_id_column": lambda ws, tmp: _week(
        ws, tmp, _drop_column("PROGRESSIVO"), "row 1, field 'PROGRESSIVO': column missing from the header"
    ),
    "week_without_a_registrations_record": lambda ws, tmp: _week(
        ws, tmp, lambda rows: rows.pop(1), "field 'PROGRESSIVO': no record for registrations W0000"
    ),
    # a column the method's source reads: the model's encoder for Pred, REPARTO for Dep
    "week_without_a_feature_column_pred": lambda ws, tmp: _week(
        ws, tmp, _drop_column("ETA"), "row 1, field 'ETA': column missing from the header", "pred"
    ),
    "week_without_the_department_column_dep": lambda ws, tmp: _week(
        ws, tmp, _drop_column("REPARTO"), "row 1, field 'REPARTO': column missing from the header"
    ),
    # an empty cell in a required column of an instance or schedule file
    "registrations_empty_id_vba": lambda ws, tmp: _emptied(ws, tmp, "registrations.csv", "id", "--method", "vba"),
    "registrations_empty_id_pred": lambda ws, tmp: _emptied(
        ws, tmp, "registrations.csv", "id", "--method", "pred", "--model", str(ws / "model.json")
    ),
    "registrations_empty_specialty_vba": lambda ws, tmp: _emptied(ws, tmp, "registrations.csv", "specialty", "--method", "vba"),
    "registrations_empty_specialty_pred": lambda ws, tmp: _emptied(
        ws, tmp, "registrations.csv", "specialty", "--method", "pred", "--model", str(ws / "model.json")
    ),
    **{
        f"{name[:-4]}_empty_{column}": lambda ws, tmp, name=name, column=column: _emptied(ws, tmp, name, column, "--method", "vba")
        for name, columns in (("mss.csv", ("or_id", "specialty", "shift_id", "day")), ("shifts.csv", ("shift_id", "capacity_min")))
        for column in columns
    },
    **{
        f"schedule_file_empty_{column}": lambda ws, tmp, column=column: _schedule_file_emptied(ws, tmp, column)
        for column in ("registration_id", "priority", "or_id", "day", "shift_id")
    },
    "synth_out_is_a_file": lambda ws, tmp: _out_is_a_file(tmp, ["synth", "--rows", "50"]),
    "train_out_is_a_file": lambda ws, tmp: _out_is_a_file(tmp, ["train", "--records", str(ws / "records.csv"), "--grid", "fast"]),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUT))
def test_malformed_input_is_one_usage_line(workspace, tmp_path, capsys, case):
    argv, expected = MALFORMED_INPUT[case](workspace, tmp_path)
    assert orsched.cli.main([*argv, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and expected in err, err


@pytest.mark.parametrize("command", ["synth", "train"])
def test_out_below_a_file_is_one_usage_line(workspace, tmp_path, capsys, command):
    (tmp_path / "afile").write_bytes(b"")
    out = tmp_path / "afile" / "sub"
    argv = ["synth", "--rows", "50"] if command == "synth" else ["train", "--records", str(workspace / "records.csv")]
    assert orsched.cli.main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: -o {out}: a parent of it is a file, not a directory\n"


# -- input files saved with a byte-order mark (Excel's "CSV UTF-8", Notepad) ---


def _instance_with(ws, name, path):
    """The workspace's instance flags with its file ``name`` replaced by ``path``."""
    return [path if flag == str(ws / name) else flag for flag in instance_flags(ws)]


# each input file: (workspace, path of the file to read) -> a command that reads it
BOM_READERS = {
    "records.csv": lambda ws, path: ["train", "--records", path, "--grid", "fast", "--seed", "11"],
    "week.csv": lambda ws, path: [
        "schedule", *instance_flags(ws), "--week", path, "--model", str(ws / "model.json"), "--method", "pred", "--max-restarts", "1"
    ],
    "registrations.csv": lambda ws, path: ["schedule", *_instance_with(ws, "registrations.csv", path), "--max-restarts", "1"],
    "mss.csv": lambda ws, path: ["schedule", *_instance_with(ws, "mss.csv", path), "--max-restarts", "1"],
    "shifts.csv": lambda ws, path: ["schedule", *_instance_with(ws, "shifts.csv", path), "--max-restarts", "1"],
    "schedule.csv": lambda ws, path: ["evaluate", *instance_flags(ws), "--schedule", f"vba={path}"],
    "model.json": lambda ws, path: _schedule(ws, "--method", "pred", "--model", path),
    "config.json": lambda ws, path: ["synth", "--config", path],
    "grid.json": lambda ws, path: ["train", "--records", str(ws / "records.csv"), "--grid", path],
}
# the inputs that the workspace lacks
BOM_SOURCES = {
    "config.json": b'{"rows": 30, "seed": 2}',
    "grid.json": b'[{"family": "tree", "hyperparameters": {"max_depth": 3}}]',
}


@pytest.mark.parametrize("name", list(BOM_READERS))
def test_input_with_a_byte_order_mark_reads_as_without(workspace, tmp_path, capsys, name):
    """Every file the command writes is the same with the mark as without."""
    source = workspace / name
    if name == "schedule.csv":
        assert orsched.cli.main([*_schedule(workspace), "-o", str(tmp_path)]) == 0
        source = tmp_path / name
    elif name in BOM_SOURCES:
        source = tmp_path / name
        source.write_bytes(BOM_SOURCES[name])
    written = []
    for mark in (b"", b"\xef\xbb\xbf"):
        run = tmp_path / str(len(mark))
        run.mkdir()
        path = _written(run / name, mark + source.read_bytes())
        assert orsched.cli.main([*BOM_READERS[name](workspace, path), "-o", str(run / "out")]) == 0, capsys.readouterr().err
        files = {p.name: p.read_bytes() for p in (run / "out").iterdir()}
        if "objective.json" in files:  # all but the solve's wall time
            files["objective.json"] = {k: v for k, v in json.loads(files["objective.json"]).items() if k != "wall_time_s"}
        written.append(files)
    assert written[0] == written[1] and written[0]


@pytest.mark.parametrize(
    "flags", [["--time-limit", "nan"], ["--max-restarts", "0"], ["--noise", "inf"], ["--time-limit", "inf"]]
)
def test_pipeline_with_a_bad_bound_writes_nothing(tmp_path, flags):
    assert orsched.cli.main([*_pipeline(*flags), "-o", str(tmp_path / "out")]) == 2
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def test_config_null_takes_the_default(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rows": None, "seed": 3}))
    assert orsched.cli.main(["synth", "--config", str(config), "-o", str(tmp_path)]) == 0
    assert "wrote 2000 historical rows" in capsys.readouterr().out
    with open(tmp_path / "records.csv", newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 1 + 2000


def test_flags_win_over_config(tmp_path, capsys):
    """A flag replaces the config's value; a repeated flag's list replaces
    the config's list rather than extending it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rows": 50}))
    assert orsched.cli.main(["synth", "--config", str(config), "--rows", "30", "-o", str(tmp_path / "synth")]) == 0
    with open(tmp_path / "synth" / "records.csv", newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 1 + 30

    flags = _tiny_week(tmp_path)
    fits, over = tmp_path / "fits.csv", tmp_path / "over.csv"
    fits.write_text("registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\n")
    over.write_text("registration_id,priority,or_id,day,shift_id\na,1,OR1,0,MAIN\nb,2,OR1,0,MAIN\n")
    config.write_text(json.dumps({"schedule": [f"vba={fits}", f"conf={fits}"]}))
    argv = ["evaluate", *flags, "--config", str(config), "--schedule", f"pred={over}", "-o", str(tmp_path / "out")]
    assert orsched.cli.main(argv) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [row["method"] for row in report] == ["Pred"]


def test_config_values_last_one_call(tmp_path, capsys):
    """``main`` builds its parser once per process, so a config file's values
    must not become a later call's defaults: after a call whose config sets
    ``time_limit``, a call without a config plans with the parser's default."""
    flags = _tiny_week(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time_limit": 0}))
    assert orsched.cli.main(["schedule", *flags, "--config", str(config), "-o", str(tmp_path / "a")]) == 2
    assert "--time-limit" in capsys.readouterr().err
    assert orsched.cli.main(["schedule", *flags, "--max-restarts", "1", "-o", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for argv in (["schedule"], ["evaluate"]):
        got, want = vars(orsched.cli._parser().parse_args(argv)), vars(orsched.cli.build_parser().parse_args(argv))
        del got["command_parser"], want["command_parser"]
        assert got == want, argv


# each case: (workspace, a directory) -> argv that reads the directory as an input file
DIRECTORY_INPUT = {
    "train_records": lambda ws, d: ["train", "--records", d, "--grid", "fast"],
    "schedule_records": lambda ws, d: _schedule(ws, "--method", "dep", "--records", d),
    "week": lambda ws, d: ["schedule", *instance_flags(ws), "--week", d, "--method", "pred", "--model", str(ws / "model.json")],
    "registrations": lambda ws, d: ["schedule", "--registrations", d, "--mss", str(ws / "mss.csv"), "--shifts", str(ws / "shifts.csv")],
    "mss": lambda ws, d: ["schedule", "--registrations", str(ws / "registrations.csv"), "--mss", d, "--shifts", str(ws / "shifts.csv")],
    "shifts": lambda ws, d: ["schedule", "--registrations", str(ws / "registrations.csv"), "--mss", str(ws / "mss.csv"), "--shifts", d],
    "model": lambda ws, d: _schedule(ws, "--method", "pred", "--model", d),
    "evaluate_schedule": lambda ws, d: ["evaluate", *instance_flags(ws), "--schedule", f"vba={d}"],
}


@pytest.mark.parametrize("case", list(DIRECTORY_INPUT))
def test_directory_as_input_file_is_one_usage_line(workspace, tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = DIRECTORY_INPUT[case](workspace, str(folder))
    assert orsched.cli.main([*argv, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(folder) in err and "directory" in err, err

