"""Corrupted input files through the command line, in-process: whatever
cells, header or line lengths a file has, the command that reads it exits
0, 1 or 2, and a failure prints exactly one line and no traceback."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import orsched.cli

TEXTS = st.sampled_from([
    "", " ", "x", "0", "-1", "+7", "3.5", "nan", "inf", "1e3", "1_000", "9" * 400, "W0000", "OR1", "MAIN", "CHIR",
    "2019-03-04 07:30:00", "2019-03-04", "2019-13-01", "2019-03-04T07:30:00+02:00", "2019-03-04T07:30:00-11:00",
    "é", "a,b", 'say "hi"', "two\nlines", "x" * 140_000,
]) | st.text(max_size=6)

# (kind, row, column, text): what one corruption does to the file's rows, the header being row 0
CORRUPTIONS = st.tuples(
    st.sampled_from(["cell"] * 4 + ["header", "cut", "extend", "blank", "drop", "repeat", "byte"]),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
    TEXTS,
)


def _corrupt(source, target, corruptions):
    with open(source, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    bad_bytes = []
    for kind, r, c, text in corruptions:
        if not rows:
            break
        row = rows[r % len(rows)]
        if kind == "cell" and row:
            row[c % len(row)] = text
        elif kind == "header" and rows[0]:
            rows[0][c % len(rows[0])] = rows[0][r % len(rows[0])] if r % 2 else text
        elif kind == "cut":
            del row[c % (len(row) + 1):]
        elif kind == "extend":
            row.append(text)
        elif kind == "blank":
            rows.insert(r % len(rows), [])
        elif kind == "drop":
            del rows[r % len(rows)]
        elif kind == "repeat":
            rows.insert(c % len(rows), list(row))
        elif kind == "byte":
            bad_bytes.append(r)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    data = out.getvalue().encode("utf-8")
    for at in bad_bytes:
        at %= len(data) + 1
        data = data[:at] + b"\xff" + data[at:]
    target.write_bytes(data)


@pytest.fixture(scope="module")
def week(tmp_path_factory):
    """A small synthesized hospital, a one-tree model trained on its history
    and a VBA schedule of its week."""
    out = tmp_path_factory.mktemp("corrupt")
    grid = out / "grid.json"
    grid.write_text(json.dumps([{"family": "tree", "hyperparameters": {"max_depth": 3}}]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert orsched.cli.main(["synth", "--rows", "120", "--seed", "3", "-o", str(out)]) == 0
        assert orsched.cli.main(["train", "--records", str(out / "records.csv"), "--grid", str(grid), "-o", str(out)]) == 0
        assert orsched.cli.main(["schedule", *_instance(out), "--max-restarts", "1", "-o", str(out)]) == 0
    return out


def _instance(out, **replaced):
    files = {"registrations": out / "registrations.csv", "mss": out / "mss.csv", "shifts": out / "shifts.csv", **replaced}
    return [arg for name, path in files.items() for arg in (f"--{name}", str(path))]


SOLVE = ["--solver", "heuristic", "--max-restarts", "1", "--time-limit", "5"]

# each file: (out, the corrupted file) -> the command that reads it
COMMANDS = {
    "records.csv": lambda out, bad: ["preprocess", "--records", str(bad)],
    "week.csv": lambda out, bad: ["schedule", *_instance(out), "--week", str(bad), "--model", str(out / "model.json"), *SOLVE],
    "registrations.csv": lambda out, bad: ["schedule", *_instance(out, registrations=bad), *SOLVE],
    "mss.csv": lambda out, bad: ["schedule", *_instance(out, mss=bad), *SOLVE],
    "shifts.csv": lambda out, bad: ["schedule", *_instance(out, shifts=bad), *SOLVE],
    "schedule.csv": lambda out, bad: ["evaluate", *_instance(out), "--schedule", f"vba={bad}"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
# no shrinking: a failing example is printed as found, as shrinking 140,000-character cells takes minutes
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(corruptions=st.lists(CORRUPTIONS, min_size=1, max_size=3), method=st.sampled_from(["vba", "conf", "pred", "dep", "surg"]))
def test_corrupt_file_exits_with_one_line(week, name, corruptions, method):
    bad = week / "bad" / name
    bad.parent.mkdir(exist_ok=True)
    _corrupt(week / name, bad, corruptions)
    argv = [*COMMANDS[name](week, bad), "-o", str(week / "bad" / "out")]
    if argv[0] == "schedule":
        argv += ["--method", method]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = orsched.cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue(), err.getvalue()
