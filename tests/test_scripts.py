"""The experiment scripts, run as a user runs them."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_ab(*argv, timeout):
    """``scripts/ab.py`` in a session of its own, which must hold no process
    once the script has exited."""
    with subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as ab:
        try:
            out, err = ab.communicate(timeout=timeout)
        finally:
            left = _session_alive(ab.pid)
            if left:
                os.killpg(ab.pid, signal.SIGKILL)
    assert not left, "ab.py left a process behind"
    return ab.returncode, out, err


def _session_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_ab_synth_against_this_checkout_is_identical():
    code, out, err = run_ab("synth", "--parent", str(ROOT), "--pairs", "2", timeout=15)
    assert code == 0, err
    assert "digests identical: 0 at set-up, 12 per run in each of 2 pairs" in out
    assert out.count("ratio") == 2 + 3  # two pairs; total, bordighera and imperia


def test_ab_data_against_this_checkout_is_identical():
    code, out, err = run_ab("data", "--parent", str(ROOT), "--pairs", "2", timeout=120)
    assert code == 0, err
    assert "digests identical: 0 at set-up, 7 per run in each of 2 pairs" in out
    assert out.count("ratio") == 2 + 9  # two pairs; total and eight parts


def test_ab_without_package_is_one_usage_line(tmp_path):
    code, out, err = run_ab("synth", "--parent", str(tmp_path), "--pairs", "2", timeout=30)
    assert code == 2
    assert err.count("\n") == 1 and str(tmp_path) in err and out == ""


@pytest.mark.parametrize("side", ["--parent", "--change"])
def test_ab_worker_that_fails_ends_the_run(tmp_path, side):
    """A checkout whose package does not import: its worker exits at once,
    and the script stops the other side's worker and exits 1."""
    (tmp_path / "src" / "orsched").mkdir(parents=True)
    (tmp_path / "src" / "orsched" / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    argv = ["--parent", str(ROOT), side, str(tmp_path)] if side == "--change" else [side, str(tmp_path)]
    code, _, err = run_ab("synth", *argv, "--pairs", "2", timeout=30)
    assert code == 1
    assert err.strip().splitlines()[-1].startswith(f"error: {side[2:]} worker exited with code 1")
