"""The experiment scripts, run as a user runs them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from helpers import run_in_own_session

ROOT = Path(__file__).resolve().parent.parent


def run_ab(*argv, timeout):
    """``scripts/ab.py`` in a session of its own, which must hold no process
    once the script has exited."""
    return run_in_own_session([sys.executable, str(ROOT / "scripts" / "ab.py"), *argv], timeout)


def _lookup(module_name, attr):
    value = sys.modules[module_name]
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_traced_benchmark_wraps_names_that_exist(monkeypatch):
    """``weekbench/spans.py`` swaps each name in ``WRAPPED`` for a tracing
    wrapper and back, so a refactor that drops or renames one of them fails
    the traced benchmark: every name must resolve, be wrapped, and be put
    back by ``uninstall`` wherever the package holds it."""
    spec = importlib.util.spec_from_file_location("weekbench_spans", ROOT / "weekbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    importlib.import_module("orsched.cli")  # imports every module the tracer patches
    names = [(module_name, attr) for module_name, attr, _, _ in spans.WRAPPED]
    originals = [_lookup(*name) for name in names]  # an AttributeError names the dropped one
    assert all(map(callable, originals))
    # every binding of the package's modules and of the classes whose methods are wrapped
    spaces = [m for n, m in sys.modules.items() if n.startswith("orsched") and m is not None]
    spaces += [_lookup(module_name, attr.rsplit(".", 1)[0]) for module_name, attr in names if "." in attr]
    before = [dict(vars(space)) for space in spaces]

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [_lookup(*name) for name in names]
    finally:
        tracer.uninstall()
    assert [name for name, a, b in zip(names, originals, wrapped) if a is b] == []
    for space, bindings in zip(spaces, before):
        assert vars(space).keys() == bindings.keys(), space
        assert [k for k, v in bindings.items() if vars(space)[k] is not v] == [], space


def test_ab_synth_against_this_checkout_is_identical():
    code, out, err = run_ab("synth", "--parent", str(ROOT), "--pairs", "2", timeout=15)
    assert code == 0, err
    assert "digests identical: 0 at set-up, 12 per run in each of 2 pairs" in out
    assert out.count("ratio") == 2 + 3  # two pairs; total, bordighera and imperia


def test_ab_data_against_this_checkout_is_identical():
    code, out, err = run_ab("data", "--parent", str(ROOT), "--pairs", "2", timeout=120)
    assert code == 0, err
    assert "digests identical: 0 at set-up, 8 per run in each of 2 pairs" in out
    assert out.count("ratio") == 2 + 10  # two pairs; total and nine parts


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
