"""Replay, occupancy statistics, and method-comparison tests."""

import random
from dataclasses import replace

import pytest

from helpers import instance, reg, run_method_comparison, single_cell_instance

from orsched.core import Assignment, ObjectiveVector, Schedule
from orsched.evaluate import (
    EvaluateError,
    apply_method_durations,
    evaluate_schedule,
    format_report_table,
    normalize_method,
    replay,
)
from orsched.solve import SolveLimits, solve_heuristic


def sched(*assignments):
    return Schedule(tuple(assignments), ObjectiveVector(0, 0, 0, 0, 0, 0))


def report_at(*occupancies, capacity=360):
    """The report of a schedule with one registration per cell, each cell
    at the given occupancy percentage."""
    regs = [reg(f"r{i}", duration=1, actual=round(o / 100 * capacity)) for i, o in enumerate(occupancies)]
    inst = instance(regs, [(f"R{i}", "GEN", "S1", 0) for i in range(len(regs))], {"S1": capacity})
    return evaluate_schedule("VBA", sched(*(Assignment(r.id, 2, f"R{i}", 0, "S1") for i, r in enumerate(regs))), inst)


# -- replay ---------------------------------------------------------------------


def test_replay_computes_occupancy_percentage():
    inst = single_cell_instance([reg("a", 1, duration=300, actual=324)], capacity=360)
    t = replay(sched(Assignment("a", 1, "R1", 0, "S1")), inst)
    assert t.cells[0].occupancy_pct == pytest.approx(90.0)
    assert t.cells[0].planned_min == 300
    assert t.cells[0].actual_min == 324


def test_replay_overbooked_cell():
    inst = single_cell_instance([reg("a", 1, duration=350, actual=400)], capacity=360)
    t = replay(sched(Assignment("a", 1, "R1", 0, "S1")), inst)
    assert t.cells[0].occupancy_pct == pytest.approx(111.1, abs=0.1)


def test_replay_excludes_empty_cells():
    inst = instance(
        [reg("a", 1, duration=10, actual=12)],
        [("R1", "GEN", "S1", 0), ("R2", "GEN", "S1", 0)],
        {"S1": 100},
    )
    t = replay(sched(Assignment("a", 1, "R1", 0, "S1")), inst)
    assert len(t.cells) == 1


def test_replay_missing_actuals_lists_ids():
    inst = single_cell_instance([reg("a", 1, duration=10), reg("b", 2, duration=10, actual=9)], capacity=100)
    s = sched(Assignment("a", 1, "R1", 0, "S1"), Assignment("b", 2, "R1", 0, "S1"))
    with pytest.raises(EvaluateError, match="a"):
        replay(s, inst)


# -- report statistics ------------------------------------------------------------


def test_booking_counts_fixture():
    report = report_at(90, 111.1, 77.8)
    assert (report.underbooked, report.overbooked) == (1, 1)


def test_exact_boundaries_count_as_neither():
    report = report_at(100, 100, 80)
    assert (report.underbooked, report.overbooked) == (0, 0)


def test_single_cell_stats():
    report = report_at(90)
    assert (report.occ_mean, report.occ_std, report.occ_min, report.occ_max) == (90, 0, 90, 90)


def test_two_cell_population_std():
    report = report_at(80, 120)
    assert report.occ_mean == pytest.approx(100.0)
    assert report.occ_std == pytest.approx(20.0)
    assert (report.occ_min, report.occ_max) == (80, 120)


def test_equal_cells_zero_std():
    assert report_at(95, 95, 95).occ_std == 0


def test_empty_table_is_error():
    with pytest.raises(EvaluateError):
        report_at()


# -- method comparison -------------------------------------------------------------------


def week_instance():
    regs = [
        reg("a", 1, "GEN", duration=1, actual=60),
        reg("b", 2, "GEN", duration=1, actual=45),
        reg("c", 2, "GEN", duration=1, actual=50),
        reg("d", 3, "GEN", duration=1, actual=40),
        reg("e", 2, "ORT", duration=1, actual=55),
        reg("f", 3, "ORT", duration=1, actual=65),
    ]
    cells = [("R1", "GEN", "S1", 0), ("R1", "ORT", "S1", 1), ("R2", "GEN", "S1", 0), ("R2", "ORT", "S1", 1)]
    return instance(regs, cells, {"S1": 120})


def full_estimates(inst, jitter=0):
    rng = random.Random(3)
    predicted = [r.actual_duration_min + (rng.randint(-jitter, jitter) if jitter else 0) for r in inst.registrations]
    dep = [50.0 for r in inst.registrations]
    surg = [52.0 for r in inst.registrations]
    return {"predicted": predicted, "department": dep, "procedure_type": surg}


def test_method_name_normalization():
    assert normalize_method("vba") == "VBA"
    assert normalize_method("Conf.") == "Conf"
    with pytest.raises(EvaluateError):
        normalize_method("oracle")


def test_vba_uses_actual_durations():
    inst = week_instance()
    est = {}
    vba_inst = apply_method_durations(inst, "VBA", est)
    for r in vba_inst.registrations:
        assert r.duration_min == r.actual_duration_min


def test_pred_uses_predictions_and_attaches_confidence():
    inst = week_instance()
    est = full_estimates(inst, jitter=20)
    pred_inst = apply_method_durations(inst, "Pred", est)
    for r, predicted in zip(pred_inst.registrations, est["predicted"]):
        assert r.duration_min == max(1, round(predicted))
        assert r.confidence is not None


def test_methods_without_predictions_keep_own_confidence():
    """Only Conf and Pred plan with predictions, so only they get the
    predictions' confidence; VBA, Dep and Surg keep the registration's."""
    base = week_instance()
    regs = tuple(r._replace(confidence=3 if i % 2 else None) for i, r in enumerate(base.registrations))
    inst = replace(base, registrations=regs)
    est = full_estimates(inst, jitter=20)
    for method in ("VBA", "Dep", "Surg"):
        method_inst = apply_method_durations(inst, method, est)
        assert [r.confidence for r in method_inst.registrations] == [r.confidence for r in regs], method


def test_vba_replay_never_overbooks():
    inst = week_instance()
    reports = run_method_comparison(
        inst, full_estimates(inst), methods=["VBA"], limits=SolveLimits(time_budget_s=5, max_restarts=2)
    )
    assert len(reports) == 1
    assert reports[0].method == "VBA"
    assert reports[0].overbooked == 0


def test_all_five_methods_produce_reports():
    inst = week_instance()
    reports = run_method_comparison(
        inst,
        full_estimates(inst, jitter=15),
        limits=SolveLimits(time_budget_s=5, max_restarts=2),
        solver="heuristic",
    )
    assert [r.method for r in reports] == ["VBA", "Conf", "Pred", "Dep", "Surg"]


def test_missing_estimate_is_error():
    inst = week_instance()
    with pytest.raises(EvaluateError, match="Pred"):
        run_method_comparison(inst, {}, methods=["Pred"])


def test_apply_method_durations_needs_one_estimate_per_registration():
    inst = week_instance()
    dep = full_estimates(inst)["department"]
    with pytest.raises(EvaluateError, match="Surg"):
        apply_method_durations(inst, "Surg", {"department": dep})
    for wrong in (dep[:-1], dep + [50.0]):
        with pytest.raises(EvaluateError, match="Dep"):
            apply_method_durations(inst, "Dep", {"department": wrong})


def test_report_generation_is_pure():
    inst = week_instance()
    est = full_estimates(inst, jitter=10)
    limits = SolveLimits(time_budget_s=5, max_restarts=3, seed=5)
    a = run_method_comparison(inst, est, limits=limits, solver="heuristic")
    b = run_method_comparison(inst, est, limits=limits, solver="heuristic")
    assert a == b


def test_replayed_planned_load_respects_capacity():
    inst = week_instance()
    est = full_estimates(inst, jitter=25)
    for method in ("VBA", "Pred", "Dep"):
        m_inst = apply_method_durations(inst, method, est)
        s = solve_heuristic(m_inst, SolveLimits(time_budget_s=5, max_restarts=2), confidence_objective=False)
        t = replay(s, m_inst)
        for cell in t.cells:
            assert cell.planned_min <= cell.capacity_min


# -- report formatting -------------------------------------------------------------------


def test_report_table_shape():
    inst = week_instance()
    reports = run_method_comparison(
        inst, full_estimates(inst), methods=["VBA", "Pred"], limits=SolveLimits(time_budget_s=5, max_restarts=2)
    )
    text = format_report_table("bordighera", reports)
    lines = text.splitlines()
    assert lines[0] == "== bordighera =="
    assert "overbooking" in lines[1]
    assert lines[2].startswith("VBA")
    assert lines[3].startswith("Pred")
