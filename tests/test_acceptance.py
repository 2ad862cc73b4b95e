"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) after its assertions hold at the stated tolerance.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_week, random_instance, records_table, run_method_comparison, scaled_confidences
from oracle import brute_force_best, brute_force_optimal_patterns, compare_lex, schedule_pattern

from orsched.core import ObjectiveVector
from orsched.evaluate import EvaluateError
from orsched.ingest import (
    HOSPITAL_SHAPES,
    SyntheticConfig,
    generate_synthetic_dataset,
    generate_week,
    iqr_filter,
    preprocess,
)
from orsched.predict import (
    ModelSpec,
    baseline_mean_estimator,
    confidence_level,
    encode_features,
    fit,
    predict,
    regression_metrics,
    stratified_split,
)
from orsched.solve import (
    InfeasibleInstanceError,
    SolveLimits,
    is_feasible,
    solve_exact,
    solve_heuristic,
)


def passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.mark.slow
def test_criterion_1_solver_oracle_equivalence():
    """Branch-and-bound equals brute-force enumeration on 200 random instances."""
    rng = random.Random(20260810)
    start = time.monotonic()
    agreements = infeasible = 0
    for _ in range(200):
        inst = random_instance(rng, max_regs=10, max_cells=4)
        expected = brute_force_best(inst)
        if expected is None:
            with pytest.raises(InfeasibleInstanceError):
                solve_exact(inst, SolveLimits(time_budget_s=30.0))
            infeasible += 1
        else:
            got = tuple(solve_exact(inst, SolveLimits(time_budget_s=30.0)).objective)
            assert got == expected, f"objective mismatch: {got} vs {expected}"
            agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle-equivalence suite took {elapsed:.1f}s"
    passed(1, f"{agreements} optima + {infeasible} infeasible agreed with brute force in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_heuristic_feasibility_suite():
    """1,000 heuristic runs, zero hard-constraint violations."""
    rng = random.Random(77)
    limits = SolveLimits(time_budget_s=1.0, max_restarts=3, seed=9)
    produced = errored = 0
    for i in range(1000):
        inst = random_instance(
            rng,
            max_regs=rng.choice([6, 10, 14, 20]),
            max_cells=rng.choice([3, 5, 8]),
            with_confidence=(i % 2 == 0),
        )
        try:
            schedule = solve_heuristic(inst, limits, confidence_objective=(i % 2 == 0))
        except InfeasibleInstanceError:
            errored += 1
            continue
        violations = is_feasible(schedule, inst)
        assert violations == [], f"run {i}: {[v.code for v in violations]}"
        produced += 1
    assert produced >= 600  # the suite must mostly exercise real schedules
    passed(2, f"{produced} feasible schedules, {errored} honest infeasibility errors, 0 violations")


def test_criterion_3_vba_overbooking_zero(tmp_path):
    """Scheduling with actual durations never overbooks at replay."""
    rng = random.Random(5150)
    limits = SolveLimits(time_budget_s=2.0, max_restarts=2, seed=1)
    checked = 0
    for i in range(40):
        inst = random_instance(rng, max_regs=12, max_cells=5)
        regs = tuple(
            type(r)(r.id, r.priority, r.specialty, r.duration_min, r.duration_min, r.confidence)
            for r in inst.registrations
        )
        inst = type(inst)(regs, inst.mss, inst.shifts, inst.planning_days, inst.emergency_or_id)
        try:
            reports = run_method_comparison(inst, {}, methods=["VBA"], limits=limits, solver="heuristic")
        except InfeasibleInstanceError:
            continue
        except EvaluateError:
            continue  # degenerate draw: nothing assignable, no used cells to rate
        assert reports[0].overbooked == 0
        checked += 1
    for shape in HOSPITAL_SHAPES.values():
        cfg = SyntheticConfig(n_rows=400, world_seed=3)
        _, regs, mss, shifts = generate_week(cfg, seed=3, shape=shape)
        inst = load_week(tmp_path, regs, mss, shifts)
        reports = run_method_comparison(
            inst, {}, methods=["VBA"], limits=SolveLimits(time_budget_s=5.0, max_restarts=3), solver="heuristic"
        )
        assert reports[0].overbooked == 0
        checked += 1
    passed(3, f"overbooked = 0 on all {checked} VBA replays")


def test_criterion_4_metric_fixtures():
    report = regression_metrics([10, 20, 30], [12, 18, 33])
    assert abs(report.mae - 2.333333) < 1e-6
    assert abs(report.rmse - 2.380476) < 1e-6
    assert abs(report.r2 - 0.915) < 1e-6
    passed(4, f"MAE={report.mae:.6f} RMSE={report.rmse:.6f} R2={report.r2:.6f}")


def test_criterion_5_confidence_boundaries():
    inputs = [0, 9.999, 10, 24.999, 25, 49.999, 50, 400]
    expected = [1, 1, 2, 2, 3, 3, 4, 4]
    got = [confidence_level(v) for v in inputs]
    assert got == expected
    passed(5, f"APE {inputs} -> levels {got}")


@pytest.mark.slow
def test_criterion_6_predictor_beats_baselines():
    """Boosted trees with the reference configuration beat both historical
    means by at least 15% held-out MAE on a 5,000-row synthetic dataset."""
    start = time.monotonic()
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=5000, noise=0.25), seed=606)
    clean, _ = preprocess(records, seed=606)
    X, y, _ = encode_features(clean)
    train_idx, test_idx = stratified_split(y, test_fraction=0.2, n_bins=10, seed=606)
    model = fit(
        ModelSpec("boosted_trees", {"n_estimators": 400, "learning_rate": 0.1, "max_depth": 5}),
        X[train_idx],
        y[train_idx],
        seed=606,
    )
    model_mae = regression_metrics(y[test_idx], predict(model, X[test_idx])).mae

    margins = {}
    for key in ("department", "procedure_type"):
        est = baseline_mean_estimator(clean.records, key, train_idx.tolist())
        base_mae = regression_metrics(y[test_idx], est.estimates(clean.records, test_idx.tolist())).mae
        margins[key] = (base_mae - model_mae) / base_mae
        assert margins[key] >= 0.15, f"{key}: margin {margins[key]:.1%}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    passed(
        6,
        f"model MAE beats department mean by {margins['department']:.1%} and "
        f"procedure mean by {margins['procedure_type']:.1%} in {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_confidence_lowers_overbooking_in_aggregate(tmp_path):
    """Across 30 seeded weeks with heterogeneous confidence, Conf's total
    replayed overbooking does not exceed Pred's, and its confidence spread
    is at least as small in most weeks."""
    start = time.monotonic()
    conf_total = pred_total = 0
    spread_better = 0
    n_seeds = 30
    for seed in range(n_seeds):
        cfg = SyntheticConfig(n_rows=1500, noise=0.25, world_seed=seed)
        records = generate_synthetic_dataset(cfg, seed=seed * 7 + 1)
        clean, _ = preprocess(records, seed=seed)
        X, y, encoder = encode_features(clean)
        model = fit(ModelSpec("boosted_trees", {"n_estimators": 200, "max_depth": 4}), X, y, seed=seed)

        week, regs, mss, shifts = generate_week(
            cfg, seed=seed, shape=HOSPITAL_SHAPES["bordighera"], fill_ratio=0.95
        )
        inst = load_week(tmp_path, regs, mss, shifts)
        yhat = predict(model, encoder.transform(week))
        estimates = {"predicted": [float(p) for p in yhat]}
        limits = SolveLimits(time_budget_s=10.0, max_restarts=8, seed=seed)
        conf_rep, pred_rep = run_method_comparison(
            inst, estimates, methods=["Conf", "Pred"], limits=limits, solver="heuristic"
        )
        conf_total += conf_rep.overbooked
        pred_total += pred_rep.overbooked
        spread_better += conf_rep.occ_std <= pred_rep.occ_std
    elapsed = time.monotonic() - start
    assert conf_total <= pred_total, f"Conf {conf_total} vs Pred {pred_total}"
    assert spread_better >= n_seeds // 2
    assert elapsed < 600.0
    passed(
        7,
        f"sum over {n_seeds} seeds: Conf overbooked {conf_total} <= Pred {pred_total}; "
        f"occupancy spread no worse in {spread_better}/{n_seeds} weeks ({elapsed:.0f}s)",
    )


def test_criterion_8_preprocessing_fixtures_and_idempotence():
    # IQR fixture
    assert iqr_filter([1, 2, 3, 4, 100]) == [0, 1, 2, 3]

    # exact linear duplicate dropped
    rng = np.random.default_rng(0)
    names = [f"f{i:02d}" for i in range(31)]
    records = []
    for _ in range(250):
        row = {name: float(rng.normal()) for name in names}
        row["f01"] = 3.0 * row["f00"]
        row["DURATA"] = int(rng.integers(10, 60))
        records.append(row)
    clean, _ = preprocess(records_table(records), seed=0)
    assert len(clean.kept_features) == 31 and "f01" not in clean.kept_features

    # well-separated singleton diagnoses split into two groups
    from orsched.ingest import CleanDataset, group_rare_diagnoses

    rows = [
        {"PROGRESSIVO": f"r{i}", "REPARTO": "ORTO", "DIAGNOSI1": f"DX{i}", "DURATA": d, "ETA": 50}
        for i, d in enumerate([10, 11, 12, 90, 91, 92])
    ]
    ds = CleanDataset(records_table(rows), ["PROGRESSIVO", "REPARTO", "DIAGNOSI1", "DURATA", "ETA"])
    codes = group_rare_diagnoses(ds, max_clusters=2, seed=0).records.columns["DIAGNOSI1"]
    assert codes[0] == codes[1] == codes[2] != codes[3] and codes[3] == codes[4] == codes[5]

    # idempotence on the pipeline's own output
    synthetic = generate_synthetic_dataset(SyntheticConfig(n_rows=900), seed=17)
    once, _ = preprocess(synthetic, seed=17)
    twice, _ = preprocess(once.records, seed=17)
    assert len(twice.records) == len(once.records)
    assert twice.kept_features == once.kept_features
    passed(8, "IQR, correlation and rare-diagnosis fixtures exact; preprocess idempotent")


@pytest.mark.slow
def test_criterion_9_lexicographic_invariants():
    @settings(max_examples=300)
    @given(
        st.tuples(*[st.integers(0, 4)] * 6),
        st.tuples(*[st.integers(0, 4)] * 6),
        st.tuples(*[st.integers(0, 4)] * 6),
    )
    def total_order(ta, tb, tc):
        a, b, c = ObjectiveVector(*ta), ObjectiveVector(*tb), ObjectiveVector(*tc)
        assert compare_lex(a, b) == -compare_lex(b, a)  # antisymmetry
        if compare_lex(a, b) <= 0 and compare_lex(b, c) <= 0:
            assert compare_lex(a, c) <= 0  # transitivity
        if compare_lex(a, b) == 0:
            assert ta == tb  # equality is identity of components

    total_order()

    rng = random.Random(999)
    scale = 3
    checked = 0
    while checked < 50:
        inst = random_instance(rng, max_regs=7, max_cells=3)
        base_patterns = brute_force_optimal_patterns(inst, confidence_scale=1)
        if base_patterns is None:
            continue
        scaled_patterns = brute_force_optimal_patterns(inst, confidence_scale=scale)
        assert base_patterns == scaled_patterns, "optimal pattern set changed under scaling"

        s1 = solve_exact(inst, SolveLimits(time_budget_s=30.0))
        s3 = solve_exact(scaled_confidences(inst, scale), SolveLimits(time_budget_s=30.0))
        assert schedule_pattern(s1) in base_patterns
        assert schedule_pattern(s1) == schedule_pattern(s3)
        assert s3.objective.max_cell_confidence == scale * s1.objective.max_cell_confidence
        assert s3.objective.confidence_spread == scale * s1.objective.confidence_spread
        checked += 1
    passed(9, f"compare_lex total order verified; scaling invariance on {checked} instances")
