"""Solver tests: feasibility, objective semantics, exact and heuristic search."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import instance, random_instance, reg, scaled_confidences, single_cell_instance
from oracle import (
    brute_force_best,
    compare_lex,
    objective_vector,
    reference_compat,
    reference_greedy,
    reference_improve_once,
    schedule_pattern,
)

from orsched.core import Assignment, ObjectiveVector, Schedule, validate_instance
from orsched.solve import (
    IncompleteSearchError,
    InfeasibleInstanceError,
    SolveLimits,
    _Heuristic,
    _HeurState,
    _Model,
    is_feasible,
    read_schedule_csv,
    solve_exact,
    solve_heuristic,
    write_schedule_csv,
)

FAST = SolveLimits(time_budget_s=10.0)


def sched(*assignments) -> Schedule:
    return Schedule(tuple(assignments), ObjectiveVector(0, 0, 0, 0, 0, 0))


def asg(rid, prio, or_id="R1", day=0, shift="S1"):
    return Assignment(rid, prio, or_id, day, shift)


# -- is_feasible ------------------------------------------------------------


def test_capacity_within_limit_is_feasible():
    inst = single_cell_instance([reg("a", 1, duration=4), reg("b", 2, duration=4)], capacity=10)
    s = sched(asg("a", 1), asg("b", 2))
    assert is_feasible(s, inst) == []


def test_capacity_overflow_is_violation():
    inst = single_cell_instance([reg("a", 1, duration=6), reg("b", 2, duration=6)], capacity=10)
    s = sched(asg("a", 1), asg("b", 2))
    assert any(v.code == "capacity_exceeded" for v in is_feasible(s, inst))


def test_unassigned_p1_is_violation():
    inst = single_cell_instance([reg("a", 1, duration=4)], capacity=10)
    assert any(v.code == "p1_unassigned" for v in is_feasible(sched(), inst))


def test_specialty_mismatch_and_double_assignment_flagged():
    inst = instance(
        [reg("a", 2, specialty="ORT", duration=3)],
        [("R1", "GEN", "S1", 0), ("R2", "ORT", "S2", 0)],
        {"S1": 10, "S2": 10},
    )
    wrong_cell = sched(asg("a", 2, or_id="R1"))
    assert any(v.code == "specialty_mismatch" for v in is_feasible(wrong_cell, inst))
    doubled = sched(asg("a", 2, or_id="R2", shift="S2"), asg("a", 2, or_id="R2", shift="S2"))
    codes = {v.code for v in is_feasible(doubled, inst)}
    assert "multiple_assignment" in codes


def test_emergency_or_capped_at_one_patient():
    inst = instance(
        [reg("a", 2, duration=2), reg("b", 2, duration=2)],
        [("RA", "GEN", "S1", 0), ("RA", "GEN", "S1", 1)],
        {"S1": 10},
        emergency_or_id="RA",
    )
    s = sched(asg("a", 2, or_id="RA", day=0), asg("b", 2, or_id="RA", day=1))
    assert any(v.code == "emergency_or_overused" for v in is_feasible(s, inst))


# -- objective_vector ---------------------------------------------------------


def test_empty_schedule_counts_unassigned_by_priority():
    inst = single_cell_instance([reg("a", 2), reg("b", 2), reg("c", 2)], capacity=30)
    vec = objective_vector(sched(), inst)
    assert tuple(vec) == (0, 3, 0, 0, 0, 0)


def test_empty_cell_participates_in_spread():
    # one cell holds confidences {1,2}, the other is empty: max 3, min 0
    inst = instance(
        [reg("a", 2, duration=2, confidence=1), reg("b", 2, duration=2, confidence=2)],
        [("R1", "GEN", "S1", 0), ("R2", "GEN", "S2", 0)],
        {"S1": 10, "S2": 10},
    )
    s = sched(asg("a", 2, or_id="R1"), asg("b", 2, or_id="R1"))
    vec = objective_vector(s, inst)
    assert vec.max_cell_confidence == 3
    assert vec.confidence_spread == 3


def test_equal_cell_sums_have_zero_spread():
    inst = instance(
        [reg("a", 2, duration=2, confidence=2), reg("b", 2, duration=2, confidence=2)],
        [("R1", "GEN", "S1", 0), ("R2", "GEN", "S2", 0)],
        {"S1": 10, "S2": 10},
    )
    s = sched(asg("a", 2, or_id="R1"), asg("b", 2, or_id="R2", shift="S2"))
    vec = objective_vector(s, inst)
    assert vec.max_cell_confidence == 2
    assert vec.confidence_spread == 0


def test_registrations_without_confidence_contribute_zero():
    inst = single_cell_instance([reg("a", 2, duration=2)], capacity=10)
    s = sched(asg("a", 2))
    assert objective_vector(s, inst).max_cell_confidence == 0


# -- compare_lex ---------------------------------------------------------------


def vec(*t):
    return ObjectiveVector(*t)


def test_higher_tier_dominates():
    a = vec(0, 1, 0, 0, 0, 0)
    b = vec(0, 0, 9, 9, 99, 99)
    assert compare_lex(a, b) == 1
    assert compare_lex(b, a) == -1


def test_equal_vectors_compare_equal():
    assert compare_lex(vec(0, 1, 2, 3, 4, 4), vec(0, 1, 2, 3, 4, 4)) == 0


def test_confidence_tier_breaks_ties():
    assert compare_lex(vec(0, 0, 0, 0, 3, 0), vec(0, 0, 0, 0, 5, 0)) == -1


@given(
    st.tuples(*[st.integers(0, 3)] * 6),
    st.tuples(*[st.integers(0, 3)] * 6),
    st.tuples(*[st.integers(0, 3)] * 6),
)
def test_compare_lex_is_total_order(ta, tb, tc):
    a, b, c = vec(*ta), vec(*tb), vec(*tc)
    assert compare_lex(a, b) == -compare_lex(b, a)
    if compare_lex(a, b) <= 0 and compare_lex(b, c) <= 0:
        assert compare_lex(a, c) <= 0
    if compare_lex(a, b) == 0:
        assert ta == tb


# -- solve_exact -----------------------------------------------------------------


def test_single_cell_priority_packing():
    inst = single_cell_instance(
        [reg("r1", 1, duration=4), reg("r2", 2, duration=4), reg("r3", 2, duration=4)],
        capacity=10,
    )
    s = solve_exact(inst, FAST)
    assert "r1" in {a.registration_id for a in s.assignments}
    assert tuple(s.objective)[:4] == (0, 1, 0, 0)
    assert brute_force_best(inst)[:4] == (0, 1, 0, 0)


def test_confidence_steers_choice_of_companion():
    inst = single_cell_instance(
        [
            reg("r1", 1, duration=4, confidence=1),
            reg("r2", 2, duration=4, confidence=2),
            reg("r3", 2, duration=4, confidence=4),
        ],
        capacity=10,
    )
    s = solve_exact(inst, FAST)
    assert {a.registration_id for a in s.assignments} == {"r1", "r2"}
    assert s.objective.max_cell_confidence == 3
    assert brute_force_best(inst) == tuple(s.objective)


def test_oversized_p1_is_infeasible():
    inst = single_cell_instance([reg("r1", 1, duration=20)], capacity=10)
    with pytest.raises(InfeasibleInstanceError) as err:
        solve_exact(inst, FAST)
    assert err.value.p1_ids == ["r1"]


def test_infeasible_joint_p1_demand():
    inst = single_cell_instance([reg("r1", 1, duration=6), reg("r2", 1, duration=6)], capacity=10)
    with pytest.raises(InfeasibleInstanceError):
        solve_exact(inst, FAST)
    assert brute_force_best(inst) is None


def test_random_instances_are_valid():
    """The solvers trust their input (``load_instance`` validates a week), so
    every instance ``random_instance`` draws, at the seeds and sizes these
    tests and the acceptance tests use, must be valid."""
    seeds = (3, 5, 7, 11, 17, 42, 77, 99, 123, 515, 999, 1107, 2024, 5150, 20260810)
    sizes = itertools.product((5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 28), (2, 3, 4, 5, 6, 8))
    for (max_regs, max_cells), seed in itertools.product(sizes, seeds):
        rng = random.Random(seed)
        for _ in range(10):
            inst = random_instance(rng, max_regs, max_cells, with_confidence=rng.random() < 0.5)
            assert validate_instance(inst) == [], (seed, max_regs, max_cells)


def test_exact_result_invariant_under_registration_permutation():
    rng = random.Random(7)
    for _ in range(15):
        inst = random_instance(rng, max_regs=6, max_cells=3)
        regs = list(inst.registrations)
        rng.shuffle(regs)
        shuffled = type(inst)(
            registrations=tuple(regs),
            mss=inst.mss,
            shifts=inst.shifts,
            planning_days=inst.planning_days,
            emergency_or_id=inst.emergency_or_id,
        )
        try:
            a = solve_exact(inst, FAST)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                solve_exact(shuffled, FAST)
            continue
        b = solve_exact(shuffled, FAST)
        assert a == b


def test_exact_matches_oracle_on_random_batch():
    rng = random.Random(123)
    for _ in range(40):
        inst = random_instance(rng, max_regs=7, max_cells=3)
        expected = brute_force_best(inst)
        if expected is None:
            with pytest.raises(InfeasibleInstanceError):
                solve_exact(inst, FAST)
        else:
            assert tuple(solve_exact(inst, FAST).objective) == expected


def test_schedule_objective_is_self_consistent():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, max_regs=6, max_cells=3)
        try:
            s = solve_exact(inst, FAST)
        except InfeasibleInstanceError:
            continue
        assert is_feasible(s, inst) == []
        assert objective_vector(s, inst) == s.objective


def test_every_returned_objective_matches_recomputation():
    """Each solver reports the objective of the schedule it returns: exact
    and heuristic, with the confidence tiers active or not (when inactive,
    the tie-break alone decides their values), and the incumbent of an
    exact search cut short by its node limit."""
    rng = random.Random(77)
    kinds = {"exact": 0, "heuristic": 0, "incumbent": 0}
    for case in range(300):
        inst = random_instance(rng, max_regs=8, max_cells=4, p1_weight=0.1)
        cut = SolveLimits(time_budget_s=10.0, node_limit=len(inst.registrations) + 1 + case % 30)
        for confidence in (True, False):
            results = []
            for kind, run in (
                ("exact", lambda: solve_exact(inst, FAST, confidence_objective=confidence)),
                ("heuristic", lambda: solve_heuristic(inst, H_FAST, confidence_objective=confidence)),
                ("exact", lambda: solve_exact(inst, cut, confidence_objective=confidence)),
            ):
                try:
                    results.append((kind, run()))
                except IncompleteSearchError as err:
                    if err.incumbent is not None:
                        results.append(("incumbent", err.incumbent))
                except InfeasibleInstanceError:
                    pass
            for kind, s in results:
                assert objective_vector(s, inst) == s.objective, (case, kind, confidence)
                kinds[kind] += 1
    assert min(kinds.values()) >= 100, kinds


def test_adding_assignable_p2_never_improves_optimum():
    # holds for confidence-free instances; an added registration can otherwise
    # still balance the confidence spread
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        inst = random_instance(rng, max_regs=5, max_cells=3, with_confidence=False)
        try:
            base = solve_exact(inst, FAST)
        except InfeasibleInstanceError:
            continue
        specialty = inst.mss[0].specialty
        extra = reg("zz_extra", 2, specialty=specialty, duration=rng.randint(1, 6))
        bigger = type(inst)(
            registrations=inst.registrations + (extra,),
            mss=inst.mss,
            shifts=inst.shifts,
            planning_days=inst.planning_days,
            emergency_or_id=inst.emergency_or_id,
        )
        grown = solve_exact(bigger, FAST)
        assert compare_lex(grown.objective, base.objective) >= 0
        checked += 1


def test_confidence_scaling_preserves_optimal_pattern():
    rng = random.Random(42)
    checked = 0
    while checked < 10:
        inst = random_instance(rng, max_regs=6, max_cells=3)
        try:
            s1 = solve_exact(inst, FAST)
        except InfeasibleInstanceError:
            continue
        s3 = solve_exact(scaled_confidences(inst, 3), FAST)
        assert schedule_pattern(s1) == schedule_pattern(s3)
        assert s3.objective.max_cell_confidence == 3 * s1.objective.max_cell_confidence
        assert s3.objective.confidence_spread == 3 * s1.objective.confidence_spread
        checked += 1


def test_node_limit_yields_incomplete_search_with_incumbent():
    rng = random.Random(3)
    inst = random_instance(rng, max_regs=9, max_cells=4)
    with pytest.raises(IncompleteSearchError) as err:
        solve_exact(inst, SolveLimits(time_budget_s=10.0, node_limit=3))
    # a node limit of 3 cannot even reach the first leaf here
    assert err.value.incumbent is None or is_feasible(err.value.incumbent, inst) == []


# -- solve_heuristic -----------------------------------------------------------


H_FAST = SolveLimits(time_budget_s=5.0, max_restarts=8, seed=0)


def test_zero_registrations_give_empty_schedule():
    inst = instance([], [("R1", "GEN", "S1", 0)], {"S1": 10})
    s = solve_heuristic(inst, H_FAST)
    assert s.assignments == ()
    assert tuple(s.objective) == (0, 0, 0, 0, 0, 0)


def test_perfect_packing_of_all_p1():
    # 2 cells of 10, four p1 registrations sized to fill both exactly
    inst = instance(
        [reg("a", 1, duration=6), reg("b", 1, duration=4), reg("c", 1, duration=7), reg("d", 1, duration=3)],
        [("R1", "GEN", "S1", 0), ("R2", "GEN", "S2", 0)],
        {"S1": 10, "S2": 10},
    )
    s = solve_heuristic(inst, H_FAST)
    assert {a.registration_id for a in s.assignments} == {"a", "b", "c", "d"}
    assert is_feasible(s, inst) == []


def test_heuristic_never_beats_exact_and_often_matches():
    rng = random.Random(99)
    total = matched = 0
    for _ in range(60):
        inst = random_instance(rng, max_regs=8, max_cells=4)
        try:
            best = solve_exact(inst, FAST)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                solve_heuristic(inst, H_FAST)
            continue
        h = solve_heuristic(inst, H_FAST)
        assert is_feasible(h, inst) == []
        assert compare_lex(h.objective, best.objective) >= 0
        total += 1
        matched += h.objective == best.objective
    assert matched / total >= 0.8


def test_heuristic_deterministic_with_bounded_restarts():
    rng = random.Random(17)
    inst = random_instance(rng, max_regs=9, max_cells=4)
    limits = SolveLimits(time_budget_s=5.0, max_restarts=6, seed=21)
    try:
        a = solve_heuristic(inst, limits)
        b = solve_heuristic(inst, limits)
    except InfeasibleInstanceError:
        return
    assert a == b


def _replayed(model, choice, confidence_active):
    """A fresh heuristic state with ``choice`` placed registration by registration."""
    state = _HeurState(model, confidence_active)
    for ri, ci in enumerate(choice):
        if ci is not None:
            state.place(ri, ci)
    return state


def _assert_state_matches_choice(model, state):
    n_cells = len(model.cells)
    loads, sums, cell_regs = [0] * n_cells, [0] * n_cells, [set() for _ in range(n_cells)]
    unassigned, em_used = [0, 0, 0, 0], 0
    for ri, ci in enumerate(state.choice):
        if ci is None:
            unassigned[model.prio[ri] - 1] += 1
            continue
        loads[ci] += model.dur[ri]
        sums[ci] += model.conf[ri]
        cell_regs[ci].add(ri)
        em_used += model.cells[ci].emergency
    assert state.loads == loads
    assert state.sums == sums
    assert state.unassigned == unassigned
    assert state.em_used == em_used
    assert state.cell_regs == cell_regs


def _random_fill(model, confidence_active, rng):
    """A state far from a local optimum that keeps the capacity, specialty
    and emergency rules: registrations in random order, most of them placed
    in a random cell that takes them."""
    state = _HeurState(model, confidence_active)
    order = list(range(len(model.regs)))
    rng.shuffle(order)
    for ri in order:
        cells = [ci for ci in model.compat[ri] if state.can_place(ri, ci)]
        if cells and rng.random() < 0.8:
            state.place(ri, rng.choice(cells))
    return state


def test_local_search_moves_match_trial_and_undo_reference():
    """From the same start, the delta-evaluated pass accepts the same move
    sequence as the trial-and-undo reference, and its incremental state
    always equals a recomputation from the assignment. Starts are greedy
    states, as the solver uses, and random fills, which need many more moves."""
    rng = random.Random(2024)
    moves = 0
    for case in range(320):
        base = random_instance(rng, max_regs=rng.choice((8, 16, 28)), max_cells=rng.choice((3, 6, 8)))
        emergency_or = base.mss[rng.randrange(len(base.mss))].or_id
        for emergency in (None, emergency_or):
            inst = dataclasses.replace(base, emergency_or_id=emergency)
            model = _Model(inst)
            for confidence_active in (True, False):
                heuristic = _Heuristic(model, H_FAST, confidence_active)
                starts = [_random_fill(model, confidence_active, rng)]
                try:
                    starts.append(heuristic._greedy(random.Random(case) if case % 2 else None))
                except InfeasibleInstanceError:
                    pass
                for state in starts:
                    reference = _replayed(model, state.choice, confidence_active)
                    while True:
                        moved = heuristic._improve_once(state)
                        assert moved == reference_improve_once(model, reference, confidence_active)
                        assert state.choice == reference.choice
                        _assert_state_matches_choice(model, state)
                        if not moved:
                            break
                        moves += 1
    assert moves >= 2000


def test_greedy_matches_can_place_reference():
    """The greedy construction, with its inline capacity and emergency
    checks over the per-specialty cell lists, makes the choices of the
    reference over ``can_place`` and a scan of every cell, and ``_Model``'s
    lists and sets equal that scan. Every case has registrations of a
    specialty no cell has, and runs with and without an emergency OR, with
    the canonical order and a seeded one."""
    rng = random.Random(1107)
    built = raised = emergency_used = 0
    for case in range(320):
        base = random_instance(rng, max_regs=rng.choice((8, 16, 28)), max_cells=rng.choice((3, 6, 8)))
        absent = [
            reg(f"u{i}", priority=rng.randint(2, 4), specialty="URO", duration=rng.randint(1, 8), confidence=rng.randint(1, 4))
            for i in range(rng.randint(1, 3))
        ]
        base = dataclasses.replace(base, registrations=base.registrations + tuple(absent))
        emergency_or = base.mss[rng.randrange(len(base.mss))].or_id
        for emergency in (None, emergency_or):
            model = _Model(dataclasses.replace(base, emergency_or_id=emergency))
            scan = reference_compat(model)
            assert model.compat == scan
            assert model.compat_sets == [set(cells) for cells in scan]
            for seed in (None, case):
                try:
                    state = _Heuristic(model, H_FAST, True)._greedy(None if seed is None else random.Random(seed))
                except InfeasibleInstanceError:
                    state = None
                want = reference_greedy(model, _HeurState(model, True), None if seed is None else random.Random(seed))
                if want is None:
                    assert state is None
                    raised += 1
                    continue
                assert state.choice == want.choice
                _assert_state_matches_choice(model, state)
                built += 1
                emergency_used += state.em_used
    assert built >= 800 and raised >= 100 and emergency_used >= 200


def test_heuristic_returns_least_restart_in_index_order():
    """At each restart cap from 1 to 5, the schedule is that of the first
    restart, in index order, with the least (active tiers, tie key), each
    restart recomputed on its own. A seeded restart whose greedy fails is
    left out and the solve goes on; only a failed canonical restart raises."""
    rng = random.Random(515)
    ties = later = skipped = 0
    for case in range(500):
        inst = random_instance(rng, max_regs=rng.choice((6, 12, 20)), max_cells=rng.choice((2, 4, 6)))
        for confidence_active in (True, False):
            model = _Model(inst)
            limits = SolveLimits(time_budget_s=60.0, seed=case)
            heuristic = _Heuristic(model, limits, confidence_active)
            seed_rng, restarts = random.Random(case), []
            for index in range(5):
                seed = seed_rng.getrandbits(63) if index else 0  # drawn whether or not the restart fails
                try:
                    restarts.append(heuristic._one_restart(index, seed))
                except InfeasibleInstanceError:
                    restarts.append(None)
            if restarts[0] is None:
                for cap in range(1, 6):
                    cap_limits = dataclasses.replace(limits, max_restarts=cap)
                    with pytest.raises(InfeasibleInstanceError):
                        solve_heuristic(inst, cap_limits, confidence_objective=confidence_active)
                continue
            keys = [None if r is None else (r[0], model.tie_key(r[1])) for r in restarts]
            zero = not any(keys[0][0])  # never beaten, so no other restart runs
            for cap in range(1, 6):
                cap_limits = dataclasses.replace(limits, max_restarts=cap)
                got = solve_heuristic(inst, cap_limits, confidence_objective=confidence_active)
                ran = [0] if zero else [i for i in range(cap) if keys[i] is not None]
                best = min(ran, key=keys.__getitem__)
                _, choice, objective = restarts[best]
                assert got == model.build_schedule(choice, objective)
                later += best > 0
                skipped += len(ran) < cap and not zero
                ties += any(keys[i][0] == keys[best][0] and keys[i][1] != keys[best][1] for i in ran)
    assert ties >= 800 and later >= 400 and skipped >= 2


# -- file round trip ----------------------------------------------------------


def test_schedule_csv_round_trip(tmp_path):
    inst = single_cell_instance([reg("r1", 1, duration=4), reg("r2", 2, duration=4)], capacity=10)
    s = solve_exact(inst, FAST)
    path = tmp_path / "schedule.csv"
    write_schedule_csv(s, path)
    assert read_schedule_csv(path) == s.assignments
