"""Regressor family tests: trees, forests, boosting, nearest neighbours."""

import json

import numpy as np
import pytest
from oracle import reference_fit, reference_predict

from orsched.regressors import InvalidSpecError, ModelSpec, fit, predict, validate_spec


def grid_xy(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = 5.0 * (X[:, 0] > 0) + 2.0 * X[:, 1] + rng.normal(scale=0.1, size=n)
    return X, y


# -- spec validation ------------------------------------------------------------


def test_unknown_hyperparameter_rejected():
    with pytest.raises(InvalidSpecError, match="learning_rate"):
        fit(ModelSpec("tree", {"learning_rate": 0.1}), *grid_xy())


def test_unknown_family_rejected():
    with pytest.raises(InvalidSpecError):
        fit(ModelSpec("svr"), *grid_xy())


def test_bad_values_rejected_before_fitting():
    X, y = grid_xy()
    with pytest.raises(InvalidSpecError):
        fit(ModelSpec("knn", {"n_neighbors": 0}), X, y)
    with pytest.raises(InvalidSpecError):
        fit(ModelSpec("boosted_trees", {"learning_rate": 0.0}), X, y)
    with pytest.raises(InvalidSpecError):
        fit(ModelSpec("knn", {"weights": "triangular"}), X, y)


# -- shared behaviours --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("tree"),
        ModelSpec("forest", {"n_estimators": 5}),
        ModelSpec("boosted_trees", {"n_estimators": 20}),
        ModelSpec("knn", {"n_neighbors": 3}),
    ],
    ids=lambda s: s.family,
)
def test_constant_target_predicts_constant(spec):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = np.full(30, 42.0)
    model = fit(spec, X, y, seed=0)
    assert np.allclose(predict(model, X), 42.0)
    assert np.allclose(predict(model, rng.normal(size=(5, 4))), 42.0)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("tree", {"max_depth": 4}),
        ModelSpec("forest", {"n_estimators": 8}),
        ModelSpec("boosted_trees", {"n_estimators": 30}),
        ModelSpec("knn"),
    ],
    ids=lambda s: s.family,
)
def test_predictions_deterministic_bit_for_bit(spec):
    X, y = grid_xy(80, seed=3)
    a = predict(fit(spec, X, y, seed=7), X)
    b = predict(fit(spec, X, y, seed=7), X)
    assert (a == b).all()


def test_feature_count_mismatch_is_error():
    X, y = grid_xy()
    model = fit(ModelSpec("tree"), X, y)
    with pytest.raises(ValueError, match="feature columns"):
        predict(model, X[:, :2])


def _tied_dataset(rng, n):
    """Columns with many ties: integer codes, rounded and raw continuous
    values, and a constant; targets rounded so that gains tie too."""
    columns = [
        rng.integers(0, 4, n).astype(float),
        np.round(rng.normal(size=n), 1),
        np.full(n, 3.0),
        rng.integers(0, 12, n).astype(float),
        rng.normal(size=n),
    ]
    keep = rng.permutation(len(columns))[: rng.integers(1, len(columns) + 1)]
    X = np.stack([columns[j] for j in keep], axis=1)
    y = np.round(rng.normal(scale=10.0, size=n), int(rng.integers(0, 2)))
    return X, y


def test_presorted_growth_matches_per_node_argsort_reference():
    # every family x criterion x min_samples_leaf 1-4 x max_depth x
    # min_samples_split x max_features combination, each on several datasets
    rng = np.random.default_rng(2024)
    families = ("tree", "forest", "boosted_trees")
    for case in range(360):
        family = families[case % 3]
        params = {
            "criterion": ("squared_error", "friedman_mse")[case // 3 % 2],
            "min_samples_leaf": 1 + case // 6 % 4,
            "max_depth": (None, 0, 3)[case // 24 % 3],
            "min_samples_split": (2, 5)[case // 72 % 2],
        }
        if family == "forest":
            params.update(n_estimators=3, max_features=("sqrt", None)[case // 144 % 2])
        elif family == "boosted_trees":
            params.update(n_estimators=3, learning_rate=0.5)
        n = int(rng.integers(1, 2 * params["min_samples_leaf"])) if case % 10 == 0 else int(rng.integers(8, 60))
        X, y = _tied_dataset(rng, n)
        spec = ModelSpec(family, params)
        got = json.dumps(fit(spec, X, y, seed=case).structure)
        want = json.dumps(reference_fit(family, validate_spec(spec), X, y, seed=case))
        assert got == want, (case, family, params, n)


def _bordighera_like(rng, n):
    """Columns shaped like the bordighera training split: the same count of
    distinct values per column, mostly binary and a few with 16 to 133,
    some of them skewed; whole-minute durations, so sums and gains tie."""
    counts = (91, 2, 2, 4, 2, 2, 2, 2, 2, 75, 133, 2, 16, 32, 2, 3, 3)
    columns = []
    for k in counts:
        weights = rng.random(k) ** 3 + 0.01
        columns.append(rng.choice(k, size=n, p=weights / weights.sum()).astype(float))
    X = np.stack(columns, axis=1)
    y = np.round(40 + 25 * X[:, 1] + 0.8 * X[:, 0] - 10 * X[:, 3] + 0.3 * X[:, 10] + rng.gamma(2.0, 12.0, n))
    return X, y


@pytest.mark.parametrize("n, min_leaf", [(400, 1), (800, 3)])
def test_boosted_growth_matches_reference_at_benchmark_depth(n, min_leaf):
    # the differential tests above stop at 3 stages and 60 rows; the week
    # benchmark fits 400 stages of depth 5 on about 1,400 rows
    X, y = _bordighera_like(np.random.default_rng(n + min_leaf), n)
    spec = ModelSpec("boosted_trees", {"n_estimators": 60, "max_depth": 5, "min_samples_leaf": min_leaf})
    got = json.dumps(fit(spec, X, y).structure)
    assert got == json.dumps(reference_fit("boosted_trees", validate_spec(spec), X, y))


def _edge_dataset(rng, n):
    """Columns of the values where sorting, rank codes and midpoints are
    delicate: NaN, +-inf, +-0.0, adjacent floats, overflowing midpoints and
    constants."""
    up = np.nextafter(1.0, 2.0)
    pool = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, up, np.nextafter(1.0, 0.0), 5e-324, -5e-324, 1.7e308, -1.7e308]
    columns = [
        rng.choice(pool, n),
        rng.choice([0.0, -0.0, np.nan], n),
        rng.choice([1.0, up, np.nextafter(up, 2.0)], n),
        rng.choice([-np.inf, np.inf, 2.0], n),
        rng.choice([1.7e308, 1e308, -1.7e308], n),
        np.full(n, np.nan),
        np.full(n, -0.0),
        rng.integers(0, 3, n).astype(float),
    ]
    keep = rng.permutation(len(columns))[: rng.integers(1, len(columns) + 1)]
    X = np.stack([columns[j] for j in keep], axis=1)
    y = np.round(rng.normal(scale=10.0, size=n), int(rng.integers(0, 2)))
    return X, y


@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value encountered", "ignore:overflow encountered")
def test_packed_growth_matches_reference_on_edge_values():
    # a midpoint between -inf and inf is NaN and one past the largest value
    # can round up to it, so some splits send every row one way: max_depth
    # stays bounded, as the reference would recurse without end
    rng = np.random.default_rng(606)
    families = ("tree", "forest", "boosted_trees")
    for case in range(240):
        family = families[case % 3]
        params = {
            "criterion": ("squared_error", "friedman_mse")[case // 3 % 2],
            "min_samples_leaf": 1 + case // 6 % 3,
            "max_depth": (0, 2, 5)[case // 18 % 3],
        }
        if family == "forest":
            params.update(n_estimators=3, max_features=("sqrt", None)[case // 54 % 2])
        elif family == "boosted_trees":
            params.update(n_estimators=3, learning_rate=0.5)
        X, y = _edge_dataset(rng, int(rng.integers(2, 50)))
        spec = ModelSpec(family, params)
        model = fit(spec, X, y, seed=case)
        want = reference_fit(family, validate_spec(spec), X, y, seed=case)
        assert json.dumps(model.structure) == json.dumps(want), (case, family, params)
        assert predict(model, X).tobytes() == _reference_model_predict(model, X).tobytes(), (case, family, params)


def _reference_model_predict(model, X):
    """``predict`` by walking every tree node by node with ``reference_predict``."""
    if model.family == "tree":
        return reference_predict(model.structure["tree"], X)
    if model.family == "forest":
        return np.stack([reference_predict(t, X) for t in model.structure["trees"]]).mean(axis=0)
    out = np.full(X.shape[0], model.structure["base"], dtype=float)
    for tree in model.structure["trees"]:
        out += model.hyperparameters["learning_rate"] * reference_predict(tree, X)
    return out


def _depth(node):
    return 0 if "value" in node else 1 + max(_depth(node["left"]), _depth(node["right"]))


def test_blocked_prediction_matches_reference_walk():
    # ensembles wider than one block, root-leaf trees, zero boosting stages,
    # blocks of trees of unequal depth; 0, 1 and many rows, with NaN and
    # +-inf at predict time
    rng = np.random.default_rng(31)
    families = ("tree", "forest", "boosted_trees")
    unequal_block = False
    for case in range(90):
        family = families[case % 3]
        params = {"max_depth": (None, 0, 2, 5)[case // 3 % 4]}
        if family == "forest":
            params.update(n_estimators=(1, 7, 45)[case // 12 % 3], max_features=("sqrt", None)[case // 36 % 2])
        elif family == "boosted_trees":
            params.update(n_estimators=(0, 7, 45)[case // 12 % 3], learning_rate=0.3)
        X, y = _tied_dataset(rng, int(rng.integers(2, 60)))
        model = fit(ModelSpec(family, params), X, y, seed=case)
        trees = model.structure.get("trees", [model.structure.get("tree")])
        unequal_block |= len({_depth(t) for t in trees[:32]}) > 1
        for m in (0, 1, int(rng.integers(2, 600))):
            probe = X[rng.integers(0, len(X), m)]
            special = rng.random(probe.shape) < 0.1
            probe[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
            got = predict(model, probe)
            assert got.shape == (m,)
            assert got.tobytes() == _reference_model_predict(model, probe).tobytes(), (case, family, params, m)
    assert unequal_block


# -- tree -------------------------------------------------------------------------


def test_depth_zero_tree_predicts_train_mean():
    X, y = grid_xy()
    model = fit(ModelSpec("tree", {"max_depth": 0}), X, y)
    assert np.allclose(predict(model, X), y.mean())


def test_unbounded_tree_fits_training_data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    model = fit(ModelSpec("tree"), X, y)
    assert np.allclose(predict(model, X), y)


def test_friedman_criterion_still_finds_signal():
    X, y = grid_xy(200, seed=8)
    model = fit(ModelSpec("tree", {"criterion": "friedman_mse", "max_depth": 4}), X, y)
    residual = y - predict(model, X)
    assert np.abs(residual).mean() < np.abs(y - y.mean()).mean()


# -- forest --------------------------------------------------------------------------


def test_forest_prediction_is_mean_of_trees():
    X, y = grid_xy(60, seed=2)
    model = fit(ModelSpec("forest", {"n_estimators": 6}), X, y, seed=4)
    stacked = np.stack([reference_predict(t, X) for t in model.structure["trees"]])
    assert np.allclose(predict(model, X), stacked.mean(axis=0))


def test_forest_of_identical_trees_equals_one_tree():
    # constant data forces every bootstrap tree into the same stump
    X = np.ones((20, 2))
    y = np.full(20, 7.0)
    forest = fit(ModelSpec("forest", {"n_estimators": 4}), X, y, seed=0)
    tree = fit(ModelSpec("tree"), X, y, seed=0)
    probe = np.zeros((3, 2))
    assert np.allclose(predict(forest, probe), predict(tree, probe))


# -- boosted trees ----------------------------------------------------------------------


def test_zero_stages_predict_train_mean():
    X, y = grid_xy()
    model = fit(ModelSpec("boosted_trees", {"n_estimators": 0}), X, y)
    assert np.allclose(predict(model, X), y.mean())


def test_two_stages_unit_rate_fit_exactly():
    # depth 2 isolates each of the 4 points; residual fitting converges in one stage
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([5.0, 1.0, 8.0, 4.0])
    model = fit(
        ModelSpec("boosted_trees", {"n_estimators": 2, "learning_rate": 1.0, "max_depth": 2}),
        X,
        y,
    )
    assert np.allclose(predict(model, X), y)


def test_train_mae_non_increasing_in_stage_count():
    X, y = grid_xy(100, seed=9)
    maes = []
    for stages in (0, 5, 20, 60):
        model = fit(ModelSpec("boosted_trees", {"n_estimators": stages, "max_depth": 2}), X, y)
        maes.append(np.abs(y - predict(model, X)).mean())
    assert all(a >= b - 1e-12 for a, b in zip(maes, maes[1:]))


# -- knn -----------------------------------------------------------------------------------


def test_k1_returns_training_target():
    X, y = grid_xy(30, seed=6)
    for weights in ("uniform", "distance"):
        model = fit(ModelSpec("knn", {"n_neighbors": 1, "weights": weights}), X, y)
        assert np.allclose(predict(model, X), y)


def test_distance_weighting_pulls_toward_closer_point():
    X = np.array([[0.0], [10.0]])
    y = np.array([0.0, 100.0])
    model = fit(ModelSpec("knn", {"n_neighbors": 2, "weights": "distance"}), X, y)
    pred = predict(model, np.array([[1.0]]))[0]
    assert pred < 50.0  # uniform weighting would say exactly 50
    uniform = fit(ModelSpec("knn", {"n_neighbors": 2, "weights": "uniform"}), X, y)
    assert predict(uniform, np.array([[1.0]]))[0] == pytest.approx(50.0)


@pytest.mark.parametrize(
    "X",
    [
        [[-np.inf], [np.inf], [np.inf], [-np.inf]],  # the midpoint of -inf and inf is NaN
        [[1.0 + 2.0**-52], [1.0 + 2.0**-51], [1.0 + 2.0**-51], [1.0 + 2.0**-52]],  # it rounds up to the larger value
    ],
    ids=["nan_midpoint", "rounded_midpoint"],
)
@pytest.mark.parametrize("family", ["tree", "forest", "boosted_trees"])
def test_split_that_sends_every_row_one_way_makes_a_leaf(family, X):
    # at unbounded depth such a split once recursed until RecursionError
    params = {} if family == "tree" else {"max_depth": None, "n_estimators": 3}
    spec = ModelSpec(family, params)
    X, y = np.array(X), np.array([1.0, 2.0, 3.0, 5.0])
    with np.errstate(invalid="ignore"):
        model = fit(spec, X, y, seed=4)
        want = reference_fit(family, validate_spec(spec), X, y, seed=4)
    assert json.dumps(model.structure) == json.dumps(want)
    trees = [model.structure["tree"]] if family == "tree" else model.structure["trees"]
    assert all(_depth(tree) <= 1 for tree in trees)


@pytest.mark.parametrize("family", ["tree", "forest", "boosted_trees"])
def test_targets_whose_square_overflows_fit_a_leaf(family):
    # squaring the largest |target| once raised OverflowError; every gain is inf there
    params = {} if family == "tree" else {"n_estimators": 3}
    spec = ModelSpec(family, params)
    X, y = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1e160, 2e160, 3e160, 4e160])
    with np.errstate(over="ignore"):
        model = fit(spec, X, y, seed=4)
        want = reference_fit(family, validate_spec(spec), X, y, seed=4)
    assert json.dumps(model.structure) == json.dumps(want)
    if family == "tree":
        assert model.structure["tree"] == {"value": 2.5e160}
