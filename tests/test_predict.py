"""Prediction-pipeline tests: encoding, splitting, metrics, grid search,
confidence levels, baselines, artifacts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import records_table

from orsched.ingest import SyntheticConfig, generate_synthetic_dataset, preprocess
from orsched.predict import (
    ModelSpec,
    PredictError,
    ape,
    baseline_mean_estimator,
    confidence_level,
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


@pytest.fixture(scope="module")
def clean_dataset():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=400), seed=21)
    clean, _ = preprocess(records, seed=21)
    return clean


# -- encode_features ------------------------------------------------------------


def test_two_category_column_gets_two_codes(clean_dataset):
    X, y, encoder = encode_features(clean_dataset)
    j = encoder.feature_names.index("SESSO")
    assert set(np.unique(X[:, j])) == {0.0, 1.0}


def test_leakage_columns_never_appear(clean_dataset):
    _, _, encoder = encode_features(clean_dataset)
    for banned in ("USCITASALA", "INGRESSOSALA", "INIZIOINTERVENTO", "FINEINTERVENTO", "PROGRESSIVO"):
        assert not any(name.startswith(banned) for name in encoder.feature_names)


def test_encoder_transform_is_deterministic(clean_dataset):
    X1, _, enc1 = encode_features(clean_dataset)
    X2, _, enc2 = encode_features(clean_dataset)
    assert enc1.categories == enc2.categories
    assert (X1 == X2).all()


def test_unseen_category_maps_to_reserved_code(clean_dataset):
    _, _, encoder = encode_features(clean_dataset)
    alien = clean_dataset.records.take([0]).with_column("REPARTO", ["NEUROCHIRURGIA"])
    row = encoder.transform(alien)
    j = encoder.feature_names.index("REPARTO")
    assert row[0, j] == -1.0


def test_all_encoded_entries_finite(clean_dataset):
    X, y, _ = encode_features(clean_dataset)
    assert np.isfinite(X).all()
    assert (y > 0).all()


# -- stratified_split --------------------------------------------------------------


def test_split_sizes_close_to_fraction():
    rng = np.random.default_rng(0)
    y = rng.lognormal(3, 0.5, size=100)
    train, test = stratified_split(y, test_fraction=0.2, n_bins=10, seed=1)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == 100
    assert abs(len(test) - 20) <= 10


def test_all_equal_targets_degenerate_to_single_bin():
    y = np.full(40, 5.0)
    train, test = stratified_split(y, test_fraction=0.25, n_bins=10, seed=0)
    assert len(test) == 10


def test_bimodal_target_represented_in_both_sets():
    y = np.array([10.0] * 20 + [200.0] * 80)
    train, test = stratified_split(y, test_fraction=0.2, n_bins=5, seed=3)
    assert (y[test] == 10.0).sum() == 4  # 20% of the short mode
    assert (y[test] == 200.0).sum() == 16


def test_tiny_bins_stay_in_train():
    y = np.array([1.0, 100.0, 100.0, 100.0, 100.0])
    train, test = stratified_split(y, test_fraction=0.5, n_bins=2, seed=0)
    assert 0 in train  # singleton bin


# -- regression_metrics ---------------------------------------------------------------


def test_perfect_fit_metrics():
    report = regression_metrics([10, 20, 30], [10, 20, 30])
    assert report.mae == 0 and report.rmse == 0 and report.r2 == 1


def test_hand_computed_fixture():
    report = regression_metrics([10, 20, 30], [12, 18, 33])
    assert report.mae == pytest.approx(7 / 3, abs=1e-9)
    assert report.rmse == pytest.approx((17 / 3) ** 0.5, abs=1e-9)
    assert report.r2 == pytest.approx(1 - 17 / 200, abs=1e-9)


def test_mean_predictor_scores_zero_r2():
    y = np.array([5.0, 10.0, 15.0])
    report = regression_metrics(y, np.full(3, y.mean()))
    assert report.r2 == pytest.approx(0.0)


def test_constant_target_r2_undefined_not_crash():
    report = regression_metrics([7, 7, 7], [6, 7, 8])
    assert report.r2 is None


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    st.data(),
)
def test_mae_never_exceeds_rmse(y, data):
    yhat = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(y), max_size=len(y)))
    report = regression_metrics(y, yhat)
    assert report.mae <= report.rmse + 1e-9


# -- grid_search_cv -----------------------------------------------------------------


def deep_interaction_data(n=300, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 6)).astype(float)
    # XOR-ish target: useless at depth 1, learnable at depth 8
    y = 10.0 * np.logical_xor(X[:, 0] > 0, np.logical_xor(X[:, 1] > 0, X[:, 2] > 0)) + rng.normal(
        scale=0.01, size=n
    )
    return X, y


def test_singleton_grid_returns_that_spec():
    X, y = deep_interaction_data()
    spec = ModelSpec("tree", {"max_depth": 2})
    best, results = grid_search_cv([spec], X, y, k_folds=3, seed=0)
    assert best is spec
    assert len(results) == 1


def test_depth_eight_beats_depth_one_on_interactions():
    X, y = deep_interaction_data()
    shallow = ModelSpec("tree", {"max_depth": 1})
    deep = ModelSpec("tree", {"max_depth": 8})
    best, results = grid_search_cv([shallow, deep], X, y, k_folds=4, seed=1)
    assert best is deep
    assert results[1].mean_mae < results[0].mean_mae


def test_identical_scores_break_to_grid_order():
    X, y = deep_interaction_data(80)
    a = ModelSpec("tree", {"max_depth": 3})
    b = ModelSpec("tree", {"max_depth": 3, "min_samples_leaf": 1})  # resolves identically
    best, results = grid_search_cv([a, b], X, y, k_folds=3, seed=2)
    assert results[0].mean_mae == results[1].mean_mae
    assert best is a


def test_empty_grid_is_error():
    with pytest.raises(PredictError):
        grid_search_cv([], np.zeros((4, 1)), np.ones(4), k_folds=2, seed=0)


# -- ape and confidence -----------------------------------------------------------------


def test_ape_fixtures():
    assert ape(100, 100) == 0.0
    assert ape(100, 90) == pytest.approx(10.0)
    assert ape(40, 70) == pytest.approx(75.0)


def test_ape_rejects_nonpositive_actual():
    with pytest.raises(PredictError):
        ape(0, 10)


def test_confidence_boundaries():
    cases = {0: 1, 9.999: 1, 10.0: 2, 24.999: 2, 25.0: 3, 49.999: 3, 50.0: 4, 400: 4}
    for value, level in cases.items():
        assert confidence_level(value) == level


@given(st.floats(0, 1000), st.floats(0, 1000))
def test_confidence_is_monotone_step_function(a, b):
    lo, hi = sorted([a, b])
    assert confidence_level(lo) <= confidence_level(hi)


# -- baselines ------------------------------------------------------------------------------


def test_department_mean_and_fallback():
    records = [
        {"REPARTO": "A", "ICD1": "X", "DURATA": 10},
        {"REPARTO": "A", "ICD1": "Y", "DURATA": 20},
        {"REPARTO": "B", "ICD1": "X", "DURATA": 40},
    ]
    est = baseline_mean_estimator(records_table(records), "department")
    assert est.estimate("A") == pytest.approx(15.0)
    assert est.estimate("B") == pytest.approx(40.0)
    assert est.estimate("UNSEEN") == pytest.approx(70 / 3)


def test_procedure_mean_single_record_key():
    records = [{"REPARTO": "A", "ICD1": "X", "DURATA": 33}]
    est = baseline_mean_estimator(records_table(records), "procedure_type")
    assert est.estimate("X") == 33.0


def test_unknown_key_rejected():
    with pytest.raises(PredictError):
        baseline_mean_estimator(records_table([{"DURATA": 1}]), "surgeon")


# -- artifact round trip -------------------------------------------------------------------


def test_artifact_round_trip_preserves_predictions(tmp_path, clean_dataset):
    X, y, encoder = encode_features(clean_dataset)
    model = fit(ModelSpec("boosted_trees", {"n_estimators": 15, "max_depth": 3}), X, y, seed=1)
    baselines = [
        baseline_mean_estimator(clean_dataset.records, "department"),
        baseline_mean_estimator(clean_dataset.records, "procedure_type"),
    ]
    path = tmp_path / "model.json"
    save_model(model, encoder, path, baselines=baselines)
    loaded, loaded_encoder, loaded_baselines = load_model(path)
    X2 = loaded_encoder.transform(clean_dataset.records)
    assert (X2 == X).all()
    assert np.allclose(predict(loaded, X2), predict(model, X))
    assert loaded_baselines["department"].means == baselines[0].means


def test_predictions_csv_shape(tmp_path):
    path = tmp_path / "preds.csv"
    write_predictions_csv(["a", "b"], [100.0, 40.0], [90.0, 70.0], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,y,yhat,ape,confidence"
    assert lines[1].split(",")[4] == "2"  # APE 10 -> Moderate
    assert lines[2].split(",")[4] == "4"  # APE 75 -> Very Low


# -- end-to-end sanity on noise-free data -----------------------------------------------------


def test_boosted_trees_explain_noise_free_target():
    records = generate_synthetic_dataset(SyntheticConfig(n_rows=1200, noise=0.0), seed=13)
    clean, _ = preprocess(records, seed=13)
    X, y, _ = encode_features(clean)
    train, test = stratified_split(y, test_fraction=0.2, n_bins=10, seed=13)
    model = fit(
        ModelSpec("boosted_trees", {"n_estimators": 150, "max_depth": 5, "learning_rate": 0.1}),
        X[train],
        y[train],
        seed=13,
    )
    report = regression_metrics(y[test], predict(model, X[test]))
    assert report.r2 > 0.5
    mean_report = regression_metrics(y[test], np.full(len(test), y[train].mean()))
    assert abs(mean_report.r2) < 0.05
