"""Duration regressors built on numpy arrays.

Four families share one interface: a CART-style regression tree, a bagged
forest with per-split feature subsampling, a stagewise boosted-tree ensemble
with shrinkage, and k-nearest neighbours. Fitted models serialize to plain
JSON-ready dicts (trees as nested split records) so artifacts survive
round-trips without pickling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

FAMILIES = ("tree", "forest", "boosted_trees", "knn")

_DEFAULTS: dict[str, dict[str, Any]] = {
    "tree": {"max_depth": None, "min_samples_split": 2, "min_samples_leaf": 1, "criterion": "squared_error"},
    "forest": {
        "n_estimators": 10,
        "max_depth": None,
        "min_samples_split": 2,
        "min_samples_leaf": 1,
        "criterion": "squared_error",
        "max_features": "sqrt",
    },
    "boosted_trees": {
        "n_estimators": 100,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_samples_split": 2,
        "min_samples_leaf": 1,
        "criterion": "friedman_mse",
    },
    "knn": {"n_neighbors": 5, "weights": "uniform"},
}

_CRITERIA = ("squared_error", "friedman_mse")


class InvalidSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus hyperparameter overrides."""

    family: str
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def resolved(self) -> dict[str, Any]:
        params = dict(_DEFAULTS[self.family])
        params.update(self.hyperparameters)
        return params


def validate_spec(spec: ModelSpec) -> dict[str, Any]:
    """Resolve defaults and reject unknown names or out-of-range values."""
    if spec.family not in FAMILIES:
        raise InvalidSpecError(f"unknown family {spec.family!r}")
    allowed = set(_DEFAULTS[spec.family])
    unknown = set(spec.hyperparameters) - allowed
    if unknown:
        raise InvalidSpecError(f"{spec.family}: unknown hyperparameters {sorted(unknown)}")
    params = spec.resolved()
    depth = params.get("max_depth")
    if depth is not None and depth < 0:
        raise InvalidSpecError("max_depth must be None or >= 0")
    if spec.family in ("tree", "forest", "boosted_trees"):
        if params["min_samples_split"] < 2:
            raise InvalidSpecError("min_samples_split must be >= 2")
        if params["min_samples_leaf"] < 1:
            raise InvalidSpecError("min_samples_leaf must be >= 1")
        if params["criterion"] not in _CRITERIA:
            raise InvalidSpecError(f"criterion must be one of {_CRITERIA}")
    if spec.family == "forest" and params["n_estimators"] < 1:
        raise InvalidSpecError("forest needs n_estimators >= 1")
    if spec.family == "boosted_trees":
        if params["n_estimators"] < 0:
            raise InvalidSpecError("boosted_trees needs n_estimators >= 0")
        if params["learning_rate"] <= 0:
            raise InvalidSpecError("learning_rate must be positive")
    if spec.family == "knn":
        if params["n_neighbors"] < 1:
            raise InvalidSpecError("knn needs n_neighbors >= 1")
        if params["weights"] not in ("uniform", "distance"):
            raise InvalidSpecError("knn weights must be 'uniform' or 'distance'")
    return params


@dataclass
class FittedModel:
    """Learned structure plus everything needed to reproduce predictions."""

    family: str
    hyperparameters: dict[str, Any]
    structure: dict[str, Any]

    @property
    def n_features(self) -> int:
        return self.structure["n_features"]


# ---------------------------------------------------------------------------
# regression tree


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature-major copy of X, each column's stable ascending row order (int32),
    and the rank codes of the rows in that order.

    A code counts the strict value increases before its position, so two
    rows of any subset are separated by a threshold exactly when their codes
    differ. NaN sorts last and gets code -1: ``code[k+1] > code[k]`` is then
    never true at or after a NaN, just as ``x[k+1] > x[k]`` is not.
    """
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable").astype(np.int32)
    xs = np.take_along_axis(XT, order, axis=1)
    codes = np.zeros(order.shape, dtype=np.int32)
    np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, dtype=np.int32, out=codes[:, 1:])
    codes[np.isnan(xs)] = -1
    return XT, order, codes


def _best_split(order: np.ndarray, codes: np.ndarray, y: np.ndarray, abs_max: float, criterion: str, min_leaf: int):
    """Best (row of ``order``, sorted position) to split a node after, or None.

    ``order`` holds, per considered feature, the node's rows in stable
    ascending value order, and ``codes`` their rank codes; ``abs_max`` is the
    node's largest absolute target. Split quality uses prefix sums over the
    sorted targets and is scored only where the sorted value changes:
    ``squared_error`` ranks by the drop in total squared error, while
    ``friedman_mse`` ranks by n_l*n_r/n * (mean_l - mean_r)^2. Ties go to
    the lowest position, then the first feature.
    """
    d, n = order.shape
    if n < 2 * min_leaf:
        return None
    csum = np.cumsum(np.take(y, order), axis=1)
    total = csum[:, -1]

    valid = codes[:, 1:] > codes[:, :-1]
    valid[:, : min_leaf - 1] = False
    valid[:, n - min_leaf :] = False
    pos, feat = np.divmod(np.flatnonzero(valid.T), d)  # position-major, then feature
    if not len(pos):
        return None

    nl = pos + 1.0
    nr = n - nl
    sum_l = csum[feat, pos]
    sum_r = total[feat] - sum_l
    if criterion == "friedman_mse":
        gain = (nl * nr / n) * (sum_l / nl - sum_r / nr) ** 2
        floor = 0.0
    else:
        gain = sum_l**2 / nl + sum_r**2 / nr
        floor = float(total[0] ** 2 / n)  # parent score; any real split must beat it
    k = int(np.argmax(gain))
    scale = max(1.0, abs_max**2)
    if float(gain[k]) <= floor + 1e-12 * scale:
        return None
    return int(feat[k]), int(pos[k])


class _TreeGrower:
    """Grows one regression tree over all rows of X, depth-first, left first.

    ``presorted`` is ``_presort(X)``, the one sort of X per column. Every
    node carries its rows in index order plus, per column, its rows in
    sorted order with their rank codes. A split partitions those lists with
    one boolean mask, which keeps their order: a stable sort of a subset is
    the parent's order filtered to it, so every node sums the same sorted
    targets in the same order as a fresh sort would. Children at
    ``max_depth``, too small to split or with a constant target become
    leaves without their lists being built. When ``fitted`` is given, every
    leaf also writes its value over its rows.

    A class, not nested functions: a recursive closure is a reference cycle,
    which keeps every tree's arrays alive until the cyclic collector runs.
    """

    def __init__(
        self,
        presorted: tuple[np.ndarray, np.ndarray, np.ndarray],
        y: np.ndarray,
        params: dict[str, Any],
        rng: np.random.Generator | None = None,
        max_features: int | None = None,
        fitted: np.ndarray | None = None,
    ):
        self.XT, self.order, self.codes = presorted
        self.y = y
        self.max_depth = params["max_depth"]
        self.min_split = params["min_samples_split"]
        self.min_leaf = params["min_samples_leaf"]
        self.criterion = params["criterion"]
        self.rng = rng
        self.d = self.XT.shape[0]
        self.max_features = max_features if max_features is not None and max_features < self.d else None
        self.fitted = fitted
        self.side = np.zeros(len(y), dtype=bool)  # scratch: which of a node's rows go left

    def is_leaf(self, yn: np.ndarray, depth: int) -> bool:
        return (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(yn) < self.min_split
            or float(yn.min()) == float(yn.max())
        )

    def leaf(self, rows: np.ndarray, yn: np.ndarray) -> dict:
        value = float(yn.mean())
        if self.fitted is not None:
            self.fitted[rows] = value
        return {"value": value}

    def tree(self) -> dict:
        rows = np.arange(len(self.y), dtype=np.int32)
        if self.is_leaf(self.y, 0):
            return self.leaf(rows, self.y)
        return self.grow(rows, self.y, 0, self.order, self.codes)

    def grow(self, rows: np.ndarray, yn: np.ndarray, depth: int, order: np.ndarray, codes: np.ndarray) -> dict:
        abs_max = float(np.abs(yn).max())
        if self.max_features is not None:
            assert self.rng is not None
            feats = np.sort(self.rng.choice(self.d, size=self.max_features, replace=False))
            found = _best_split(order[feats], codes[feats], self.y, abs_max, self.criterion, self.min_leaf)
            if found is not None:
                found = (int(feats[found[0]]), found[1])
        else:
            found = _best_split(order, codes, self.y, abs_max, self.criterion, self.min_leaf)
        if found is None:
            return self.leaf(rows, yn)
        feat, pos = found
        column = self.XT[feat]
        threshold = float((column[order[feat, pos]] + column[order[feat, pos + 1]]) / 2.0)
        go_left = column[rows] <= threshold
        node: dict[str, Any] = {"feature": feat, "threshold": threshold}
        in_left = None
        for key, keep in (("left", go_left), ("right", ~go_left)):
            child_rows, child_y = rows[keep], yn[keep]
            if self.is_leaf(child_y, depth + 1):
                node[key] = self.leaf(child_rows, child_y)
                continue
            if in_left is None:  # ``side`` is shared: read it before a child writes it
                self.side[rows] = go_left
                in_left = np.take(self.side, order).ravel()
            mask = in_left if key == "left" else ~in_left
            shape = (self.d, len(child_rows))
            child_order = order.ravel().compress(mask).reshape(shape)
            child_codes = codes.ravel().compress(mask).reshape(shape)
            node[key] = self.grow(child_rows, child_y, depth + 1, child_order, child_codes)
        return node


def _tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=float)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if "value" in nd:
            out[idx] = nd["value"]
            continue
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


def _resolve_max_features(setting, d: int) -> int | None:
    if setting is None:
        return None
    if setting == "sqrt":
        return max(1, round(math.sqrt(d)))
    return max(1, min(int(setting), d))


# ---------------------------------------------------------------------------
# fit / predict


def fit(spec: ModelSpec, X: np.ndarray, y: np.ndarray, seed: int = 0) -> FittedModel:
    """Train one model; hyperparameters are validated before any work."""
    params = validate_spec(spec)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if len(y) == 0:
        raise ValueError("cannot fit on an empty dataset")
    n, d = X.shape

    if spec.family == "tree":
        root = _TreeGrower(_presort(X), y, params).tree()
        structure: dict[str, Any] = {"n_features": d, "tree": root}

    elif spec.family == "forest":
        max_features = _resolve_max_features(params["max_features"], d)
        streams = np.random.SeedSequence(seed).spawn(params["n_estimators"])
        trees = []
        for ss in streams:
            rng = np.random.default_rng(ss)
            sample = rng.integers(0, n, size=n)
            trees.append(_TreeGrower(_presort(X[sample]), y[sample], params, rng, max_features).tree())
        structure = {"n_features": d, "trees": trees}

    elif spec.family == "boosted_trees":
        base = float(y.mean())
        current = np.full(n, base)
        presorted = _presort(X)  # every stage splits the same rows
        fitted = np.empty(n)
        trees = []
        for _ in range(params["n_estimators"]):
            residual = y - current
            trees.append(_TreeGrower(presorted, residual, params, fitted=fitted).tree())
            current = current + params["learning_rate"] * fitted
        structure = {"n_features": d, "base": base, "trees": trees}

    else:  # knn
        structure = {"n_features": d, "X": X.tolist(), "y": y.tolist()}

    return FittedModel(spec.family, params, structure)


def predict(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """Deterministic predictions; raises on feature-count mismatch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got {X.shape}")

    if model.family == "tree":
        return _tree_predict(model.structure["tree"], X)

    if model.family == "forest":
        preds = np.stack([_tree_predict(t, X) for t in model.structure["trees"]])
        return preds.mean(axis=0)

    if model.family == "boosted_trees":
        out = np.full(X.shape[0], model.structure["base"], dtype=float)
        lr = model.hyperparameters["learning_rate"]
        for tree in model.structure["trees"]:
            out += lr * _tree_predict(tree, X)
        return out

    # knn
    train_X = np.asarray(model.structure["X"], dtype=float)
    train_y = np.asarray(model.structure["y"], dtype=float)
    k = min(model.hyperparameters["n_neighbors"], len(train_y))
    d2 = (
        (X**2).sum(axis=1)[:, None]
        + (train_X**2).sum(axis=1)[None, :]
        - 2.0 * (X @ train_X.T)
    )
    np.maximum(d2, 0.0, out=d2)
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    out = np.empty(X.shape[0], dtype=float)
    for i in range(X.shape[0]):
        idx = nearest[i]
        if model.hyperparameters["weights"] == "uniform":
            out[i] = train_y[idx].mean()
        else:
            dist = np.sqrt(d2[i, idx])
            exact = dist < 1e-9  # quadratic expansion can smear true zeros
            if exact.any():
                out[i] = train_y[idx[exact]].mean()
            else:
                w = 1.0 / dist
                out[i] = float((w * train_y[idx]).sum() / w.sum())
    return out
