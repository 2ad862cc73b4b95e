"""Duration regressors built on numpy arrays.

Four families share one interface: a CART-style regression tree, a bagged
forest with per-split feature subsampling, a stagewise boosted-tree ensemble
with shrinkage, and k-nearest neighbours. Fitted models serialize to plain
JSON-ready dicts (trees as nested split records) so artifacts survive
round-trips without pickling.
"""

from __future__ import annotations

import math
import numbers
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
    """A spec that cannot be fitted; ``field`` names the offending entry
    ("family" or a hyperparameter)."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus hyperparameter overrides."""

    family: str
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def resolved(self) -> dict[str, Any]:
        params = dict(_DEFAULTS[self.family])
        params.update(self.hyperparameters)
        return params


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check(params: dict[str, Any], name: str, ok: bool, requirement: str) -> None:
    if not ok:
        raise InvalidSpecError(f"{name} must be {requirement}, got {params[name]!r}", name)


def validate_spec(spec: ModelSpec) -> dict[str, Any]:
    """Resolve defaults and reject unknown names, values of the wrong type and
    out-of-range values."""
    if not isinstance(spec.family, str) or spec.family not in FAMILIES:
        raise InvalidSpecError(f"unknown family {spec.family!r}; choose from {list(FAMILIES)}", "family")
    if not isinstance(spec.hyperparameters, Mapping):
        raise InvalidSpecError(f"hyperparameters must be a mapping, got {spec.hyperparameters!r}", "hyperparameters")
    unknown = sorted(set(spec.hyperparameters) - set(_DEFAULTS[spec.family]), key=str)
    if unknown:
        raise InvalidSpecError(f"{spec.family}: unknown hyperparameters {unknown}", str(unknown[0]))
    params = spec.resolved()
    if "max_depth" in params:
        depth = params["max_depth"]
        _check(params, "max_depth", depth is None or (_is_int(depth) and depth >= 0), "None or an integer >= 0")
    if spec.family in ("tree", "forest", "boosted_trees"):
        _check(params, "min_samples_split", _is_int(params["min_samples_split"]) and params["min_samples_split"] >= 2, "an integer >= 2")
        _check(params, "min_samples_leaf", _is_int(params["min_samples_leaf"]) and params["min_samples_leaf"] >= 1, "an integer >= 1")
        _check(params, "criterion", params["criterion"] in _CRITERIA, f"one of {_CRITERIA}")
    if spec.family == "forest":
        _check(params, "n_estimators", _is_int(params["n_estimators"]) and params["n_estimators"] >= 1, "an integer >= 1")
        setting = params["max_features"]
        _check(params, "max_features", setting is None or setting == "sqrt" or (_is_int(setting) and setting >= 1), "None, 'sqrt' or an integer >= 1")
    if spec.family == "boosted_trees":
        _check(params, "n_estimators", _is_int(params["n_estimators"]) and params["n_estimators"] >= 0, "an integer >= 0")
        rate = params["learning_rate"]
        _check(params, "learning_rate", isinstance(rate, numbers.Real) and not isinstance(rate, bool) and 0 < rate < math.inf, "a positive finite number")
    if spec.family == "knn":
        _check(params, "n_neighbors", _is_int(params["n_neighbors"]) and params["n_neighbors"] >= 1, "an integer >= 1")
        _check(params, "weights", params["weights"] in ("uniform", "distance"), "'uniform' or 'distance'")
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


_ROW = 0xFFFFFFFF  # a packed entry's row id; its code is in the upper 32 bits


def _presort(X: np.ndarray, min_leaf: int):
    """X itself, each of its columns' rows packed as ``code << 32 | row`` in
    stable ascending value order (feature-major), and the root's
    ``_boundaries``. A code counts the strict value increases before its
    position, -1 for NaN (sorted last): rows are split by a threshold
    exactly when codes differ."""
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    packed = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, out=packed[:, 1:])
    packed[np.isnan(xs)] = -1
    packed = (packed << 32) | order
    return X, packed, _boundaries(packed, X.shape[0], min_leaf)


def _boundaries(packed: np.ndarray, n_rows: int, min_leaf: int):
    """(sorted position, feature) after which a node's value steps up with
    ``min_leaf`` rows on each side, position-major. Within one code the
    stable order raises the row id by less than ``n_rows``, a code increase
    adds at least 2**32 - n_rows and a step into NaN is negative."""
    valid = packed[:, 1:] - packed[:, :-1] > n_rows
    if min_leaf > 1:
        valid[:, : min_leaf - 1] = False
        valid[:, packed.shape[1] - min_leaf :] = False
    if packed.shape[1] <= 128:  # numpy's 2-D nonzero is the cheaper call on small nodes only
        return valid.T.nonzero()
    return np.divmod(valid.T.ravel().nonzero()[0], packed.shape[0])


def _best_split(bounds, ids: np.ndarray, y: np.ndarray, abs_max: float, criterion: str):
    """Best (row of ``ids``, sorted position) to split a node after, or None.

    ``ids`` holds, per considered feature, the node's row ids in stable
    ascending value order, ``bounds`` its ``_boundaries`` (at least one) and
    ``abs_max`` its largest absolute target. Split quality uses prefix sums
    over the sorted targets and is scored only at the boundaries:
    ``squared_error`` ranks by the drop in total squared error, while
    ``friedman_mse`` ranks by n_l*n_r/n * (mean_l - mean_r)^2. Ties go to
    the lowest position, then the first feature.
    """
    pos, feat = bounds
    n = ids.shape[1]
    csum = y.take(ids)
    csum.cumsum(axis=1, out=csum)
    total = csum[:, -1]
    sum_l = csum[feat, pos]
    sum_r = total[feat] - sum_l
    # squared_error's parent score: any real split must beat it
    floor = 0.0 if criterion == "friedman_mse" else float(total[0] ** 2 / n)
    del csum, total  # the caller's row ids stay alive, so free the prefix sums first
    nl = pos + 1.0
    nr = n - nl
    if criterion == "friedman_mse":
        gain = (nl * nr / n) * (sum_l / nl - sum_r / nr) ** 2
    else:
        gain = sum_l**2 / nl + sum_r**2 / nr
    k = gain.argmax()
    try:
        scale = max(1.0, abs_max**2)
    except OverflowError:  # |target| above ~1.3e154: every gain is inf as well, so the node stays a leaf
        scale = math.inf
    if gain.item(k) <= floor + 1e-12 * scale:
        return None
    return feat.item(k), pos.item(k)


class _TreeGrower:
    """Grows one regression tree over all rows of X, depth-first, left first.

    ``presorted`` is ``_presort(X, min_samples_leaf)``, the one sort of X
    per column. Every node carries its rows and targets in index order plus,
    per column, its packed list in sorted order. It reads the row ids out of
    that list once, for both the target gather and the partition, and drops
    them before its subtrees grow. A split partitions the packed lists with
    one boolean mask, which keeps their order: a stable sort of a subset is
    the parent's order filtered to it, so every node sums the same sorted
    targets in the same order as a fresh sort would. The root reads its
    boundaries from ``presorted``, so boosting finds them once per fit.
    Children at ``max_depth``, too small to split or with a constant target
    become leaves without their lists being built, and a node whose split
    sends every row one way is a leaf itself. When ``fitted`` is given, the
    leaves' rows and values are kept and written over it once per tree.

    A class, not nested functions: a recursive closure is a reference cycle,
    which keeps every tree's arrays alive until the cyclic collector runs.
    """

    def __init__(
        self,
        presorted: tuple,
        y: np.ndarray,
        params: dict[str, Any],
        rng: np.random.Generator | None = None,
        max_features: int | None = None,
        fitted: np.ndarray | None = None,
    ):
        self.X, self.packed, self.root_bounds = presorted
        self.y = y
        self.max_depth = params["max_depth"]
        self.min_split = params["min_samples_split"]
        self.min_leaf = params["min_samples_leaf"]
        self.criterion = params["criterion"]
        self.rng = rng
        self.d = self.X.shape[1]
        self.max_features = max_features if max_features is not None and max_features < self.d else None
        self.fitted = fitted
        self.leaves: list[tuple[np.ndarray, float]] = []  # (rows, value), kept for ``fitted``
        self.side = np.zeros(len(y), dtype=bool)  # scratch: which of a node's rows go left

    def scale(self, yn: np.ndarray, depth: int) -> float | None:
        """None when a node of targets ``yn`` is a leaf, else its largest |target|."""
        if (self.max_depth is not None and depth >= self.max_depth) or len(yn) < self.min_split:
            return None
        lo, hi = float(np.minimum.reduce(yn)), float(np.maximum.reduce(yn))
        return None if lo == hi else max(-lo, hi)

    def leaf(self, rows: np.ndarray, yn: np.ndarray) -> dict:
        value = float(np.add.reduce(yn)) / len(yn)  # the bits of yn.mean()
        if self.fitted is not None:
            self.leaves.append((rows, value))
        return {"value": value}

    def tree(self) -> dict:
        rows, abs_max = np.arange(len(self.y)), self.scale(self.y, 0)
        root = self.leaf(rows, self.y) if abs_max is None else self.grow(rows, self.y, abs_max, 0, self.packed)
        if self.fitted is not None:  # the leaves partition the rows
            rows, values = zip(*self.leaves)
            self.fitted[np.concatenate(rows)] = np.repeat(values, [len(r) for r in rows])
        return root

    def grow(self, rows: np.ndarray, yn: np.ndarray, abs_max: float, depth: int, packed: np.ndarray) -> dict:
        feats = None
        if self.max_features is not None:
            feats = np.sort(self.rng.choice(self.d, size=self.max_features, replace=False))
        if packed.shape[1] < 2 * self.min_leaf:
            return self.leaf(rows, yn)
        search = packed if feats is None else packed[feats]
        bounds = self.root_bounds if depth == 0 and feats is None else _boundaries(search, len(self.y), self.min_leaf)
        if not len(bounds[0]):
            return self.leaf(rows, yn)
        ids = packed & _ROW  # not before: beside the boundary search's int64 steps it would raise the peak
        found = _best_split(bounds, ids if feats is None else ids[feats], self.y, abs_max, self.criterion)
        del search, bounds  # a frame keeps no more than it must while its subtrees grow
        if found is None:
            return self.leaf(rows, yn)
        feat, pos = found if feats is None else (int(feats[found[0]]), found[1])
        column = self.X[:, feat]
        threshold = (column.item(ids.item(feat, pos)) + column.item(ids.item(feat, pos + 1))) / 2.0
        go_left = column[rows] <= threshold
        node: dict[str, Any] = {"feature": feat, "threshold": threshold}
        in_left = None
        for key, keep in (("left", go_left), ("right", ~go_left)):
            child_rows = rows.compress(keep)
            if len(child_rows) in (0, len(rows)):  # a NaN or rounded-up midpoint splits no row off
                return self.leaf(rows, yn)
            child_y = yn.compress(keep)
            child_max = self.scale(child_y, depth + 1)
            if child_max is None:
                node[key] = self.leaf(child_rows, child_y)
                continue
            if in_left is None:  # ``side`` is shared: read it before a child writes it
                self.side[rows] = go_left
                in_left = self.side.take(ids).ravel()
                del ids
            child = packed.ravel().compress(in_left if key == "left" else ~in_left)
            node[key] = self.grow(child_rows, child_y, child_max, depth + 1, child.reshape(self.d, len(child_rows)))
        return node


def _tree_values(trees: list[dict], X: np.ndarray):
    """Each tree's predictions for the rows of X, in order. A block of trees
    is laid out breadth-first in flat arrays, a leaf being its own children,
    and walked one level per step for all rows; NaN goes right, as ever."""
    m, d = X.shape
    flat = np.ascontiguousarray(X).ravel()
    offset = np.arange(m) * d
    block = max(1, min(32, 8192 // max(m, 1)))  # trees walked at once, fewer for many rows
    for start in range(0, len(trees), block):
        roots = trees[start : start + block]
        level, nodes, depth = roots, [], -1
        while level:  # breadth-first over the whole block
            nodes += level
            level = [child for node in level if "value" not in node for child in (node["left"], node["right"])]
            depth += 1
        # the k-th inner node's children follow the roots at 2k and 2k + 1
        inner = np.array(["value" not in node for node in nodes])
        left = np.where(inner, len(roots) + 2 * (np.cumsum(inner) - inner), np.arange(len(nodes)))
        right = left + inner
        feature = np.array([node.get("feature", 0) for node in nodes])
        if inner.any() and (feature[inner].min() < 0 or feature[inner].max() >= d):  # ``take`` would wrap, or read the next row
            raise ValueError(f"a tree node's 'feature' is outside [0, {d})")
        threshold = np.array([node.get("threshold", 0.0) for node in nodes])
        at = np.repeat(np.arange(len(roots)), m).reshape(len(roots), m)
        for _ in range(depth):
            at = np.where(flat.take(offset + feature.take(at)) <= threshold.take(at), left.take(at), right.take(at))
        yield from np.array([node.get("value", 0.0) for node in nodes]).take(at)


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
        root = _TreeGrower(_presort(X, params["min_samples_leaf"]), y, params).tree()
        structure: dict[str, Any] = {"n_features": d, "tree": root}

    elif spec.family == "forest":
        max_features = _resolve_max_features(params["max_features"], d)
        streams = np.random.SeedSequence(seed).spawn(params["n_estimators"])
        trees = []
        for ss in streams:
            rng = np.random.default_rng(ss)
            sample = rng.integers(0, n, size=n)
            trees.append(_TreeGrower(_presort(X[sample], params["min_samples_leaf"]), y[sample], params, rng, max_features).tree())
        structure = {"n_features": d, "trees": trees}

    elif spec.family == "boosted_trees":
        base = float(y.mean())
        current = np.full(n, base)
        presorted = _presort(X, params["min_samples_leaf"])  # every stage splits the same rows
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
        return next(_tree_values([model.structure["tree"]], X))

    if model.family == "forest":
        return np.stack(list(_tree_values(model.structure["trees"], X))).mean(axis=0)

    if model.family == "boosted_trees":
        out = np.full(X.shape[0], model.structure["base"], dtype=float)
        lr = model.hyperparameters["learning_rate"]
        for values in _tree_values(model.structure["trees"], X):
            out += lr * values
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
