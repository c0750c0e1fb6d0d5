"""Gaussian-process hyperparameter search and sample-weighted aggregation.

The surrogate is a zero-mean GP with a unit-bandwidth squared-exponential
kernel over inputs normalized to the unit hypercube, fixed jitter
``JITTER`` (1e-6), and no kernel learning.  Acquisition is expected
improvement with exploration offset ``EI_OFFSET`` (0.01), maximized over
``CANDIDATES_PER_STEP`` seeded random candidates after an
``INITIAL_DESIGN``-point Latin hypercube.  Integer dimensions relax to
continuous values during search and round half-away-from-zero at evaluation.
Every search starts from the base parameters (a warm start) and scores on
``split_train_valid_test``'s validation rows, a tenth of the training pool.

For multi-party tuning without data pooling, each party optimizes on its own
data and the coordinator averages the per-party optima weighted by sample
count, rounding integer dimensions only at the end (both the raw and rounded
vectors are kept).

Only numpy, ``scipy.special`` and ``scipy.linalg`` are used: nothing here
loads ``scipy.stats``, which would add about 45 MB to every process that
imports the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr

from .data import DataError, PartyDataset, has_both_classes, join_datasets, split_train_valid_test
from .gbt import GbtParams, predict_proba, train_centralized
from .metrics import auc_roc


class OptimError(ValueError):
    pass


@dataclass(frozen=True)
class Dimension:
    name: str
    kind: str  # "continuous" | "integer"
    low: float
    high: float

    def __post_init__(self):
        if self.kind not in ("continuous", "integer"):
            raise OptimError(f"unknown dimension kind {self.kind!r}")
        if not self.low < self.high:
            raise OptimError(f"empty range for {self.name}")


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple[Dimension, ...]

    def normalize(self, vector: dict[str, float]) -> np.ndarray:
        return np.array([
            (vector[d.name] - d.low) / (d.high - d.low) for d in self.dimensions
        ])

    def denormalize(self, unit: np.ndarray) -> dict[str, float]:
        return {
            d.name: d.low + float(u) * (d.high - d.low)
            for d, u in zip(self.dimensions, unit)
        }

    def round_integers(self, vector: dict[str, float]) -> dict[str, float]:
        out = {}
        for d in self.dimensions:
            v = min(max(vector[d.name], d.low), d.high)
            if d.kind == "integer":
                v = float(round_half_away(v))
                v = min(max(v, math.ceil(d.low)), math.floor(d.high))
            out[d.name] = v
        return out

    def clip(self, vector: dict[str, float]) -> dict[str, float]:
        return {
            d.name: min(max(vector[d.name], d.low), d.high) for d in self.dimensions
        }


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def default_search_space() -> SearchSpace:
    """The eight tunable boosting hyperparameters and their ranges."""
    return SearchSpace(dimensions=(
        Dimension("learning_rate", "continuous", 0.01, 0.5),
        Dimension("max_bin", "integer", 8, 512),
        Dimension("max_depth", "integer", 0, 10),
        Dimension("min_child_weight", "continuous", 0.0, 10.0),
        Dimension("n_estimators", "integer", 20, 100),
        Dimension("reg_alpha", "continuous", 0.0, 1.0),
        Dimension("reg_lambda", "continuous", 0.0, 1.0),
        Dimension("subsample", "continuous", 0.01, 1.0),
    ))


# ---------------------------------------------------------------------------
# Gaussian-process surrogate

JITTER = 1e-6
EI_OFFSET = 0.01


@dataclass
class GpSurrogate:
    X: np.ndarray  # (n, d) in the unit cube
    y: np.ndarray
    _chol: tuple = field(default=None, repr=False)
    _alpha: np.ndarray = field(default=None, repr=False)

    def kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        sq = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2 * A @ B.T
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / 2.0)

    def posterior(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points (n_q, d)."""
        Q = np.atleast_2d(Q)
        k_star = self.kernel(self.X, Q)
        mean = k_star.T @ self._alpha
        v = cho_solve(self._chol, k_star)
        var = 1.0 - np.sum(k_star * v, axis=0)
        return mean, np.maximum(var, 0.0)


def gp_fit(X: np.ndarray, y: np.ndarray) -> GpSurrogate:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise OptimError("at least one observation required")
    gp = GpSurrogate(X=X, y=y)
    K = gp.kernel(X, X) + JITTER * np.eye(X.shape[0])
    gp._chol = cho_factor(K, lower=True)
    gp._alpha = cho_solve(gp._chol, y)
    return gp


def expected_improvement_from_moments(mean, std, best: float):
    """EI for maximization; collapses to max(mean - best - EI_OFFSET, 0) at std=0.

    The standard normal cdf is ``ndtr`` and its pdf is written out, as
    ``scipy.stats.norm`` computes them both.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    imp = mean - best - EI_OFFSET
    with np.errstate(invalid="ignore"):
        z = np.where(std > 0, imp / np.where(std > 0, std, 1.0), 0.0)
        ei = imp * ndtr(z) + std * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi))
    return np.where(std > 0, np.maximum(ei, 0.0), np.maximum(imp, 0.0))


def expected_improvement(gp: GpSurrogate, Q: np.ndarray, best: float) -> np.ndarray:
    mean, var = gp.posterior(Q)
    return expected_improvement_from_moments(mean, np.sqrt(var), best)


def latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """``n`` points in the unit ``d``-cube, one in each of the ``n`` strata
    of every dimension, each at a uniform offset within its stratum
    (McKay, Beckman and Conover, 1979); the draws of
    ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)``."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perm = np.array([rng.permutation(n) + 1 for _ in range(d)])
    return (perm.T - u) / n


# ---------------------------------------------------------------------------
# Optimization loop


@dataclass(frozen=True)
class TunedParams:
    vector: dict[str, float]  # integer kinds rounded, all clipped in bounds
    raw_vector: dict[str, float]  # pre-rounding values
    score: float
    provenance: str  # "direct" | "aggregated"
    history: tuple = ()


INITIAL_DESIGN = 5
CANDIDATES_PER_STEP = 1024


def bo_optimize(
    objective,
    space: SearchSpace,
    budget: int = 30,
    seed: int = 0,
    initial_points: list[dict[str, float]] | None = None,
) -> TunedParams:
    """Maximize ``objective(vector)`` over the space with GP-guided search.

    The first evaluations cover ``initial_points`` (if given) plus a seeded
    Latin hypercube; afterwards each step fits the surrogate and
    evaluates the best of 1024 random candidates by expected improvement.
    Failures score -inf and stay in the history (the surrogate sees a finite
    floor instead).
    """
    d = len(space.dimensions)
    if budget < 1:
        raise OptimError("budget must be positive")
    rng = np.random.default_rng([seed, 211])
    queue = [space.normalize(space.clip(p)) for p in (initial_points or [])]
    queue = (queue + list(latin_hypercube(d, INITIAL_DESIGN, seed)))[:budget]

    X: list[np.ndarray] = []
    ys: list[float] = []
    history = []

    def evaluate(unit: np.ndarray) -> None:
        vector = space.round_integers(space.denormalize(unit))
        try:
            score = float(objective(vector))
        except Exception:
            score = -math.inf
        X.append(unit)
        ys.append(score)
        history.append((vector, score))

    for unit in queue:
        evaluate(unit)

    while len(ys) < budget:
        finite = [v for v in ys if math.isfinite(v)]
        floor = (min(finite) - 1.0) if finite else 0.0
        y_fit = np.array([v if math.isfinite(v) else floor for v in ys])
        gp = gp_fit(np.vstack(X), y_fit)
        best = float(y_fit.max())
        candidates = rng.random((CANDIDATES_PER_STEP, d))
        ei = expected_improvement(gp, candidates, best)
        evaluate(candidates[int(np.argmax(ei))])

    best_idx = int(np.argmax([v if math.isfinite(v) else -math.inf for v in ys]))
    raw = space.denormalize(X[best_idx])
    return TunedParams(
        vector=space.round_integers(raw),
        raw_vector=space.clip(raw),
        score=ys[best_idx],
        provenance="direct",
        history=tuple(history),
    )


def aggregate_params(locals_: list[tuple[TunedParams, int]], space: SearchSpace) -> TunedParams:
    """Sample-count-weighted average of per-party optima.

    Continuous components stay a convex combination of the local values;
    integer components round half-away-from-zero after averaging.  The raw
    (pre-rounding) vector is retained alongside.
    """
    if not locals_:
        raise OptimError("nothing to aggregate")
    total = sum(n for _, n in locals_)
    if total <= 0:
        raise OptimError("total sample count must be positive")
    raw = {}
    for dim in space.dimensions:
        raw[dim.name] = sum(
            n / total * tp.raw_vector[dim.name] for tp, n in locals_
        )
    raw = space.clip(raw)
    score = sum(n / total * tp.score for tp, n in locals_)
    return TunedParams(
        vector=space.round_integers(raw),
        raw_vector=raw,
        score=score,
        provenance="aggregated",
    )


# ---------------------------------------------------------------------------
# Tuning against validation AUC


def params_from_vector(base: GbtParams, vector: dict[str, float]) -> GbtParams:
    updates = {}
    for name, value in vector.items():
        if name in ("max_bin", "max_depth", "n_estimators"):
            updates[name] = max(int(round_half_away(value)), 0)
        else:
            updates[name] = float(value)
    if updates.get("max_bin", 2) < 2:
        updates["max_bin"] = 2
    if updates.get("n_estimators", 1) < 1:
        updates["n_estimators"] = 1
    return replace(base, **updates)


def validation_objective(train: PartyDataset, valid: PartyDataset, base: GbtParams, seed: int):
    """Score a candidate vector by the AUC of a freshly trained model."""

    def objective(vector: dict[str, float]) -> float:
        params = params_from_vector(base, vector)
        model = train_centralized(train, params, seed=seed)
        return auc_roc(valid.labels, predict_proba(model, valid.features))

    return objective


def _train_valid_split(dataset: PartyDataset, seed: int):
    for attempt in range(10):
        try:
            plan = split_train_valid_test(dataset, k=5, seed=seed + attempt)
        except DataError:
            continue
        fold = plan.folds[0]
        train = dataset.subset(np.concatenate([fold.train_idx, fold.test_idx]))
        valid = dataset.subset(fold.valid_idx)
        if has_both_classes(valid.labels) and has_both_classes(train.labels):
            return train, valid
    raise OptimError("could not carve a two-class validation split")


def tune_objective(
    mode: str,
    datasets: list[PartyDataset],
    base: GbtParams,
    space: SearchSpace | None = None,
    seed: int = 0,
    budget: int = 30,
) -> TunedParams:
    """Tune under one of three data-access regimes.

    ``separate``: one party's own data only.  ``centralized``: the pooled
    data.  ``federated-aggregated``: independent per-party searches whose
    optima are sample-weighted averaged; no cross-party data access happens
    anywhere on that path.
    """
    space = space or default_search_space()
    base_point = {
        d.name: min(max(getattr(base, d.name), d.low), d.high) for d in space.dimensions
    }

    def run_direct(data: PartyDataset, run_seed: int) -> TunedParams:
        train, valid = _train_valid_split(data, run_seed)
        objective = validation_objective(train, valid, base, run_seed)
        return bo_optimize(objective, space, budget=budget, seed=run_seed,
                           initial_points=[base_point])

    if mode == "separate":
        if len(datasets) != 1:
            raise OptimError("separate mode tunes exactly one party's data")
        return run_direct(datasets[0], seed)
    if mode == "centralized":
        return run_direct(join_datasets(datasets, "pooled"), seed)
    if mode == "federated-aggregated":
        locals_ = [
            (run_direct(ds, seed + 1000 * i), ds.n_samples)
            for i, ds in enumerate(datasets)
        ]
        if len(locals_) == 1:
            only = locals_[0][0]
            return replace(only, provenance="aggregated")
        return aggregate_params(locals_, space)
    raise OptimError(f"unknown tuning mode {mode!r}")
