import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm, qmc

import fedgbt.hpo as hpo
from fedgbt.data import PartyDataset
from fedgbt.gbt import GbtParams
from fedgbt.hpo import (
    EI_OFFSET,
    JITTER,
    Dimension,
    OptimError,
    SearchSpace,
    TunedParams,
    aggregate_params,
    bo_optimize,
    default_search_space,
    expected_improvement,
    expected_improvement_from_moments,
    gp_fit,
    latin_hypercube,
    params_from_vector,
    round_half_away,
    tune_objective,
)


def unit_space():
    return SearchSpace(dimensions=(Dimension("x", "continuous", 0.0, 1.0),))


# ---------------------------------------------------------------------------
# GP surrogate


def test_gp_interpolates_observations():
    # a well-separated design keeps the kernel matrix well conditioned, so
    # the only interpolation error left is the jitter itself
    import itertools

    X = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    for seed in range(5):
        y = np.random.default_rng(seed).normal(size=len(X))
        gp = gp_fit(X, y)
        mean, var = gp.posterior(X)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert (var >= 0).all()


def test_gp_variance_smaller_near_observations():
    X = np.array([[0.5, 0.5]])
    gp = gp_fit(X, np.array([1.0]))
    _, var_at = gp.posterior(np.array([[0.5, 0.5]]))
    _, var_far = gp.posterior(np.array([[0.0, 0.0]]))
    assert var_at[0] <= var_far[0]


def test_single_point_posterior_decays_with_square_exponential():
    y0 = 2.0
    gp = gp_fit(np.array([[0.0]]), np.array([y0]))
    for dist in (0.3, 0.7, 1.2):
        mean, _ = gp.posterior(np.array([[dist]]))
        expected = math.exp(-dist**2 / 2) * y0 / (1 + JITTER)
        assert mean[0] == pytest.approx(expected, rel=1e-5)


def test_gp_handles_duplicate_points_via_jitter():
    X = np.array([[0.2], [0.2], [0.8]])
    gp = gp_fit(X, np.array([1.0, 1.0, -1.0]))
    mean, var = gp.posterior(X)
    assert np.isfinite(mean).all() and (var >= 0).all()


def test_kernel_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(1)
    for n in (2, 16, 64):
        X = rng.random((n, 4))
        gp = gp_fit(X, rng.normal(size=n))
        K = gp.kernel(X, X) + JITTER * np.eye(n)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.linalg.eigvalsh(K).min() > 0


# ---------------------------------------------------------------------------
# expected improvement


def test_ei_zero_when_certain_and_dominated():
    assert expected_improvement_from_moments(0.0, 0.0, best=1.0) == 0.0
    assert expected_improvement_from_moments(2.0, 0.0, best=1.0) == pytest.approx(0.99)


def test_ei_nonnegative_everywhere():
    rng = np.random.default_rng(2)
    gp = gp_fit(rng.random((8, 2)), rng.normal(size=8))
    ei = expected_improvement(gp, rng.random((1000, 2)), best=0.5)
    assert (ei >= 0).all()


def test_ei_prefers_unexplored_over_dominated_points():
    X = np.array([[0.1], [0.2], [0.3]])
    y = np.array([0.0, -0.5, 0.2])
    gp = gp_fit(X, y)
    ei_far = expected_improvement(gp, np.array([[0.95]]), best=0.2)[0]
    ei_dominated = expected_improvement(gp, np.array([[0.2]]), best=0.2)[0]
    assert ei_far > ei_dominated


def _scipy_ei(mean, std, best):
    """Expected improvement on ``scipy.stats.norm``, the reference."""
    imp = mean - best - EI_OFFSET
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, imp / np.where(std > 0, std, 1.0), 0.0)
        ei = imp * norm.cdf(z) + std * norm.pdf(z)
    return np.where(std > 0, np.maximum(ei, 0.0), np.maximum(imp, 0.0))


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_finite, st.one_of(st.just(0.0), st.floats(1e-6, 1e3))),
                min_size=1, max_size=20), _finite)
def test_ei_equals_scipy_norm_bit_for_bit(moments, best):
    mean, std = (np.array(column) for column in zip(*moments))
    assert np.array_equal(expected_improvement_from_moments(mean, std, best),
                          _scipy_ei(mean, std, best))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_latin_hypercube_equals_scipy_bit_for_bit(d, n, seed):
    design = latin_hypercube(d, n, seed)
    assert np.array_equal(design, qmc.LatinHypercube(d, seed=seed).random(n))
    # one point in each of the n strata of every dimension
    assert (np.sort(np.floor(design * n), axis=0) == np.arange(n)[:, None]).all()


def test_ei_nondecreasing_in_mean_at_fixed_std():
    means = np.linspace(-2, 2, 200)
    for std in (0.0, 0.1, 1.0):
        ei = expected_improvement_from_moments(means, np.full_like(means, std), best=0.0)
        assert (np.diff(ei) >= -1e-12).all()


# ---------------------------------------------------------------------------
# optimization loop


def test_bo_finds_quadratic_maximum_all_seeds():
    space = unit_space()
    for seed in range(10):
        result = bo_optimize(lambda v: -((v["x"] - 0.3) ** 2), space, budget=25, seed=seed)
        assert abs(result.vector["x"] - 0.3) < 0.05, (seed, result.vector)


def test_bo_with_budget_equal_to_design_returns_design_best():
    space = unit_space()
    calls = []

    def objective(v):
        calls.append(v["x"])
        return -abs(v["x"] - 0.5)

    result = bo_optimize(objective, space, budget=5, seed=3)
    assert len(calls) == 5
    assert result.score == max(-abs(x - 0.5) for x in calls)


def test_bo_deterministic_per_seed():
    space = unit_space()
    r1 = bo_optimize(lambda v: math.sin(5 * v["x"]), space, budget=12, seed=9)
    r2 = bo_optimize(lambda v: math.sin(5 * v["x"]), space, budget=12, seed=9)
    assert r1.vector == r2.vector
    assert [h[1] for h in r1.history] == [h[1] for h in r2.history]


def test_bo_objective_failure_scores_minus_inf_and_continues():
    space = unit_space()
    def objective(v):
        if v["x"] < 0.5:
            raise RuntimeError("boom")
        return v["x"]

    result = bo_optimize(objective, space, budget=12, seed=1)
    assert any(math.isinf(s) and s < 0 for _, s in result.history)
    assert result.score >= 0.5


def test_bo_integer_dimension_rounds_at_evaluation():
    space = SearchSpace(dimensions=(Dimension("n", "integer", 1, 9),))
    seen = []

    def objective(v):
        seen.append(v["n"])
        return -abs(v["n"] - 4)

    result = bo_optimize(objective, space, budget=10, seed=2)
    assert all(float(x).is_integer() for x in seen)
    assert result.vector["n"] == 4


# ---------------------------------------------------------------------------
# aggregation


def test_round_half_away():
    assert round_half_away(5.5) == 6
    assert round_half_away(4.5) == 5
    assert round_half_away(-4.5) == -5
    assert round_half_away(2.4) == 2


def _tuned(space, score=1.0, **vector):
    return TunedParams(
        vector=space.round_integers(vector),
        raw_vector=dict(vector),
        score=score,
        provenance="direct",
    )


def test_aggregate_params_weighted_average_published_sizes():
    space = SearchSpace(dimensions=(Dimension("learning_rate", "continuous", 0.01, 0.5),))
    locals_ = [
        (_tuned(space, learning_rate=0.2), 72),
        (_tuned(space, learning_rate=0.4), 212),
    ]
    merged = aggregate_params(locals_, space)
    expected = (72 * 0.2 + 212 * 0.4) / 284
    assert merged.raw_vector["learning_rate"] == pytest.approx(expected, abs=1e-15)
    assert merged.raw_vector["learning_rate"] == pytest.approx(0.349296, abs=1e-6)
    assert merged.provenance == "aggregated"


def test_aggregate_identical_optima_unchanged():
    space = unit_space()
    locals_ = [(_tuned(space, x=0.37), 10), (_tuned(space, x=0.37), 90)]
    assert aggregate_params(locals_, space).raw_vector["x"] == pytest.approx(0.37)


def test_aggregate_integer_rounding_half_away():
    space = SearchSpace(dimensions=(Dimension("max_depth", "integer", 0, 10),))
    locals_ = [(_tuned(space, max_depth=4.0), 50), (_tuned(space, max_depth=7.0), 50)]
    merged = aggregate_params(locals_, space)
    assert merged.raw_vector["max_depth"] == pytest.approx(5.5)
    assert merged.vector["max_depth"] == 6


def test_aggregate_stays_inside_local_hull_pre_rounding():
    space = default_search_space()
    rng = np.random.default_rng(4)
    locals_ = []
    for n in (30, 50, 90):
        vec = {d.name: rng.uniform(d.low, d.high) for d in space.dimensions}
        locals_.append((_tuned(space, **vec), n))
    merged = aggregate_params(locals_, space)
    for d in space.dimensions:
        values = [tp.raw_vector[d.name] for tp, _ in locals_]
        assert min(values) - 1e-12 <= merged.raw_vector[d.name] <= max(values) + 1e-12


def test_aggregate_rejects_empty_and_zero_weight():
    space = unit_space()
    with pytest.raises(OptimError):
        aggregate_params([], space)
    with pytest.raises(OptimError):
        aggregate_params([(_tuned(space, x=0.5), 0)], space)


# ---------------------------------------------------------------------------
# tuning modes


def _party(n, seed, party="p"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(int)
    return PartyDataset(party, np.arange(n) + seed * 1000, X,
                        ("f0", "f1", "f2"), y)


def _test_space():
    return SearchSpace(dimensions=(
        Dimension("learning_rate", "continuous", 0.05, 0.5),
        Dimension("max_depth", "integer", 1, 4),
        Dimension("n_estimators", "integer", 3, 10),
    ))


def _base_params():
    return GbtParams(n_estimators=5, max_depth=2, learning_rate=0.3, max_bin=8,
                     reg_lambda=1.0)


def test_tune_single_party_aggregated_equals_direct():
    data = _party(60, seed=1)
    kw = dict(base=_base_params(), space=_test_space(), seed=5, budget=6)
    direct = tune_objective("separate", [data], **kw)
    fed = tune_objective("federated-aggregated", [data], **kw)
    assert fed.vector == direct.vector
    assert fed.provenance == "aggregated"


def test_tuned_params_beat_defaults_on_validation_with_warm_start():
    wins = 0
    for seed in range(10):
        data = _party(80, seed=seed + 10)
        result = tune_objective("separate", [data], base=_base_params(),
                                space=_test_space(), seed=seed, budget=7)
        default_score = next(
            s for v, s in result.history
            if v == result.history[0][0]
        )
        if result.score >= default_score:
            wins += 1
    assert wins >= 7


def test_federated_aggregated_mode_never_pools_data():
    a, b = _party(50, seed=2, party="a"), _party(70, seed=3, party="b")
    seen_sizes = set()

    original = hpo.train_centralized

    def tracking(train, params, seed=0, binning=None):
        seen_sizes.add(train.n_samples)
        return original(train, params, seed=seed, binning=binning)

    hpo.train_centralized = tracking
    try:
        tune_objective("federated-aggregated", [a, b], base=_base_params(),
                       space=_test_space(), seed=1, budget=6)
    finally:
        hpo.train_centralized = original
    assert all(size < 120 for size in seen_sizes)  # never the pooled 120


def test_tuning_propagates_errors_other_than_unsplittable_data(monkeypatch):
    # only DataError means "try another seed"; a programming error surfaces
    def broken(*args, **kwargs):
        raise TypeError("broken split")

    monkeypatch.setattr(hpo, "split_train_valid_test", broken)
    with pytest.raises(TypeError, match="broken split"):
        tune_objective("separate", [_party(60, seed=1)], base=_base_params(),
                       space=_test_space(), seed=0, budget=2)


def test_unsplittable_data_is_an_optim_error():
    # two rows of one class cannot give a two-class validation split
    with pytest.raises(OptimError, match="two-class validation split"):
        tune_objective("separate", [_party(3, seed=1)], base=_base_params(),
                       space=_test_space(), seed=0, budget=2)


def test_params_from_vector_casts_integers():
    params = params_from_vector(_base_params(), {"max_depth": 3.6, "learning_rate": 0.2})
    assert params.max_depth == 4
    assert params.learning_rate == pytest.approx(0.2)


def test_default_space_matches_documented_ranges():
    space = default_search_space()
    by_name = {d.name: d for d in space.dimensions}
    assert (by_name["learning_rate"].low, by_name["learning_rate"].high) == (0.01, 0.5)
    assert (by_name["max_bin"].low, by_name["max_bin"].high) == (8, 512)
    assert (by_name["max_depth"].low, by_name["max_depth"].high) == (0, 10)
    assert (by_name["min_child_weight"].low, by_name["min_child_weight"].high) == (0, 10)
    assert (by_name["n_estimators"].low, by_name["n_estimators"].high) == (20, 100)
    assert (by_name["reg_alpha"].low, by_name["reg_alpha"].high) == (0, 1)
    assert (by_name["reg_lambda"].low, by_name["reg_lambda"].high) == (0, 1)
    assert (by_name["subsample"].low, by_name["subsample"].high) == (0.01, 1)
