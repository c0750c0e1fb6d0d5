"""Well datasets: schema, CSV ingestion, synthetic generator, partitioning.

The feature space is 16 geological descriptors (``G1``..``G16``) and 16
operational descriptors (``O1``..``O16``) per well, with a binary label that
marks high-yield wells.  Real well records are proprietary, so the module
ships a seeded generator calibrated to published per-feature summary
statistics (mean / median / min / max per district) and per-district class
rates; it produces a 72-well district A and a 212-well district B by default.

Horizontal partitioning keeps the full schema and splits samples by district;
vertical partitioning gives the operational block plus labels to one party
and the geological block to the other.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

GEO_FEATURES = tuple(f"G{i}" for i in range(1, 17))
OP_FEATURES = tuple(f"O{i}" for i in range(1, 17))
ALL_FEATURES = GEO_FEATURES + OP_FEATURES

ID_COLUMN = "well_id"
LABEL_COLUMN = "label"


class DataError(ValueError):
    """Malformed dataset, config, or partition request."""


class GenerationError(RuntimeError):
    """Synthetic generation could not satisfy the configured statistics."""


@dataclass(frozen=True)
class PartyDataset:
    """One party's slice: samples x features, optional binary labels."""

    party_id: str
    sample_ids: np.ndarray
    features: np.ndarray  # shape (n_samples, n_features), float64
    feature_names: tuple[str, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        X = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "features", X)
        if X.ndim != 2 or X.shape[0] != ids.shape[0]:
            raise DataError("feature matrix and sample ids disagree on sample count")
        if X.shape[1] != len(self.feature_names):
            raise DataError("feature matrix and feature names disagree on width")
        if not np.all(np.isfinite(X)):
            raise DataError("missing or non-finite feature values are rejected")
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", y)
            if y.shape != ids.shape:
                raise DataError("label vector length mismatch")
            if not np.isin(y, (0, 1)).all():
                raise DataError("labels must be 0/1")

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices: np.ndarray, party_id: str | None = None) -> "PartyDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return PartyDataset(
            party_id=party_id or self.party_id,
            sample_ids=self.sample_ids[idx],
            features=self.features[idx],
            feature_names=self.feature_names,
            labels=None if self.labels is None else self.labels[idx],
        )


@dataclass(frozen=True)
class FeatureStats:
    """Published per-feature summary for one district."""

    mean: float
    median: float
    low: float
    high: float

    def __post_init__(self):
        if not self.low <= self.median <= self.high:
            raise DataError("summary statistics must satisfy low <= median <= high")


# Summary statistics of the 72-well district A corpus.
DISTRICT_A_STATS: dict[str, FeatureStats] = {
    "G1": FeatureStats(1570.38, 1554.00, 895.63, 2163.00),
    "G2": FeatureStats(17.23, 0.00, 0.00, 173.40),
    "G3": FeatureStats(243.23, 178.15, 0.00, 1036.00),
    "G4": FeatureStats(102.49, 72.30, 0.00, 417.00),
    "G5": FeatureStats(1019.13, 1057.25, 0.00, 1788.00),
    "G6": FeatureStats(127.79, 51.75, 0.00, 1362.00),
    "G7": FeatureStats(43.23, 0.00, 0.00, 912.00),
    "G8": FeatureStats(17.28, 0.00, 0.00, 836.00),
    "G9": FeatureStats(1262.36, 1328.25, 0.00, 1975.60),
    "G10": FeatureStats(3291330.10, 3291291.00, 3283866.00, 3297271.10),
    "G11": FeatureStats(18738860.64, 18739164.65, 18731627.60, 18747507.10),
    "G12": FeatureStats(3463.95, 3530.85, 2399.20, 4345.74),
    "G13": FeatureStats(4.42, 4.44, 3.57, 5.07),
    "G14": FeatureStats(3.93, 3.95, 2.46, 4.89),
    "G15": FeatureStats(1.60, 1.60, 1.30, 1.90),
    "G16": FeatureStats(79.23, 78.16, 65.45, 100.77),
    "O1": FeatureStats(35471.40, 34738.04, 18001.00, 60115.00),
    "O2": FeatureStats(2897.63, 2992.30, 223.40, 6181.68),
    "O3": FeatureStats(39897.46, 38964.49, 20013.58, 65022.80),
    "O4": FeatureStats(1385.30, 1254.15, 604.60, 2682.60),
    "O5": FeatureStats(68.05, 61.37, 40.84, 107.30),
    "O6": FeatureStats(474.61, 628.20, 9.18, 920.02),
    "O7": FeatureStats(1956.57, 1933.50, 1229.13, 2335.37),
    "O8": FeatureStats(1535.71, 1887.98, 187.98, 2196.65),
    "O9": FeatureStats(62.42, 24.15, 0.00, 968.00),
    "O10": FeatureStats(917.03, 773.37, 214.30, 1861.60),
    "O11": FeatureStats(405.84, 353.83, 108.90, 921.10),
    "O12": FeatureStats(6.47, 6.49, 5.18, 8.55),
    "O13": FeatureStats(76.74, 60.00, 28.00, 255.00),
    "O14": FeatureStats(45.22, 44.74, 30.63, 57.74),
    "O15": FeatureStats(76.93, 78.72, 57.73, 92.72),
    "O16": FeatureStats(20.13, 20.00, 10.00, 30.00),
}

# Summary statistics of the 212-well district B corpus.
DISTRICT_B_STATS: dict[str, FeatureStats] = {
    "G1": FeatureStats(1468.05, 1500.00, 786.00, 2203.00),
    "G2": FeatureStats(28.63, 0.00, 0.00, 551.50),
    "G3": FeatureStats(386.18, 306.00, 0.00, 1748.00),
    "G4": FeatureStats(89.30, 50.00, 0.00, 666.00),
    "G5": FeatureStats(743.99, 726.00, 0.00, 1613.00),
    "G6": FeatureStats(152.25, 39.00, 0.00, 1303.00),
    "G7": FeatureStats(54.09, 0.00, 0.00, 757.00),
    "G8": FeatureStats(18.47, 0.00, 0.00, 471.00),
    "G9": FeatureStats(1111.93, 1216.60, 0.00, 1867.20),
    "G10": FeatureStats(3284124.81, 3284647.66, 3272450.10, 3296023.60),
    "G11": FeatureStats(18743263.60, 18743721.90, 18732341.10, 18751582.80),
    "G12": FeatureStats(2728.33, 2646.00, 1278.20, 5645.00),
    "G13": FeatureStats(4.71, 4.71, 2.93, 6.37),
    "G14": FeatureStats(3.59, 3.62, 2.00, 5.03),
    "G15": FeatureStats(1.42, 1.46, 0.98, 1.69),
    "G16": FeatureStats(72.65, 73.17, 40.02, 88.87),
    "O1": FeatureStats(31159.44, 31170.63, 3683.58, 57188.90),
    "O2": FeatureStats(2611.47, 2391.16, 129.40, 7914.90),
    "O3": FeatureStats(35173.27, 34940.60, 3840.13, 59781.90),
    "O4": FeatureStats(966.16, 988.81, 111.90, 1786.00),
    "O5": FeatureStats(50.27, 50.65, 31.22, 79.45),
    "O6": FeatureStats(20.06, 20.06, 12.54, 29.79),
    "O7": FeatureStats(1803.70, 1820.16, 1240.64, 2178.36),
    "O8": FeatureStats(706.50, 701.00, 489.51, 1009.85),
    "O9": FeatureStats(41.55, 38.80, 0.00, 241.90),
    "O10": FeatureStats(696.12, 709.20, 87.30, 1273.80),
    "O11": FeatureStats(228.49, 215.20, 19.60, 438.50),
    "O12": FeatureStats(7.44, 7.28, 4.81, 23.70),
    "O13": FeatureStats(48.37, 49.00, 5.00, 75.00),
    "O14": FeatureStats(35.69, 34.91, 16.08, 64.48),
    "O15": FeatureStats(74.07, 75.00, 36.00, 97.00),
    "O16": FeatureStats(18.67, 19.00, 2.00, 29.00),
}

# Default linkage between features and the latent productivity score.  Both
# the geological and operational blocks carry signal so feature-partitioned
# training has something to gain from every party.
DEFAULT_SIGNAL_WEIGHTS: dict[str, float] = {
    "G1": 1.0,
    "G13": 0.8,
    "G15": 0.6,
    "O3": 1.0,
    "O16": 0.7,
}

HIGH_YIELD_THRESHOLD = 2.0e4  # latent productivity cutoff, m^3/day
DISTRICT_A_POSITIVE_RATE = 0.3472
DISTRICT_B_POSITIVE_RATE = 0.6887


@dataclass(frozen=True)
class DistrictSpec:
    name: str
    n_samples: int
    positive_rate: float
    stats: dict[str, FeatureStats]


@dataclass(frozen=True)
class SynthConfig:
    """Everything the generator needs; fully determines the output with the seed."""

    districts: tuple[DistrictSpec, ...] = ()
    signal_weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SIGNAL_WEIGHTS))
    label_threshold: float = HIGH_YIELD_THRESHOLD
    noise_scale: float = 0.25  # label noise, relative to the signal spread
    rate_tolerance: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if not self.districts:
            object.__setattr__(
                self,
                "districts",
                (
                    DistrictSpec("A", 72, DISTRICT_A_POSITIVE_RATE, DISTRICT_A_STATS),
                    DistrictSpec("B", 212, DISTRICT_B_POSITIVE_RATE, DISTRICT_B_STATS),
                ),
            )
        for d in self.districts:
            if not 0 < d.positive_rate < 1:
                raise DataError(f"positive rate for district {d.name} must be in (0,1)")
            if d.n_samples < 1:
                raise DataError("district sample count must be positive")


def default_synth_config(seed: int = 0) -> SynthConfig:
    return SynthConfig(seed=seed)


def synth_config_from_dict(doc: dict, seed: int = 0) -> SynthConfig:
    """A generator config from its JSON document.

    ``districts`` lists ``name``, ``n_samples``, ``positive_rate`` and,
    optionally, ``stats`` (feature -> [mean, median, low, high]; without it
    district A's or B's published stats); ``seed`` defaults to ``seed``.
    ``noise_scale``, ``signal_weights`` (an empty one too) and
    ``label_threshold`` keep :class:`SynthConfig`'s defaults when absent.
    """
    published = {"A": DISTRICT_A_STATS, "B": DISTRICT_B_STATS}
    districts = tuple(
        DistrictSpec(d["name"], d["n_samples"], d["positive_rate"],
                     {name: FeatureStats(*v) for name, v in d["stats"].items()}
                     if "stats" in d else published[d["name"]])
        for d in doc.get("districts", ()))
    given = {k: doc[k] for k in ("noise_scale", "label_threshold") if k in doc}
    if doc.get("signal_weights"):
        given["signal_weights"] = doc["signal_weights"]
    return SynthConfig(districts=districts, seed=doc.get("seed", seed), **given)


# Concentrations kappa = a + b tried by _fit_unit_beta.
_BETA_KAPPAS = np.geomspace(0.05, 500.0, 60)


def _fit_unit_beta(mean_u: float, median_u: float) -> tuple[float, float]:
    """Pick Beta shape parameters with the target mean whose median is closest.

    Mean is matched exactly via a = mean*kappa, b = (1-mean)*kappa; kappa is
    the first of ``_BETA_KAPPAS`` whose median misses ``median_u`` least.
    One ``betaincinv`` call gives the medians of the whole grid: the
    quantiles ``scipy.stats.beta.ppf`` gives, without importing
    ``scipy.stats``.
    """
    m = min(max(mean_u, 1e-4), 1 - 1e-4)
    a, b = m * _BETA_KAPPAS, (1 - m) * _BETA_KAPPAS
    best = np.argmin(np.abs(betaincinv(a, b, 0.5) - median_u))
    return a[best], b[best]


def _sample_feature(stats: FeatureStats, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values in [low, high] honouring the published mean and median.

    Quantile placement plus a bounded mean-correction loop keeps the
    empirical mean well inside the 5% tolerance even for small n; a median
    of zero switches to a point mass at zero with a continuous tail.
    """
    span = stats.high - stats.low
    if span <= 0:
        return np.full(n, stats.low)

    mean_u = (stats.mean - stats.low) / span
    median_u = (stats.median - stats.low) / span

    if stats.median == stats.low and mean_u > 1e-9:
        # Zero-inflated: just over half the samples sit exactly at the minimum.
        p0 = 0.55
        if mean_u / (1 - p0) >= 0.98:
            p0 = max(0.51, 1 - mean_u / 0.98)
        n0 = int(round(p0 * n))
        n0 = min(max(n0, (n + 2) // 2), n - 1)
        tail_mean = mean_u * n / max(n - n0, 1)
        tail_mean = min(tail_mean, 0.97)
        a, b = tail_mean * 1.5, (1 - tail_mean) * 1.5
        u = (np.arange(n - n0) + 0.5) / (n - n0)
        tail = betaincinv(a, b, u)
        values_u = np.concatenate([np.zeros(n0), tail])
    else:
        a, b = _fit_unit_beta(mean_u, median_u)
        u = (np.arange(n) + 0.5) / n
        values_u = betaincinv(a, b, u)

    values = stats.low + values_u * span
    # Nudge toward the published mean; clipping keeps values inside the range.
    freeze = values == stats.low if stats.median == stats.low else np.zeros(n, dtype=bool)
    adjustable = ~freeze
    for _ in range(60):
        err = stats.mean - float(values.mean())
        tol = 0.005 * max(abs(stats.mean), 1e-12)
        if abs(err) <= tol:
            break
        k = int(adjustable.sum())
        if k == 0:
            break
        values[adjustable] = np.clip(values[adjustable] + err * n / k, stats.low, stats.high)
    else:
        raise GenerationError("could not calibrate feature mean within tolerance")
    return rng.permutation(values)


def _district_features(spec: DistrictSpec, rng: np.random.Generator) -> np.ndarray:
    columns = []
    for name in ALL_FEATURES:
        if name not in spec.stats:
            raise DataError(f"district {spec.name} lacks statistics for {name}")
        columns.append(_sample_feature(spec.stats[name], spec.n_samples, rng))
    return np.column_stack(columns)


def _global_feature_ranges(config: SynthConfig) -> dict[str, tuple[float, float]]:
    ranges = {}
    for name in ALL_FEATURES:
        lows = [d.stats[name].low for d in config.districts]
        highs = [d.stats[name].high for d in config.districts]
        ranges[name] = (min(lows), max(highs))
    return ranges


def _latent_scores(X: np.ndarray, config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    ranges = _global_feature_ranges(config)
    score = np.zeros(X.shape[0])
    for name, weight in config.signal_weights.items():
        if name not in ALL_FEATURES:
            raise DataError(f"unknown signal feature {name}")
        lo, hi = ranges[name]
        col = X[:, ALL_FEATURES.index(name)]
        z = (col - lo) / (hi - lo) if hi > lo else np.zeros_like(col)
        score += weight * z
    spread = float(score.std())
    if config.noise_scale > 0:
        score = score + rng.normal(0.0, config.noise_scale * max(spread, 1e-12), size=score.shape)
    return score


def _labels_from_scores(
    scores: np.ndarray, spec: DistrictSpec, threshold: float, tolerance: float
) -> np.ndarray:
    span = float(scores.max() - scores.min())
    if span <= 1e-12:
        raise GenerationError(
            f"district {spec.name}: degenerate latent scores, target rate unreachable"
        )
    # Affine-map the scores so the productivity cutoff lands at the quantile
    # that realizes the target positive rate.
    cut = float(np.quantile(scores, 1 - spec.positive_rate))
    if cut <= scores.min():
        cut = float(np.nextafter(scores.min(), scores.max()))
    productivity = threshold + (scores - cut) * (threshold / span)
    labels = (productivity >= threshold).astype(np.int64)
    rate = float(labels.mean())
    if abs(rate - spec.positive_rate) > tolerance:
        raise GenerationError(
            f"district {spec.name}: realized rate {rate:.4f} misses target "
            f"{spec.positive_rate:.4f} by more than {tolerance}"
        )
    return labels


def synth_generate(config: SynthConfig | None = None) -> tuple[PartyDataset, ...]:
    """Generate one labeled dataset per configured district, fully seeded."""
    config = config or default_synth_config()
    datasets = []
    next_id = 0
    for i, spec in enumerate(config.districts):
        rng = np.random.default_rng([config.seed, 1789, i])
        X = _district_features(spec, rng)
        scores = _latent_scores(X, config, rng)
        labels = _labels_from_scores(
            scores, spec, config.label_threshold, config.rate_tolerance
        )
        ids = np.arange(next_id, next_id + spec.n_samples, dtype=np.int64)
        next_id += spec.n_samples
        datasets.append(
            PartyDataset(
                party_id=spec.name,
                sample_ids=ids,
                features=X,
                feature_names=ALL_FEATURES,
                labels=labels,
            )
        )
    return tuple(datasets)


# ---------------------------------------------------------------------------
# CSV interface


def write_csv(dataset: PartyDataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        _write_csv_stream(dataset, fh)


def _write_csv_stream(dataset: PartyDataset, fh) -> None:
    writer = csv.writer(fh)
    header = [ID_COLUMN, *dataset.feature_names]
    if dataset.labels is not None:
        header.append(LABEL_COLUMN)
    writer.writerow(header)
    for i in range(dataset.n_samples):
        row = [str(int(dataset.sample_ids[i]))]
        row += [f"{v:.17g}" for v in dataset.features[i]]
        if dataset.labels is not None:
            row.append(str(int(dataset.labels[i])))
        writer.writerow(row)


def load_csv(path: str, schema: tuple[str, ...] = ALL_FEATURES, party_id: str | None = None) -> PartyDataset:
    """Load and validate a well CSV; any malformed cell is a hard error."""
    with open(path, newline="") as fh:
        return _load_csv_stream(fh, schema, party_id or path)


def _load_csv_stream(fh, schema: tuple[str, ...], party_id: str) -> PartyDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file") from None
    if not header or header[0] != ID_COLUMN:
        raise DataError(f"first column must be {ID_COLUMN!r}")
    has_label = header[-1] == LABEL_COLUMN
    feature_cols = header[1 : -1 if has_label else len(header)]
    if tuple(feature_cols) != tuple(schema):
        unknown = set(feature_cols) - set(schema)
        if unknown:
            raise DataError(f"unknown columns: {sorted(unknown)}")
        raise DataError("header does not match the expected feature schema")
    ids, rows, labels = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
        for col_name, cell in zip(header, row):
            if cell.strip() == "":
                raise DataError(f"row {lineno}: missing value in column {col_name!r}")
        try:
            ids.append(int(row[0]))
            rows.append([float(c) for c in row[1 : 1 + len(schema)]])
            if has_label:
                labels.append(int(row[-1]))
        except ValueError as exc:
            raise DataError(f"row {lineno}: non-numeric cell ({exc})") from None
    if not rows:
        raise DataError("no data rows")
    return PartyDataset(
        party_id=party_id,
        sample_ids=np.array(ids, dtype=np.int64),
        features=np.array(rows, dtype=np.float64),
        feature_names=tuple(schema),
        labels=np.array(labels, dtype=np.int64) if has_label else None,
    )


# ---------------------------------------------------------------------------
# Partitioning


def join_datasets(datasets: list[PartyDataset], party_id: str = "joined") -> PartyDataset:
    """Stack same-schema datasets sample-wise (the open-share pool)."""
    schemas = {d.feature_names for d in datasets}
    if len(schemas) != 1:
        raise DataError("cannot join datasets with differing schemas")
    has_labels = [d.labels is not None for d in datasets]
    if any(has_labels) and not all(has_labels):
        raise DataError("cannot join labeled with unlabeled datasets")
    return PartyDataset(
        party_id=party_id,
        sample_ids=np.concatenate([d.sample_ids for d in datasets]),
        features=np.vstack([d.features for d in datasets]),
        feature_names=datasets[0].feature_names,
        labels=np.concatenate([d.labels for d in datasets]) if all(has_labels) else None,
    )


def vertical_partition(
    dataset: PartyDataset,
    feature_split: dict[str, tuple[str, ...]] | None = None,
    label_party: str | None = None,
) -> dict[str, PartyDataset]:
    """Split columns across parties over the same aligned samples.

    Default split: the operational block plus labels to the asset owner
    (``oil_company``), the geological block to ``exploration_institute``.
    """
    if feature_split is None:
        feature_split = {
            "oil_company": OP_FEATURES,
            "exploration_institute": GEO_FEATURES,
        }
        label_party = label_party or "oil_company"
    if label_party is None:
        raise DataError("a label-owning party must be named")
    if label_party not in feature_split:
        raise DataError(f"label party {label_party!r} not among the parties")
    assigned: list[str] = []
    for cols in feature_split.values():
        assigned.extend(cols)
    if len(assigned) != len(set(assigned)):
        raise DataError("overlapping vertical feature assignment")
    if set(assigned) != set(dataset.feature_names):
        raise DataError("vertical split must cover every feature exactly once")
    parts = {}
    for party, cols in feature_split.items():
        idx = [dataset.feature_names.index(c) for c in cols]
        parts[party] = PartyDataset(
            party_id=party,
            sample_ids=dataset.sample_ids.copy(),
            features=dataset.features[:, idx],
            feature_names=tuple(cols),
            labels=dataset.labels.copy() if party == label_party and dataset.labels is not None else None,
        )
    return parts


# ---------------------------------------------------------------------------
# Fold planning


@dataclass(frozen=True)
class Fold:
    fold_id: int
    train_idx: np.ndarray  # training rows excluding the validation subset
    valid_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def full_train_idx(self) -> np.ndarray:
        return np.sort(np.concatenate([self.train_idx, self.valid_idx]))


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[Fold, ...]
    seed: int


def has_both_classes(labels: np.ndarray) -> bool:
    """Whether 0/1 ``labels`` hold both classes; an empty set does not."""
    return labels.size > 0 and bool(labels.min() != labels.max())


def split_train_valid_test(
    dataset: PartyDataset, k: int = 5, valid_fraction: float = 0.10, seed: int = 0
) -> FoldPlan:
    """Stratified k-fold plan with a held-out validation slice per fold.

    Each rotation uses one group as the test set; a stratified
    ``valid_fraction`` of the remaining training rows is reserved for
    hyperparameter scoring, disjoint from the test rows.

    The exact rule, which ``tests/test_data.py`` pins to the byte: attempt
    ``a`` (0 to 19) draws from ``np.random.default_rng([seed, 53, a])``.

    - Dealing: class 0, then class 1, is permuted once, and its ``j``-th
      permuted row goes to the ``(j mod k)``-th group in order of current
      size, then group index.  As class 0 leaves the groups it reached last
      one row short, this is the ``j``-th row of the two permutations
      together going to group ``j mod k``.  Group ``f`` is fold ``f``'s
      test rows.
    - If a group lacks either class, the attempt fails.
    - Validation: for each fold in order, the training pool is every other
      group and ``n_valid = max(1, round(valid_fraction * |pool|))``.  Class
      0, then class 1, gives the first ``share`` rows of one permutation of
      its pool rows, where ``share = round(n_valid * |class| / |pool|)``
      clamped to ``[1, max(|class| - 1, 1)]``.  The other pool rows train.
      If they lack either class, the attempt fails.

    Every index array is sorted int64.  ``DataError`` is raised without
    labels, for ``k < 2``, for fewer rows than ``k``, and when all 20
    attempts fail.
    """
    if dataset.labels is None:
        raise DataError("fold planning needs labels")
    if k < 2:
        raise DataError("k must be at least 2 so a test fold exists")
    if dataset.n_samples < k:
        raise DataError("fewer samples than folds")
    labels = dataset.labels
    is_class = (labels == 0, labels == 1)
    for attempt in range(20):
        rng = np.random.default_rng([seed, 53, attempt])
        # class 1 is dealt on from where class 0 stopped, so the per-class
        # remainders do not pile onto the same folds
        dealt = np.concatenate([rng.permutation(np.flatnonzero(is_class[cls])) for cls in (0, 1)])
        group = np.empty(labels.size, dtype=np.int64)
        group[dealt] = np.arange(labels.size) % k
        tests = [np.flatnonzero(group == g) for g in range(k)]
        if not all(has_both_classes(labels[t]) for t in tests):
            continue
        folds = []
        for fold_id, test_idx in enumerate(tests):
            in_pool = group != fold_id
            n_pool = labels.size - test_idx.size
            n_valid = max(1, int(round(valid_fraction * n_pool)))
            valid_parts = []
            for cls in (0, 1):
                cls_idx = np.flatnonzero(in_pool & is_class[cls])
                share = int(round(n_valid * len(cls_idx) / n_pool))
                share = min(max(share, 1), max(len(cls_idx) - 1, 1))
                valid_parts.append(rng.permutation(cls_idx)[:share])
            valid_idx = np.sort(np.concatenate(valid_parts))
            in_pool[valid_idx] = False
            train_idx = np.flatnonzero(in_pool)
            if not has_both_classes(labels[train_idx]):
                break
            folds.append(
                Fold(
                    fold_id=fold_id,
                    train_idx=train_idx,
                    valid_idx=valid_idx,
                    test_idx=test_idx,
                )
            )
        else:
            return FoldPlan(folds=tuple(folds), seed=seed)
    raise DataError("could not build stratified folds with both classes everywhere")
