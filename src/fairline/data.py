"""Dataset CSV reading and writing, synthetic data, splitting, and batching.

A Dataset holds a standardized feature matrix plus binary label and binary
group (sensitive-attribute) vectors. CSV ingestion standardizes to the
statistics of the loaded file; split() re-standardizes both partitions with
training-split statistics, so the training partition always has exact
per-column mean 0 / stdev 1 (one-hot indicator columns stay 0/1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ParameterError,
    RowParseError,
    SchemaError,
    ShapeError,
    ValidationError,
)

# Stdev below this is treated as a constant column, which standardizes to zeros.
STD_GUARD = 1e-12

# Cluster geometry of the synthetic generator: distance between the two label
# clusters and between the two group clusters, before noise is added. The
# group shift keeps group membership recoverable from the features at
# noise = 1, which is what makes the fairness endpoint able to cancel the
# group-mean difference instead of merely flattening its predictions.
_LABEL_SHIFT = 3.0
_GROUP_SHIFT = 2.5


@dataclass(frozen=True)
class CsvSchema:
    """Which columns carry the label / sensitive attribute and which raw
    values map to 1."""

    label_column: str
    sensitive_column: str
    positive_label_value: str = "1"
    positive_sensitive_value: str = "1"
    include_sensitive: bool = False


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) float64, entries 0.0 or 1.0
    sensitive: np.ndarray  # (n,) float64, entries 0.0 or 1.0
    feature_names: list[str]
    # True for columns that standardization applies to (numeric-origin);
    # one-hot indicator columns are left as 0/1.
    standardize_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.sensitive.shape != (n,):
            raise ShapeError("labels/sensitive length must match feature rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise ShapeError("feature_names length must match feature columns")
        for name, v in (("labels", self.labels), ("sensitive", self.sensitive)):
            if not np.all((v == 0.0) | (v == 1.0)):
                raise ValidationError(f"{name} must contain only 0/1 values")
        if self.standardize_mask is None:
            self.standardize_mask = np.ones(self.features.shape[1], dtype=bool)
        if not (np.any(self.sensitive == 0.0) and np.any(self.sensitive == 1.0)):
            raise ValidationError("dataset must contain both sensitive groups")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset, without re-standardization."""
        return Dataset(
            self.features[idx],
            self.labels[idx],
            self.sensitive[idx],
            list(self.feature_names),
            self.standardize_mask.copy(),
        )


def _standardize_columns(x: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """x with the mask columns standardized by ref's column mean and population stdev."""
    mean, std = ref.mean(axis=0), ref.std(axis=0)
    scale = np.where(std > STD_GUARD, std, 1.0)
    out = x.copy()
    out[:, mask] = (x[:, mask] - mean[mask]) / scale[mask]
    return out


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    Columns other than the label/sensitive columns become features: a column
    where every cell parses as a float is numeric (standardized to the
    statistics of this file); anything else is one-hot encoded in sorted
    category order. Cells are stripped of surrounding whitespace; empty cells
    are rejected with their line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        for col in (schema.label_column, schema.sensitive_column):
            if col not in header:
                raise SchemaError(f"column '{col}' not found in header {header}")
        rows: list[list[str]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise RowParseError(line_no, f"expected {len(header)} cells, got {len(row)}")
            cells = [c.strip() for c in row]
            for col_name, cell in zip(header, cells):
                if cell == "":
                    raise RowParseError(line_no, f"missing value in column '{col_name}'")
            rows.append(cells)
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    label_ix = header.index(schema.label_column)
    sens_ix = header.index(schema.sensitive_column)
    labels = np.array(
        [1.0 if r[label_ix] == schema.positive_label_value else 0.0 for r in rows]
    )
    sensitive = np.array(
        [1.0 if r[sens_ix] == schema.positive_sensitive_value else 0.0 for r in rows]
    )
    if not (np.any(sensitive == 0.0) and np.any(sensitive == 1.0)):
        raise ValidationError(
            f"sensitive column '{schema.sensitive_column}' has a single group"
        )

    feature_cols = [i for i in range(len(header)) if i not in (label_ix, sens_ix)]
    columns: list[np.ndarray] = []
    names: list[str] = []
    numeric_flags: list[bool] = []
    for i in feature_cols:
        raw = [r[i] for r in rows]
        try:
            values = [float(c) for c in raw]
            for row_ix, v in enumerate(values):
                if not np.isfinite(v):
                    raise RowParseError(
                        row_ix + 2,
                        f"non-finite numeric value '{raw[row_ix]}' in column "
                        f"'{header[i]}'")
            columns.append(np.array(values))
            names.append(header[i])
            numeric_flags.append(True)
        except ValueError:
            for value in sorted(set(raw)):
                columns.append(np.array([1.0 if c == value else 0.0 for c in raw]))
                names.append(f"{header[i]}={value}")
                numeric_flags.append(False)
    if schema.include_sensitive:
        columns.append(sensitive.copy())
        names.append(schema.sensitive_column)
        numeric_flags.append(False)
    if not columns:
        raise SchemaError(f"{path}: no feature columns besides label/sensitive")

    features = np.column_stack(columns)
    mask = np.array(numeric_flags, dtype=bool)
    features = _standardize_columns(features, features, mask)
    return Dataset(features, labels, sensitive, names, mask)


def write_csv(ds: Dataset, path) -> None:
    """Write ds as an RFC-4180 CSV that load_csv reads back: a header row,
    then per row the features as repr floats and label and group as 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*ds.feature_names, "label", "group"])
        # Only names can hold a comma, a quote or a line break; numbers never
        # need quoting, and joining them skips csv's per-cell scan.
        for row, y, s in zip(ds.features.tolist(), ds.labels.tolist(), ds.sensitive.tolist()):
            fh.write(",".join(map(repr, row)) + f",{int(y)},{int(s)}\n")


def synth_biased(n: int, d: int, group_fraction: float, base_rate_gap: float,
                 noise: float, seed: int) -> Dataset:
    """Generate a biased two-group binary classification dataset.

    Group membership is Bernoulli(group_fraction); the positive-label rate is
    0.5 + gap/2 in group 0 and 0.5 - gap/2 in group 1, so group 0's rate minus
    group 1's is ~base_rate_gap. Features are Gaussian clusters shifted along
    one fixed direction by label and another by group, then standardized, so a
    linear model separates labels while group membership leaks into the
    features.
    """
    if n < 40:
        raise ParameterError("must be >= 40", param="n")
    if d < 2:
        raise ParameterError("must be >= 2", param="d")
    if not 0.0 < group_fraction < 1.0:
        raise ParameterError("must be in (0, 1)", param="group_fraction")
    if not 0.0 <= base_rate_gap <= 1.0:
        raise ParameterError("must be in [0, 1]", param="base_rate_gap")
    if not noise > 0.0:
        raise ParameterError("must be > 0", param="noise")
    if seed < 0:
        raise ParameterError("must be non-negative", param="seed")

    rng = np.random.default_rng(seed)
    sensitive = (rng.random(n) < group_fraction).astype(np.float64)
    rate = np.where(sensitive == 0.0, 0.5 + base_rate_gap / 2, 0.5 - base_rate_gap / 2)
    labels = (rng.random(n) < rate).astype(np.float64)
    if not (np.any(sensitive == 0.0) and np.any(sensitive == 1.0)):
        raise ValidationError("group_fraction too extreme for n: a group came out empty")

    u_label = np.ones(d) / np.sqrt(d)
    u_group = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    u_group /= np.linalg.norm(u_group)
    features = (
        _LABEL_SHIFT * (labels - 0.5)[:, None] * u_label[None, :]
        + _GROUP_SHIFT * (sensitive - 0.5)[:, None] * u_group[None, :]
        + noise * rng.standard_normal((n, d))
    )
    features = _standardize_columns(features, features, np.ones(d, dtype=bool))
    names = [f"x{i + 1}" for i in range(d)]
    return Dataset(features, labels, sensitive, names)


def check_test_fraction(test_fraction: float) -> None:
    """split's rule for test_fraction: strictly between 0 and 1."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError("must be in (0, 1)", param="test_fraction")


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test split, re-standardized on train stats.

    Reshuffles up to 10 extra times if a partition would lose a sensitive
    group. Standardization statistics come from the training partition only
    and are applied to both (one-hot columns excluded).
    """
    check_test_fraction(test_fraction)
    if seed < 0:
        raise ParameterError("must be non-negative", param="seed")
    n = ds.n
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)

    for attempt in range(11):
        perm = np.random.default_rng([seed, attempt]).permutation(n)
        test_ix = np.sort(perm[:n_test])
        train_ix = np.sort(perm[n_test:])
        ok = all(
            np.any(ds.sensitive[ix] == g)
            for ix in (train_ix, test_ix)
            for g in (0.0, 1.0)
        )
        if ok:
            break
    else:
        raise ValidationError("split: could not retain both groups in both partitions")

    train = ds.take(train_ix)
    test = ds.take(test_ix)
    ref, mask = train.features, train.standardize_mask
    train.features = _standardize_columns(ref, ref, mask)
    test.features = _standardize_columns(test.features, ref, mask)
    return train, test


def batches(ds: Dataset, batch_size: int, shuffle_seed: int, epoch: int) -> list[np.ndarray]:
    """Index slices covering every row exactly once, shuffled per epoch.

    The permutation is seeded by (shuffle_seed, epoch); the last slice may be
    short but is never dropped.
    """
    if batch_size < 2:
        raise ParameterError("must be >= 2", param="batch_size")
    if shuffle_seed < 0:
        raise ParameterError("must be non-negative", param="shuffle_seed")
    if epoch < 0:
        raise ParameterError("must be non-negative", param="epoch")
    perm = np.random.default_rng([shuffle_seed, epoch]).permutation(ds.n)
    return [perm[i:i + batch_size] for i in range(0, ds.n, batch_size)]
