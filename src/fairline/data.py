"""Dataset CSV reading and writing, the feature encoding, synthetic data,
splitting, and batching.

A Dataset holds its raw encoded feature matrix, binary label and group
(sensitive-attribute) vectors, and the FeatureTransform that maps raw to
model inputs; it derives its features and feature names through that
transform alone. FeatureTransform is the one owner of how a CSV is read:
its CsvSchema (the label and sensitive columns, the cell values that count
as 1, whether the group is a feature too), which source columns are
features, which are numeric and which one-hot (over a sorted vocabulary),
and one mean and scale per encoded column. load_csv reads a CSV through a
given transform, or through one fitted on the file under a given schema.
split refits the statistics on the training rows' raw values and applies
them to both parts, so the training partition has exact per-column mean 0 /
stdev 1 (one-hot and group columns stay 0/1). Training records the
transform in the checkpoint, and serving loads a CSV through it, so served
rows get the training schema and encoding; a checkpoint that records none
is refused. write_csv writes the raw rows back in the transform's schema,
one-hot blocks as their category, one block of rows at a time, so its
output reads back through the transform to the same raw matrix; it refuses
a raw matrix that would not.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from itertools import chain

import numpy as np

from .errors import (
    CheckpointError,
    DataError,
    ParameterError,
    RowParseError,
    SchemaError,
    ShapeError,
    ValidationError,
    check_integer,
    check_real,
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
    """Which columns carry the label / sensitive attribute, which raw values
    map to 1, and whether the group is a feature too. CsvSchema() is the
    default schema: columns label and group, 1 for 1. The four names and
    values must be text and include_sensitive a Python or numpy bool, kept
    as a bool; anything else raises ParameterError. load_csv strips every
    cell, so a positive value that is empty or has surrounding whitespace,
    which no cell could match, raises ParameterError, as does a label column
    that is also the sensitive column."""

    label_column: str = "label"
    sensitive_column: str = "group"
    positive_label_value: str = "1"
    positive_sensitive_value: str = "1"
    include_sensitive: bool = False

    def __post_init__(self):
        for name in ("label_column", "sensitive_column", "positive_label_value",
                     "positive_sensitive_value"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ParameterError(f"must be text, got {value!r}", param=name)
            if name.startswith("positive") and (not value or value != value.strip()):
                raise ParameterError(f"must be non-empty without surrounding whitespace, "
                                     f"got {value!r}", param=name)
        if not isinstance(self.include_sensitive, (bool, np.bool_)):
            raise ParameterError(f"must be a bool, got {self.include_sensitive!r}",
                                 param="include_sensitive")
        object.__setattr__(self, "include_sensitive", bool(self.include_sensitive))
        if self.label_column == self.sensitive_column:
            raise ParameterError(f"must differ from the sensitive column, got "
                                 f"{self.label_column!r} for both", param="label_column")


@dataclass(frozen=True, eq=False)
class FeatureTransform:
    """The feature encoding: source columns -> raw matrix -> features.

    schema says which columns are the label and the group and how they read.
    columns are the source feature columns in file order. vocab holds, per
    column, None for a numeric column (one encoded column) or the sorted
    categories of a one-hot column (one encoded column each). With
    schema.include_sensitive the 0/1 group is one more encoded column, last.
    mean and scale hold one value per encoded column; one-hot and group
    columns have mean 0 and scale 1, so apply is (raw - mean) / scale
    throughout.

    The names and categories are those load_csv could read back from what
    write_csv writes, else ParameterError: the names are text without
    surrounding whitespace, distinct, and neither the label nor the
    sensitive column; each vocab entry is None or a non-empty tuple of
    distinct, non-empty texts without surrounding whitespace, in sorted
    order.
    """

    columns: tuple[str, ...]
    vocab: tuple[tuple[str, ...] | None, ...]
    schema: CsvSchema
    mean: np.ndarray
    scale: np.ndarray

    META_KEY = "transform"  # the checkpoint metadata key that holds the JSON form

    def __post_init__(self):
        if len(self.vocab) != len(self.columns):
            raise ParameterError("must hold one entry per column", param="vocab")
        taken = {self.schema.label_column, self.schema.sensitive_column}
        for name, cats in zip(self.columns, self.vocab):
            if not _stripped_text(name):
                raise ParameterError(f"must be texts without surrounding whitespace, "
                                     f"got {name!r}", param="columns")
            if name in taken:
                raise ParameterError(f"must be distinct and not the label or sensitive "
                                     f"column, got {name!r}", param="columns")
            taken.add(name)
            if cats is not None and not (
                    isinstance(cats, tuple) and cats
                    and all(_stripped_text(c) and c for c in cats)
                    and list(cats) == sorted(set(cats))):
                raise ParameterError(f"of column {name!r} must be None or a sorted, non-empty "
                                     f"tuple of distinct, non-empty texts without "
                                     f"surrounding whitespace, got {cats!r}", param="vocab")

    @classmethod
    def _unfitted(cls, columns, vocab, schema: CsvSchema) -> "FeatureTransform":
        width = sum(1 if v is None else len(v) for v in vocab) + int(schema.include_sensitive)
        return cls(tuple(columns), tuple(vocab), schema, np.zeros(width), np.ones(width))

    @classmethod
    def numeric(cls, columns) -> "FeatureTransform":
        """Every column numeric under the default schema, with identity
        statistics."""
        return cls._unfitted(columns, [None] * len(columns), CsvSchema())

    @classmethod
    def infer(cls, header: list[str], cols: list[list[str]],
              schema: CsvSchema) -> tuple["FeatureTransform", dict[str, np.ndarray]]:
        """The encoding of cols (one list of cells per header column), with
        identity statistics: every column but the label and sensitive ones,
        numeric where every cell parses as a float, else one-hot over its
        sorted distinct values; the group is a feature as the schema says.
        Also returns each numeric column's floats by name, parsed with one
        float() per cell, for encode to take without parsing again."""
        columns, vocab, floats = [], [], {}
        for name, cells in zip(header, cols):
            if name in (schema.label_column, schema.sensitive_column):
                continue
            try:
                floats[name] = _floats(cells)
                vocab.append(None)
            except ValueError:
                vocab.append(tuple(sorted(set(cells))))
            columns.append(name)
        if not columns and not schema.include_sensitive:
            raise SchemaError("no feature columns besides label/sensitive")
        return cls._unfitted(columns, vocab, schema), floats

    @property
    def width(self) -> int:
        """Number of encoded columns."""
        return self.mean.shape[0]

    def feature_names(self) -> list[str]:
        """One name per encoded column: a numeric column's own name,
        "<column>=<category>" in a one-hot block, then the group column's."""
        names = []
        for name, cats in zip(self.columns, self.vocab):
            names += [name] if cats is None else [f"{name}={c}" for c in cats]
        return names + [self.schema.sensitive_column] * self.schema.include_sensitive

    def _numeric(self) -> np.ndarray:
        mask = [flag for cats in self.vocab
                for flag in ([True] if cats is None else [False] * len(cats))]
        return np.array(mask + [False] * self.schema.include_sensitive, dtype=bool)

    def encode(self, header: list[str], cols: list[list[str]], lines: list[int],
               sensitive: np.ndarray, floats: dict[str, np.ndarray]) -> np.ndarray:
        """The (len(lines), width) raw matrix of cols, one list of cells per
        header column, lines[k] being row k's file line. floats holds numeric
        columns already parsed (infer's), by name; any other numeric column
        is parsed here, once per cell. A column the transform names must be
        in the header (SchemaError); a cell of a numeric column must be a
        finite number and one of a one-hot column in its vocabulary
        (RowParseError with the line). Columns are checked in the
        transform's order, each one's first bad cell in file order, so a bad
        cell in an earlier column wins over one on an earlier line. Other
        header columns are ignored."""
        n = len(lines)
        blocks = []
        for name, cats in zip(self.columns, self.vocab):
            if name not in header:
                raise SchemaError(f"feature column '{name}' not found in header {header}")
            cells = cols[header.index(name)]
            if cats is None:
                blocks.append(_numbers(name, cells, lines, floats.get(name))[:, None])
                continue
            codes = list(map({c: k for k, c in enumerate(cats)}.get, cells))
            if None in codes:
                k = codes.index(None)
                raise RowParseError(lines[k], f"unknown category '{cells[k]}' in column '{name}'")
            block = np.zeros((n, len(cats)))
            block[np.arange(n), codes] = 1.0
            blocks.append(block)
        if self.schema.include_sensitive:
            blocks.append(sensitive[:, None])
        return np.hstack(blocks)

    def fit(self, raw: np.ndarray) -> "FeatureTransform":
        """This encoding with raw's statistics: each numeric column's mean and
        population stdev (a stdev <= STD_GUARD counts as 1, so a constant
        column maps to 0); one-hot and group columns keep mean 0, scale 1. A
        numeric column whose mean or stdev overflows raises ValidationError."""
        mean, std = raw.mean(axis=0), raw.std(axis=0)
        numeric = self._numeric()
        bad = np.flatnonzero(numeric & ~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise ValidationError(f"numeric column '{self.feature_names()[bad[0]]}': "
                                  "its mean or stdev is not finite")
        return replace(self, mean=np.where(numeric, mean, 0.0),
                       scale=np.where(numeric & (std > STD_GUARD), std, 1.0))

    def apply(self, raw: np.ndarray) -> np.ndarray:
        """The model-ready features of a raw matrix."""
        return (raw - self.mean) / self.scale

    def to_meta(self) -> dict[str, str]:
        """The checkpoint metadata entry that from_meta reads back exactly:
        JSON, whose floats are repr floats, with one key per schema field."""
        columns = [{"name": name, "categories": None if cats is None else list(cats)}
                   for name, cats in zip(self.columns, self.vocab)]
        return {self.META_KEY: json.dumps({
            "columns": columns, **asdict(self.schema),
            "mean": self.mean.tolist(), "scale": self.scale.tolist()})}

    @classmethod
    def from_meta(cls, meta: dict[str, str], input_dim: int) -> "FeatureTransform":
        """The transform in checkpoint metadata. A schema field the JSON
        lacks takes the default schema's value, which is how a transform
        recorded before the schema was reads. A missing or malformed value,
        the constructor's ParameterError on the names or categories among
        them, or a width that is not input_dim raises CheckpointError."""
        text = meta.get(cls.META_KEY)
        if text is None:
            raise CheckpointError(f"checkpoint records no feature transform ('{cls.META_KEY}' key)")
        try:
            obj = json.loads(text)
            columns = [c["name"] for c in obj["columns"]]
            vocab = [tuple(c["categories"]) if isinstance(c["categories"], list)
                     else c["categories"] for c in obj["columns"]]
            schema = CsvSchema(**{f.name: obj.get(f.name, f.default) for f in fields(CsvSchema)})
            mean = np.array(obj["mean"], dtype=np.float64)
            scale = np.array(obj["scale"], dtype=np.float64)
            transform = cls._unfitted(columns, vocab, schema)
        except (ValueError, TypeError, KeyError, RecursionError, ParameterError) as exc:
            raise CheckpointError(f"malformed feature transform: {exc}") from None
        if not (mean.shape == scale.shape == (transform.width,)
                and np.all(np.isfinite(mean)) and np.all(np.isfinite(scale) & (scale > 0))):
            raise CheckpointError("malformed feature transform: bad mean or scale")
        if transform.width != input_dim:
            raise CheckpointError(f"feature transform has {transform.width} columns, "
                                  f"the network {input_dim} inputs")
        return replace(transform, mean=mean, scale=scale)


def _stripped_text(value) -> bool:
    """Whether value is a str that str.strip, as load_csv applies it to every
    cell and header name, leaves as it is."""
    return isinstance(value, str) and value == value.strip()


def _floats(cells: list[str]) -> np.ndarray:
    """cells parsed with one float() each; ValueError if one is not a number."""
    return np.fromiter(map(float, cells), np.float64, len(cells))


def _numbers(name: str, cells: list[str], lines: list[int],
             values: np.ndarray | None) -> np.ndarray:
    """A numeric column's floats: values when its cells were parsed already,
    else the cells parsed here; a cell that is not a finite number raises
    RowParseError with its line."""
    if values is None:
        try:
            values = _floats(cells)
        except ValueError:  # a served file's cell that is not a number at all
            values = np.array([_float_or_nan(c) for c in cells])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise RowParseError(lines[k], f"'{cells[k]}' in numeric column '{name}' is not "
                                      "a finite number")
    return values


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


@dataclass(frozen=True, eq=False)
class Dataset:
    raw: np.ndarray  # (n, d) float64, the encoded matrix before standardization
    labels: np.ndarray  # (n,) float64, entries 0.0 or 1.0
    sensitive: np.ndarray  # (n,) float64, entries 0.0 or 1.0
    transform: FeatureTransform

    def __post_init__(self):
        if self.raw.ndim != 2:
            raise ShapeError("raw must be a 2-D matrix")
        if self.labels.shape != (self.n,) or self.sensitive.shape != (self.n,):
            raise ShapeError("labels/sensitive length must match raw rows")
        if self.transform.width != self.dim:
            raise ShapeError("transform width must match raw columns")
        for name, v in (("labels", self.labels), ("sensitive", self.sensitive)):
            if not np.all((v == 0.0) | (v == 1.0)):
                raise ValidationError(f"{name} must contain only 0/1 values")
        if not (np.any(self.sensitive == 0.0) and np.any(self.sensitive == 1.0)):
            raise ValidationError("dataset must contain both sensitive groups")

    @cached_property
    def features(self) -> np.ndarray:
        """transform.apply(raw), computed on first use."""
        return self.transform.apply(self.raw)

    @property
    def feature_names(self) -> list[str]:
        return self.transform.feature_names()

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def dim(self) -> int:
        return self.raw.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset, without re-standardization."""
        return Dataset(self.raw[idx], self.labels[idx], self.sensitive[idx], self.transform)


@contextmanager
def open_text(path, decode_error, newline=None):
    """path opened for reading as UTF-8 text, with or without a byte-order
    mark: how every text file fairline takes as input is read (dataset CSVs,
    config files, reports). A byte that does not decode, wherever in the file
    it is read, raises decode_error(exc), the caller's typed error, in place
    of the UnicodeDecodeError exc. newline is open()'s."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise decode_error(exc) from None


def load_csv(path, schema_or_transform: CsvSchema | FeatureTransform) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    schema_or_transform is a CsvSchema, to fit a transform on this file
    (FeatureTransform.infer, then its statistics), or a FeatureTransform, to
    read the file through it and its schema; a column the transform does not
    name is then ignored. The label and sensitive columns are binarized
    against the schema's positive values; a positive label that no cell
    matches, or a single group, raises ValidationError. The file is UTF-8,
    with or without a byte-order mark; other bytes raise DataError naming the
    path. Cells are stripped of surrounding whitespace; a ragged row, an
    empty cell, a cell over csv.field_size_limit(), a non-finite number and
    an unknown category raise RowParseError with the file line on which the
    row ends.

    Two readers give the same Dataset. A file whose feature columns are all
    numbers is first read by numpy's C reader (_read_numeric): no quote in
    the header or in a label, group or ignored cell, no line that could hold
    a cell over csv.field_size_limit(), every label and group cell present,
    positive labels and both groups, every number finite, and a transform,
    if given, with no one-hot column. Its numbers are the bits float()
    gives: numpy parses each with the same PyOS_string_to_double.
    Any other file, every faulty one among them, is read by csv.reader
    (_read_rows), the only reader that raises, and the only one of a one-hot
    column.

    _read_rows reads the file column by column: the rows are transposed once
    into stripped columns, each column is checked for empty cells as a whole,
    and each numeric cell is parsed by one float() call. Faults come in this
    order: the first ragged row, over-long cell or empty cell in file order,
    then the label and group checks, then per feature column, in the
    transform's order, its first non-finite number or unknown category. A
    byte that is not UTF-8 raises when the reader reaches it: before any
    empty cell is reported, and before an earlier ragged row when both fall
    in one read chunk of the decoder. Fitting's overflow fault comes last.
    """
    fit = isinstance(schema_or_transform, CsvSchema)
    schema = schema_or_transform if fit else schema_or_transform.schema
    transform = None if fit else schema_or_transform
    raw, labels, sensitive, transform = (_read_numeric(path, schema, transform)
                                         or _read_rows(path, schema, transform))
    if fit:
        transform = transform.fit(raw)
    return Dataset(raw, labels, sensitive, transform)


def _read_numeric(path, schema: CsvSchema, transform: FeatureTransform | None):
    """(raw, labels, sensitive, unfitted transform) of the file at path, read
    by np.loadtxt, or None where that read could differ from _read_rows' or
    _read_rows would raise. transform is None to infer an all-numeric one.

    The open file streams line by line into np.loadtxt, one field per header
    column: float64 for a feature column, a Python string (an object field)
    for any other, so a string cell is read whole, NULs and all. numpy keeps
    a string cell's surrounding whitespace, so label, group and ignored cells
    are stripped here by str.strip. It does not unquote, so a header or a
    string cell with a quote is refused; a number with a quote does not
    parse. A line long enough to hold a cell over csv.reader's field size
    limit is refused, so that _read_rows raises its fault."""
    if transform is not None and any(cats is not None for cats in transform.vocab):
        return None
    label, group = schema.label_column, schema.sensitive_column
    try:
        if not _short_lines(path):
            return None
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            first = fh.readline()
            header = [h.strip() for h in first.rstrip("\r\n").split(",")]
            columns = ([h for h in header if h not in (label, group)] if transform is None
                       else list(transform.columns))
            if ('"' in first or len(set(header)) != len(header)
                    or not {label, group, *columns} <= set(header)
                    or {label, group} & set(columns)
                    or not (columns or schema.include_sensitive)):
                return None
            dtype = np.dtype([(f"f{j}", np.float64 if h in columns else object)
                              for j, h in enumerate(header)])
            for line in fh:  # both readers skip blank lines; loadtxt warns on no rows
                if line not in ("\n", "\r\n", "\r"):
                    break
            else:
                return None
            rows = np.loadtxt(chain([line], fh), dtype, delimiter=",", comments=None,
                              quotechar=None, ndmin=1)
    except (OSError, ValueError):  # _read_rows raises the fault, if it is one
        return None
    by_name = {h: rows[f"f{j}"] for j, h in enumerate(header)}
    cells = {}
    for h, col in by_name.items():
        if h in columns:
            continue
        cells[h] = list(map(str.strip, col.tolist()))
        if "" in cells[h] or '"' in "".join(cells[h]):
            return None
    labels = _binary(cells[label], schema.positive_label_value)
    sensitive = _binary(cells[group], schema.positive_sensitive_value)
    raw = np.column_stack([by_name[c] for c in columns]
                          + [sensitive] * schema.include_sensitive)
    if not (labels.any() and 0 < sensitive.sum() < len(sensitive)
            and np.isfinite(raw).all()):
        return None
    if transform is None:
        transform = FeatureTransform._unfitted(columns, [None] * len(columns), schema)
    return raw, labels, sensitive, transform


def _short_lines(path) -> bool:
    """Whether the file at path has no run of bytes without a line break
    long enough to hold a cell over csv.reader's field size limit. It is
    read in blocks of half the limit, one of which such a run covers
    whole."""
    block = max(1, csv.field_size_limit() // 2)
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, block), b""):
            if len(chunk) == block and b"\n" not in chunk and b"\r" not in chunk:
                return False
    return True


def _read_rows(path, schema: CsvSchema, transform: FeatureTransform | None):
    """(raw, labels, sensitive, unfitted transform or the given one) of the
    file at path, read by csv.reader, raising load_csv's faults in their
    order. transform is None to infer one."""
    with open_text(path, lambda exc: DataError(f"{path}: not UTF-8 text ({exc.reason})"),
                   newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise RowParseError(reader.line_num, str(exc)) from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"duplicate column names in header {header}")
        for col in (schema.label_column, schema.sensitive_column):
            if col not in header:
                raise SchemaError(f"column '{col}' not found in header {header}")
        rows: list[list[str]] = []
        lines: list[int] = []
        try:
            for row in reader:
                if len(row) != len(header):
                    if not row:
                        continue
                    # an empty cell on an earlier line is the first fault
                    _check_missing(header, _columns(rows), lines)
                    raise RowParseError(reader.line_num,
                                        f"expected {len(header)} cells, got {len(row)}")
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as exc:
            _check_missing(header, _columns(rows), lines)
            raise RowParseError(reader.line_num, str(exc)) from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    cols = _columns(rows)
    del rows  # the columns hold every cell now
    _check_missing(header, cols, lines)
    labels = _binary(cols[header.index(schema.label_column)], schema.positive_label_value)
    sensitive = _binary(cols[header.index(schema.sensitive_column)],
                        schema.positive_sensitive_value)
    if not np.any(labels == 1.0):
        raise ValidationError(f"label column '{schema.label_column}' has no cell equal to "
                              f"the positive label {schema.positive_label_value!r}")
    if not (np.any(sensitive == 0.0) and np.any(sensitive == 1.0)):
        raise ValidationError(
            f"sensitive column '{schema.sensitive_column}' has a single group"
        )
    if transform is None:
        transform, floats = FeatureTransform.infer(header, cols, schema)
    else:
        floats = {}
    return transform.encode(header, cols, lines, sensitive, floats), labels, sensitive, transform


def _columns(rows: list[list[str]]) -> list[list[str]]:
    """rows transposed into columns of stripped cells."""
    return [list(map(str.strip, col)) for col in zip(*rows)]


def _binary(cells: list[str], positive: str) -> np.ndarray:
    """1.0 where a cell is the string positive, else 0.0. Python's equality,
    not numpy's, which ignores trailing NULs ("1\\x00" would equal "1")."""
    return np.fromiter(map(positive.__eq__, cells), np.float64, len(cells))


def _check_missing(header: list[str], cols: list[list[str]], lines: list[int]) -> None:
    """Raise RowParseError for the first empty cell in file order, leftmost
    in its row, if any column has one."""
    empty = [(col.index(""), i) for i, col in enumerate(cols) if "" in col]
    if empty:
        k, i = min(empty)
        raise RowParseError(lines[k], f"missing value in column '{header[i]}'")


# Rows write_csv formats and writes at a time, so that the cell text it holds
# is one block's. 1024 rows wrote the 8000-row synth file as fast as one
# block of all its rows did.
_CSV_BLOCK_ROWS = 1024


def _csv_cell(text: str) -> str:
    """text as one RFC-4180 cell, quoted only if it must be."""
    buf = io.StringIO()
    # csv quotes a cell that holds a character of the line terminator, so
    # "\r\n" makes it quote a lone "\r" as well as "\n".
    csv.writer(buf, lineterminator="\r\n").writerow([text])
    return buf.getvalue()[:-2]


def _check_rows(ok: np.ndarray, values: np.ndarray, column: str, rule: str) -> None:
    """Raise ValidationError at the first row where ok is False, naming the
    1-based data row, column, the row's values there, and the rule broken."""
    if not ok.all():
        k = int(ok.argmin())
        raise ValidationError(f"cannot write data row {k + 1}: column '{column}' holds "
                              f"{values[k].tolist()!r}, {rule}")


def write_csv(ds: Dataset, path) -> None:
    """Write ds's raw rows as an RFC-4180 CSV that load_csv reads back
    through ds.transform to the same raw matrix: a header row of the source
    feature columns and the schema's label and sensitive columns, then per
    row the numbers as repr floats, each one-hot block as its category, and
    label and group as the schema's positive value for 1 and, for 0, "0"
    (or "1" when the positive value is "0").

    A raw matrix that would not read back so raises ValidationError, naming
    the column and the 1-based data row, before the file is opened: a
    numeric cell that is not finite, a one-hot block row that is not one
    1.0 among 0.0s, or, with schema.include_sensitive, a group column that
    differs from ds.sensitive. Columns are checked in the transform's order,
    each one's first bad row first.

    Rows are formatted and written _CSV_BLOCK_ROWS at a time, so the cell
    text alive at once is one block's, whatever ds.n. Its time is the
    numbers' repr."""
    transform, schema, raw = ds.transform, ds.transform.schema, ds.raw
    # Per source column: its first raw column, and None for a number or the
    # cell text of each category, built once for the whole file.
    cells, j = [], 0
    for name, cats in zip(transform.columns, transform.vocab):
        if cats is None:
            _check_rows(np.isfinite(raw[:, j]), raw[:, j], name, "not a finite number")
            cells.append((j, None))
            j += 1
            continue
        block = raw[:, j:j + len(cats)]
        _check_rows((np.count_nonzero(block, axis=1) == 1) & (block == 1.0).any(axis=1),
                    block, name, "not one 1.0 among 0.0s")
        cells.append((j, [_csv_cell(c) for c in cats]))
        j += len(cats)
    if schema.include_sensitive:
        _check_rows(raw[:, j] == ds.sensitive, raw[:, j], schema.sensitive_column,
                    "not the row's value in ds.sensitive")
    flags = [(col, _csv_cell(positive), "1" if positive == "0" else "0")
             for col, positive in ((ds.labels, schema.positive_label_value),
                                   (ds.sensitive, schema.positive_sensitive_value))]
    header = [*transform.columns, schema.label_column, schema.sensitive_column]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # Only names, categories and positive values can need quoting, and
        # _csv_cell quotes each once; joining the cells skips csv's per-cell
        # scan.
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        for start in range(0, ds.n, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            fh.writelines(_csv_lines(raw[rows], cells,
                                     [(col[rows], one, zero) for col, one, zero in flags]))


def _csv_lines(raw: np.ndarray, cells: list, flags: list) -> Iterator[str]:
    """The CSV lines of a block of raw rows: per (j, text) in cells, raw
    column j as repr floats when text is None, else the one-hot block from
    column j as text[k] for its 1.0 at j + k; then per (col, one, zero) in
    flags, one for each 1.0 in col and zero for each 0.0. A function of its
    own because under tracemalloc each allocation costs more in a longer
    code object: made in write_csv's body, the traced write took 3x as
    long."""
    cols = []
    for j, text in cells:
        if text is None:
            cols.append(list(map(repr, raw[:, j].tolist())))
        else:
            codes = raw[:, j:j + len(text)].argmax(axis=1)
            cols.append(list(map(text.__getitem__, codes.tolist())))
    for col, one, zero in flags:
        cols.append([one if v else zero for v in col.tolist()])
    return (",".join(row) + "\n" for row in zip(*cols))


def synth_biased(n: int, d: int, group_fraction: float, base_rate_gap: float,
                 noise: float, seed: int) -> Dataset:
    """Generate a biased two-group binary classification dataset.

    Group membership is Bernoulli(group_fraction); the positive-label rate is
    0.5 + gap/2 in group 0 and 0.5 - gap/2 in group 1, so group 0's rate minus
    group 1's is ~base_rate_gap. Features are Gaussian clusters shifted along
    one fixed direction by label and another by group, then standardized, so a
    linear model separates labels while group membership leaks into the
    features. The standardized matrix is the Dataset's raw data, so
    write_csv writes it as is.

    A group that comes out empty raises ParameterError naming group_fraction
    (too extreme for this n and seed). A noise so large that a generated
    column's mean or stdev is not finite in float64 raises ParameterError
    naming noise: that bound is not derived up front but caught from the
    fit's own finiteness check. Nor is a size bound: a size numpy refuses to
    allocate raises ParameterError naming n if the per-row draws fail, and d
    if the (n, d) feature matrix does.
    """
    if check_integer(n, "n") < 40:
        raise ParameterError("must be >= 40", param="n")
    if check_integer(d, "d") < 2:
        raise ParameterError("must be >= 2", param="d")
    if not 0.0 < check_real(group_fraction, "group_fraction") < 1.0:
        raise ParameterError("must be in (0, 1)", param="group_fraction")
    if not 0.0 <= check_real(base_rate_gap, "base_rate_gap") <= 1.0:
        raise ParameterError("must be in [0, 1]", param="base_rate_gap")
    if not check_real(noise, "noise") > 0.0:
        raise ParameterError("must be > 0", param="noise")
    if check_integer(seed, "seed") < 0:
        raise ParameterError("must be non-negative", param="seed")

    rng = np.random.default_rng(seed)
    try:
        sensitive = (rng.random(n) < group_fraction).astype(np.float64)
        rate = np.where(sensitive == 0.0, 0.5 + base_rate_gap / 2, 0.5 - base_rate_gap / 2)
        labels = (rng.random(n) < rate).astype(np.float64)
    except (ValueError, MemoryError):  # numpy refuses a length it cannot hold
        raise ParameterError("too large: numpy cannot allocate the per-row draws",
                             param="n") from None
    if not (np.any(sensitive == 0.0) and np.any(sensitive == 1.0)):
        raise ParameterError(f"too extreme for n={n} and seed={seed}: a group came out empty",
                             param="group_fraction")

    # Drawn before the direction vectors, each the size of one of its rows,
    # so a d numpy cannot hold fails here, at once.
    try:
        scaled_noise = noise * rng.standard_normal((n, d))
    except (ValueError, MemoryError):
        raise ParameterError(f"too large for n={n}: numpy cannot allocate the feature matrix",
                             param="d") from None
    u_label = np.ones(d) / np.sqrt(d)
    u_group = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    u_group /= np.linalg.norm(u_group)
    features = (
        _LABEL_SHIFT * (labels - 0.5)[:, None] * u_label[None, :]
        + _GROUP_SHIFT * (sensitive - 0.5)[:, None] * u_group[None, :]
        + scaled_noise
    )
    transform = FeatureTransform.numeric([f"x{i + 1}" for i in range(d)])
    try:
        fitted = transform.fit(features)
    except ValidationError:
        raise ParameterError("too large: a generated column's mean or stdev is not finite",
                             param="noise") from None
    return Dataset(fitted.apply(features), labels, sensitive, transform)


def check_test_fraction(test_fraction: float) -> None:
    """split's rule for test_fraction: strictly between 0 and 1."""
    if not 0.0 < check_real(test_fraction, "test_fraction") < 1.0:
        raise ParameterError("must be in (0, 1)", param="test_fraction")


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test split, standardized on train stats.

    Reshuffles up to 10 extra times if a partition would lose a sensitive
    group. ds's transform keeps its columns and vocabularies; its statistics
    are refitted on the training rows' raw values and applied to both parts.
    """
    check_test_fraction(test_fraction)
    if check_integer(seed, "seed") < 0:
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

    train, test = ds.take(train_ix), ds.take(test_ix)
    transform = ds.transform.fit(train.raw)
    return replace(train, transform=transform), replace(test, transform=transform)


def batches(ds: Dataset, batch_size: int, shuffle_seed: int, epoch: int) -> list[np.ndarray]:
    """Index slices covering every row exactly once, shuffled per epoch.

    The permutation is seeded by (shuffle_seed, epoch); the last slice may be
    short but is never dropped.
    """
    if check_integer(batch_size, "batch_size") < 2:
        raise ParameterError("must be >= 2", param="batch_size")
    if check_integer(shuffle_seed, "shuffle_seed") < 0:
        raise ParameterError("must be non-negative", param="shuffle_seed")
    if check_integer(epoch, "epoch") < 0:
        raise ParameterError("must be non-negative", param="epoch")
    perm = np.random.default_rng([shuffle_seed, epoch]).permutation(ds.n)
    return [perm[i:i + batch_size] for i in range(0, ds.n, batch_size)]
