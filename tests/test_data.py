import csv
import io
import json
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairline.data import (
    CsvSchema,
    Dataset,
    FeatureTransform,
    _read_numeric,
    _read_rows,
    batches,
    load_csv,
    split,
    synth_biased,
    write_csv,
)
from fairline.data import _CSV_BLOCK_ROWS as B
from fairline.errors import (
    CheckpointError,
    DataError,
    ParameterError,
    RowParseError,
    SchemaError,
    ShapeError,
    ValidationError,
)

SCHEMA = CsvSchema()


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_standardizes_numeric_column(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\n2,0,1\n3,1,0\n4,0,1\n")
    ds = load_csv(p, SCHEMA)
    col = ds.features[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std() - 1.0) < 1e-12


def test_load_csv_one_hot_encoding(tmp_path):
    p = write(tmp_path, "c,label,group\na,1,0\nb,0,1\na,1,0\n")
    ds = load_csv(p, SCHEMA)
    assert ds.feature_names == ["c=a", "c=b"]
    assert np.array_equal(ds.features, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    # one-hot columns are left as 0/1: mean 0 and scale 1 in the transform
    assert ds.transform.vocab == (("a", "b"),)
    assert ds.transform.mean.tolist() == [0.0, 0.0]
    assert ds.transform.scale.tolist() == [1.0, 1.0]


def test_load_csv_missing_column(tmp_path):
    p = write(tmp_path, "a,label\n1,0\n")
    with pytest.raises(SchemaError, match="group"):
        load_csv(p, SCHEMA)


def test_load_csv_single_group_rejected(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\n2,0,0\n")
    with pytest.raises(ValidationError):
        load_csv(p, SCHEMA)


def test_load_csv_positive_label_that_matches_no_cell_rejected(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\n2,0,1\n")
    with pytest.raises(ValidationError, match="label column 'label' has no cell equal to "
                                              "the positive label 'yes'"):
        load_csv(p, replace(SCHEMA, positive_label_value="yes"))


def test_schema_label_column_must_not_be_the_sensitive_column(tmp_path):
    with pytest.raises(ParameterError, match="^label_column must differ") as info:
        CsvSchema(label_column="group")
    assert info.value.param == "label_column"
    ds = load_csv(write(tmp_path, "a,label,group\n1,1,0\n2,0,1\n"), SCHEMA)
    meta = ds.transform.to_meta()
    recorded = json.loads(meta[FeatureTransform.META_KEY])
    recorded["label_column"] = "group"
    meta[FeatureTransform.META_KEY] = json.dumps(recorded)
    with pytest.raises(CheckpointError, match="label_column must differ"):
        FeatureTransform.from_meta(meta, ds.dim)


@pytest.mark.parametrize("field, value", [
    ("label_column", 1), ("sensitive_column", None), ("positive_label_value", 1),
    ("positive_sensitive_value", b"1"), ("include_sensitive", 1),
    ("include_sensitive", "yes"), ("include_sensitive", None),
])
def test_schema_refuses_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ParameterError) as info:
        CsvSchema(**{field: value})
    assert info.value.param == field


def test_schema_keeps_a_numpy_bool_as_a_bool():
    schema = CsvSchema(include_sensitive=np.bool_(True))
    assert schema.include_sensitive is True
    assert schema == CsvSchema(include_sensitive=True)


def test_load_csv_missing_value_names_line(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\n,0,1\n")
    with pytest.raises(RowParseError, match="line 3"):
        load_csv(p, SCHEMA)


def test_load_csv_ragged_row(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\n2,0\n")
    with pytest.raises(RowParseError, match="line 3"):
        load_csv(p, SCHEMA)


def test_load_csv_non_finite_numeric_rejected(tmp_path):
    p = write(tmp_path, "a,label,group\n1,1,0\nNaN,0,1\n")
    with pytest.raises(RowParseError, match="line 3"):
        load_csv(p, SCHEMA)
    p2 = write(tmp_path, "a,label,group\n1,1,0\ninf,0,1\n", "d2.csv")
    with pytest.raises(RowParseError, match="line 3"):
        load_csv(p2, SCHEMA)


@pytest.mark.parametrize("bad_row, message", [
    ("3,y,,1", "missing value in column 'label'"),
    ("3,y,1", "expected 4 cells, got 3"),
    ("inf,y,1,0", "'inf' in numeric column 'a' is not a finite number"),
], ids=["missing-cell", "ragged-row", "non-finite"])
@pytest.mark.parametrize("layout, line", [
    ("a,c,label,group\n\n\n1,x,1,0\n2,y,0,1\n", 6),
    ('a,c,label,group\n1,"x\nz",1,0\n2,y,0,1\n', 5),
], ids=["blank-lines", "quoted-line-break"])
def test_row_errors_name_the_file_line(tmp_path, layout, line, bad_row, message):
    p = write(tmp_path, layout + bad_row + "\n")
    with pytest.raises(RowParseError, match=f"^line {line}: {message}$"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("rows, expected", [
    ("1,x,1,0\n2,,0,1\n3,y,1\n", "line 3: missing value in column 'c'"),
    ("1,x,1,0\n3,y,1\n2,,0,1\n", "line 3: expected 4 cells, got 3"),
    ("1,x,1,0\n2,y, ,1\n", "line 3: missing value in column 'label'"),
    ("1,x,1,0\n2,,0,1\n,y,1,0\n", "line 3: missing value in column 'c'"),
    ("1,x,1,0\n2,y,,\n3,,1,0\n", "line 3: missing value in column 'label'"),
    ("1,x,1,0\n2,y,0,1\n4,,1\n", "line 4: expected 4 cells, got 3"),
], ids=["empty-above-ragged", "ragged-above-empty", "whitespace-only",
        "earlier-line-wins", "leftmost-on-the-line-wins", "ragged-row-with-an-empty-cell"])
def test_row_faults_come_in_file_order(tmp_path, rows, expected):
    p = write(tmp_path, "a,c,label,group\n" + rows)
    with pytest.raises(RowParseError, match=f"^{expected}$"):
        load_csv(p, SCHEMA)


def test_served_file_faults_come_in_column_order(tmp_path):
    # An unknown category in c on line 2 and an infinite a on line 3: the
    # transform checks a, its first column, first.
    fitted = load_csv(write(tmp_path, "a,c,label,group\n1,x,1,0\n2,y,0,1\n"), SCHEMA).transform
    p = write(tmp_path, "a,c,label,group\n1,q,1,0\ninf,y,0,1\n", "served.csv")
    with pytest.raises(RowParseError,
                       match="^line 3: 'inf' in numeric column 'a' is not a finite number$"):
        load_csv(p, fitted)


def test_label_cell_with_a_trailing_nul_is_not_positive(tmp_path):
    ds = load_csv(write(tmp_path, "a,label,group\n1,1,0\n2,1\x00,1\n3,0,1\n"), SCHEMA)
    assert ds.labels.tolist() == [1.0, 0.0, 0.0]
    ds = load_csv(write(tmp_path, "a,label,group\n1,1,0\n2,0,1\x00\n3,0,1\n"), SCHEMA)
    assert ds.sensitive.tolist() == [0.0, 0.0, 1.0]


def test_load_csv_rfc4180_quoting(tmp_path):
    p = write(tmp_path, 'c,label,group\n"x, with comma",1,0\nplain,0,1\n')
    ds = load_csv(p, SCHEMA)
    assert ds.feature_names == ["c=plain", "c=x, with comma"]


def test_load_csv_constant_column_maps_to_zeros(tmp_path):
    p = write(tmp_path, "a,b,label,group\n7,1,1,0\n7,2,0,1\n7,3,1,0\n")
    ds = load_csv(p, SCHEMA)
    assert np.array_equal(ds.features[:, 0], [0.0, 0.0, 0.0])


def test_load_csv_include_sensitive_flag(tmp_path):
    text = "a,label,group\n1,1,0\n2,0,1\n3,1,0\n"
    base = load_csv(write(tmp_path, text), SCHEMA)
    with_s = load_csv(write(tmp_path, text, "d2.csv"),
                      CsvSchema("label", "group", include_sensitive=True))
    assert base.dim + 1 == with_s.dim
    assert np.array_equal(with_s.features[:, -1], with_s.sensitive)


_CATEGORY = st.text(alphabet='ab ,"\n\r', min_size=1, max_size=5).filter(
    lambda s: s == s.strip())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 25), n_numeric=st.integers(0, 2),
       n_categorical=st.integers(0, 2))
def test_write_csv_reads_back_the_same_raw_matrix(data, n, n_numeric, n_categorical):
    columns = [f"n{i}" for i in range(n_numeric)] + [f"c{i}" for i in range(n_categorical)]
    if not columns:
        columns = ["n0"]
    columns = data.draw(st.permutations(columns))
    number = st.floats(-1e6, 1e6, allow_nan=False)
    cells = [[data.draw(number if name[0] == "n" else _CATEGORY) for name in columns]
             for _ in range(n)]
    # any schema: names that need quoting, positive values that do or are
    # "0"; "n" is the source file's negative cell, which no positive value is
    positive = _CATEGORY | st.sampled_from(["0", "1"])
    schema = CsvSchema(data.draw(st.sampled_from(["label", "y, true", 'a "b"'])),
                       data.draw(st.sampled_from(["group", "sex"])),
                       data.draw(positive), data.draw(positive), data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        source, written = Path(tmp) / "source.csv", Path(tmp) / "written.csv"
        with open(source, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*columns, schema.label_column, schema.sensitive_column])
            writer.writerows([*row, schema.positive_label_value if i % 3 == 0 else "n",
                              schema.positive_sensitive_value if i % 2 else "n"]
                             for i, row in enumerate(cells))
        ds = load_csv(source, schema)
        write_csv(ds, written)
        # read back by the transform, and refitted under its schema
        for encoding in (ds.transform, ds.transform.schema):
            back = load_csv(written, encoding)
            assert back.raw.tobytes() == ds.raw.tobytes()
            assert back.feature_names == ds.feature_names
            assert np.array_equal(back.labels, ds.labels)
            assert np.array_equal(back.sensitive, ds.sensitive)
            assert back.transform.to_meta() == ds.transform.to_meta()


def test_write_csv_writes_the_schema(tmp_path):
    schema = CsvSchema("y", "s, t", positive_label_value="0", positive_sensitive_value="F")
    ds = load_csv(write(tmp_path, 'x,y,"s, t"\n1,0,F\n2,no,M\n'), schema)
    write_csv(ds, tmp_path / "out.csv")
    # a 0 is written as "0", or as "1" when the positive value is "0"
    assert (tmp_path / "out.csv").read_text() == 'x,y,"s, t"\n1.0,0,F\n2.0,1,0\n'


def _reference_csv(ds) -> bytes:
    """write_csv's bytes built a row at a time: csv.writer quotes each cell,
    repr writes each number, and each line ends in "\\n"."""
    transform, schema = ds.transform, ds.transform.schema
    rows = [[*transform.columns, schema.label_column, schema.sensitive_column]]
    for raw, label, group in zip(ds.raw.tolist(), ds.labels.tolist(), ds.sensitive.tolist()):
        row, j = [], 0
        for cats in transform.vocab:
            row.append(repr(raw[j]) if cats is None else cats[raw[j:j + len(cats)].index(1.0)])
            j += 1 if cats is None else len(cats)
        for v, positive in ((label, schema.positive_label_value),
                            (group, schema.positive_sensitive_value)):
            row.append(positive if v else "1" if positive == "0" else "0")
        rows.append(row)
    text = []
    for row in rows:
        # a "\r\n" terminator makes csv quote a lone "\r" too, as write_csv does
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        text.append(buf.getvalue()[:-2] + "\n")
    return "".join(text).encode("utf-8")


def _edge_dataset(n: int, include_sensitive: bool) -> Dataset:
    """n rows of a numeric column, a one-hot column whose categories need
    quoting and, with include_sensitive, the group column; the label's
    positive value is "0"."""
    rng = np.random.default_rng(n)
    cats = tuple(sorted(["a,b", 'q"r', "x\ry", "u\nv", "plain"]))
    numbers = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
    numbers[:2] = [-0.0, 3.0]
    onehot = np.eye(len(cats))[rng.integers(0, len(cats), n)]
    sensitive = np.arange(n) % 2.0
    raw = np.column_stack([numbers, onehot] + [sensitive] * include_sensitive)
    schema = CsvSchema('y, "label"', "s\nt", "0", 'M"F', include_sensitive)
    width = raw.shape[1]
    transform = FeatureTransform(('x, "1"', "c"), (None, cats), schema,
                                 np.zeros(width), np.ones(width))
    return Dataset(raw, (np.arange(n) % 3 == 0) * 1.0, sensitive, transform)


@pytest.mark.parametrize("include_sensitive", [False, True])
@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2 * B + 1])
def test_write_csv_bytes_match_a_row_at_a_time_writer(tmp_path, n, include_sensitive):
    ds = _edge_dataset(n, include_sensitive)
    write_csv(ds, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == _reference_csv(ds)


def test_write_csv_holds_one_block_of_cell_text(tmp_path):
    # tracemalloc's peak here measured 0.22 MiB for one block's cell text,
    # and 3.85 MiB for the text of all 80,000 cells at once.
    ds = synth_biased(20000, 2, 0.5, 0.4, 1.0, seed=1)
    tracemalloc.start()
    try:
        write_csv(ds, tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _faulty(fault: str | None) -> Dataset:
    """A 4-row dataset, with the group a feature, whose data row 3 holds
    the fault, if any: a raw row that write_csv cannot write so that it
    reads back the same."""
    raw = np.array([[0.5, 1.0, 0.0, 0.0, 0.0], [1.5, 0.0, 1.0, 0.0, 1.0],
                    [2.5, 0.0, 0.0, 1.0, 0.0], [3.5, 1.0, 0.0, 0.0, 1.0]])
    if fault is not None:
        raw[2] = {"nan": [np.nan, 0.0, 0.0, 1.0, 0.0], "inf": [-np.inf, 0.0, 0.0, 1.0, 0.0],
                  "mixed": [2.5, 0.3, 0.7, 0.0, 0.0], "none": [2.5, 0.0, 0.0, 0.0, 0.0],
                  "two": [2.5, 1.0, 0.0, 1.0, 0.0], "group": [2.5, 0.0, 0.0, 1.0, 1.0]}[fault]
    transform = FeatureTransform(("x", "c"), (None, ("a", "b", "d")),
                                 CsvSchema(include_sensitive=True), np.zeros(5), np.ones(5))
    return Dataset(raw, np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]),
                   transform)


def test_write_csv_writes_the_fault_free_rows(tmp_path):
    ds = _faulty(None)
    write_csv(ds, tmp_path / "out.csv")
    assert load_csv(tmp_path / "out.csv", ds.transform).raw.tobytes() == ds.raw.tobytes()


@pytest.mark.parametrize("fault, message", [
    ("nan", "data row 3: column 'x' holds nan, not a finite number"),
    ("inf", "data row 3: column 'x' holds -inf, not a finite number"),
    ("mixed", "data row 3: column 'c' holds \\[0.3, 0.7, 0.0\\], not one 1.0 among 0.0s"),
    ("none", "data row 3: column 'c' holds \\[0.0, 0.0, 0.0\\], not one 1.0 among 0.0s"),
    ("two", "data row 3: column 'c' holds \\[1.0, 0.0, 1.0\\], not one 1.0 among 0.0s"),
    ("group", "data row 3: column 'group' holds 1.0, not the row's value in ds.sensitive"),
])
def test_write_csv_refuses_a_matrix_that_would_not_read_back(tmp_path, fault, message):
    ds = _faulty(fault)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"kept\n")
    for path in (old, new):
        with pytest.raises(ValidationError, match=message):
            write_csv(ds, path)
    assert old.read_bytes() == b"kept\n"
    assert not new.exists()


def test_write_csv_reports_the_first_column_then_the_first_row(tmp_path):
    ds = _faulty("mixed")
    ds.raw[3, 0] = np.nan
    with pytest.raises(ValidationError, match="data row 4: column 'x'"):
        write_csv(ds, tmp_path / "out.csv")


# (columns, vocab, the parameter named): a transform whose names or categories
# load_csv could not read back from write_csv's file, with what it raised
_UNREADABLE = {
    "empty-category": (("c",), (("", "a"),), "vocab"),  # missing value in column 'c'
    "padded-category": (("c",), ((" b", "a"),), "vocab"),  # unknown category 'b'
    "padded-name": ((" x",), (None,), "columns"),  # not found in header
    "label-name": (("label",), (None,), "columns"),  # duplicate column names
    "group-name": (("group",), (None,), "columns"),
    "name-twice": (("x", "x"), (None, None), "columns"),  # duplicate column names
    "not-text": ((1,), (None,), "columns"),
    "unsorted": (("c",), (("b", "a"),), "vocab"),  # from_meta refused its checkpoint
    "category-twice": (("c",), (("a", "a"),), "vocab"),
    "no-categories": (("c",), ((),), "vocab"),
    "category-list": (("c",), (["a", "b"],), "vocab"),
    "short-vocab": (("x", "y"), (None,), "vocab"),
}


def _transform(columns, vocab) -> FeatureTransform:
    width = sum(1 if cats is None else len(cats) for cats in vocab)
    return FeatureTransform(columns, vocab, CsvSchema(), np.zeros(width), np.ones(width))


@pytest.mark.parametrize("columns, vocab, param", _UNREADABLE.values(), ids=_UNREADABLE)
def test_transform_refuses_names_and_categories_that_do_not_read_back(columns, vocab, param):
    with pytest.raises(ParameterError) as info:
        _transform(columns, vocab)
    assert info.value.param == param


# the cases a checkpoint's JSON can hold: a JSON list is read as a tuple
@pytest.mark.parametrize("case", sorted(set(_UNREADABLE) - {"category-list", "short-vocab"}))
def test_transform_from_meta_refuses_names_and_categories_that_do_not_read_back(case):
    columns, vocab, _ = _UNREADABLE[case]
    width = sum(1 if cats is None else len(cats) for cats in vocab)
    meta = {FeatureTransform.META_KEY: json.dumps({
        "columns": [{"name": name, "categories": None if cats is None else list(cats)}
                    for name, cats in zip(columns, vocab)],
        "mean": [0.0] * width, "scale": [1.0] * width})}
    with pytest.raises(CheckpointError, match="^malformed feature transform: (columns|vocab) "):
        FeatureTransform.from_meta(meta, width)


def test_transform_meta_round_trips_exactly(tmp_path):
    text = "x,c,y,s\n0.1,b,yes,M\n0.7,a,no,F\n1e-300,b,yes,F\n"
    schema = CsvSchema("y", "s", "yes", "F", include_sensitive=True)
    ds = load_csv(write(tmp_path, text), schema)
    back = FeatureTransform.from_meta(ds.transform.to_meta(), ds.dim)
    assert (back.columns, back.vocab, back.schema) == (("x", "c"), (None, ("a", "b")), schema)
    assert back.mean.tobytes() == ds.transform.mean.tobytes()
    assert back.scale.tobytes() == ds.transform.scale.tobytes()
    with pytest.raises(CheckpointError, match="records no feature transform \\('transform' key\\)"):
        FeatureTransform.from_meta({}, ds.dim)


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["columns", "name", "categories", "label_column", "sensitive_column",
                         "positive_label_value", "positive_sensitive_value",
                         "include_sensitive", "mean", "scale"]), inner, max_size=8),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_JSON, input_dim=st.integers(1, 4))
def test_transform_from_meta_raises_only_checkpoint_error(value, input_dim):
    try:
        transform = FeatureTransform.from_meta({"transform": json.dumps(value)}, input_dim)
    except CheckpointError:
        return
    assert transform.width == input_dim


def test_synth_deterministic():
    a = synth_biased(100, 3, 0.5, 0.4, 1.0, seed=9)
    b = synth_biased(100, 3, 0.5, 0.4, 1.0, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.sensitive, b.sensitive)


def _rate_gap(ds):
    r0 = ds.labels[ds.sensitive == 0.0].mean()
    r1 = ds.labels[ds.sensitive == 1.0].mean()
    return r0 - r1


def test_synth_zero_gap():
    ds = synth_biased(10000, 4, 0.5, 0.0, 1.0, seed=1)
    assert abs(_rate_gap(ds)) < 0.05


def test_synth_gap_near_target():
    ds = synth_biased(10000, 4, 0.5, 0.4, 1.0, seed=1)
    assert 0.35 <= _rate_gap(ds) <= 0.45


def test_synth_swapped_encoding_mirrors_gap():
    ds = synth_biased(10000, 4, 0.5, 0.4, 1.0, seed=3)
    flipped = replace(ds, sensitive=1.0 - ds.sensitive)
    assert abs(_rate_gap(ds) + _rate_gap(flipped)) < 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(n=10), dict(d=1), dict(group_fraction=0.0), dict(group_fraction=1.0),
    dict(base_rate_gap=-0.1), dict(base_rate_gap=1.5), dict(noise=0.0),
    dict(seed=-1), dict(n=100.0), dict(d=3.0), dict(seed=1.5),
    dict(group_fraction="0.5"), dict(noise=None),
    # faults of the generated data: an empty group, a column whose stdev
    # is not finite in float64
    dict(group_fraction=1e-6), dict(noise=1e200), dict(noise=float("inf")),
    # sizes numpy refuses at once, before it touches any memory
    dict(n=10**20), dict(d=10**11),
])
def test_synth_parameter_errors(kwargs):
    base = dict(n=100, d=3, group_fraction=0.5, base_rate_gap=0.2, noise=1.0, seed=0)
    base.update(kwargs)
    with pytest.raises(ParameterError) as exc, np.errstate(over="ignore", invalid="ignore"):
        synth_biased(**base)
    assert exc.value.param == next(iter(kwargs))  # the name the CLI maps to a flag


def test_split_sizes():
    ds = synth_biased(100, 3, 0.5, 0.2, 1.0, seed=0)
    train, test = split(ds, 0.25, seed=0)
    assert (train.n, test.n) == (75, 25)


def test_split_disjoint_exhaustive():
    # a row-id column survives the split intact in the raw matrix, so the
    # partition can be checked index by index
    n = 100
    rng = np.random.default_rng(0)
    features = np.column_stack([np.arange(n, dtype=np.float64),
                                rng.standard_normal(n)])
    ds = Dataset(features, (rng.random(n) < 0.5).astype(np.float64),
                 (rng.random(n) < 0.5).astype(np.float64),
                 FeatureTransform.numeric(["row_id", "x"]))
    train, test = split(ds, 0.3, seed=1)
    train_ids = set(train.raw[:, 0])
    test_ids = set(test.raw[:, 0])
    assert len(train_ids) == train.n and len(test_ids) == test.n
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == set(range(n))


def test_split_deterministic():
    ds = synth_biased(200, 3, 0.5, 0.2, 1.0, seed=0)
    a = split(ds, 0.25, seed=5)
    b = split(ds, 0.25, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)


def test_split_train_columns_standardized():
    ds = synth_biased(500, 4, 0.5, 0.3, 1.0, seed=2)
    train, test = split(ds, 0.2, seed=2)
    assert np.all(np.abs(train.features.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(train.features.std(axis=0) - 1.0) < 1e-9)
    # test split uses training statistics, so it is close to but not exactly 0/1
    assert np.all(np.abs(test.features.mean(axis=0)) < 0.5)


def test_split_single_group_partition_fails_after_retries():
    n = 50
    features = np.random.default_rng(0).standard_normal((n, 2))
    sensitive = np.zeros(n)
    sensitive[0] = 1.0  # one sample can only land in one partition
    ds = Dataset(features, np.zeros(n), sensitive, FeatureTransform.numeric(["x1", "x2"]))
    with pytest.raises(ValidationError):
        split(ds, 0.5, seed=0)


def test_split_parameter_errors():
    ds = synth_biased(100, 3, 0.5, 0.2, 1.0, seed=0)
    for frac in (0.0, 1.0, -0.5, float("nan"), "0.2"):
        with pytest.raises(ParameterError, match="test_fraction"):
            split(ds, frac, seed=0)
    with pytest.raises(ParameterError, match="seed"):
        split(ds, 0.25, 1.5)


def test_batches_sizes():
    ds = synth_biased(40, 2, 0.5, 0.2, 1.0, seed=0).take(np.arange(10))
    got = batches(ds, 4, shuffle_seed=0, epoch=0)
    assert [len(b) for b in got] == [4, 4, 2]


def test_batches_epochs_differ_but_cover():
    ds = synth_biased(60, 2, 0.5, 0.2, 1.0, seed=0)
    e0 = np.concatenate(batches(ds, 16, 3, 0))
    e1 = np.concatenate(batches(ds, 16, 3, 1))
    assert not np.array_equal(e0, e1)
    assert np.array_equal(np.sort(e0), np.arange(ds.n))
    assert np.array_equal(np.sort(e1), np.arange(ds.n))


def test_batches_deterministic():
    ds = synth_biased(60, 2, 0.5, 0.2, 1.0, seed=0)
    assert all(np.array_equal(a, b)
               for a, b in zip(batches(ds, 16, 3, 4), batches(ds, 16, 3, 4)))


def test_batches_argument_validation():
    ds = synth_biased(40, 2, 0.5, 0.2, 1.0, seed=0)
    for batch_size, shuffle_seed, epoch in ((1, 0, 0), (4, -1, 0), (4, 0, -1),
                                            (4.0, 0, 0), (4, 0.5, 0), (4, 0, 1.0)):
        with pytest.raises(ParameterError):
            batches(ds, batch_size, shuffle_seed, epoch)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(40, 200), batch=st.integers(2, 64),
       seed=st.integers(0, 1000), epoch=st.integers(0, 5))
def test_batches_cover_every_index_once(n, batch, seed, epoch):
    ds = synth_biased(max(n, 40), 2, 0.5, 0.2, 1.0, seed=0).take(np.arange(n))
    got = batches(ds, batch, seed, epoch)
    assert np.array_equal(np.sort(np.concatenate(got)), np.arange(n))


def test_dataset_invariants():
    two = FeatureTransform.numeric(["a", "b"])
    with pytest.raises(ValidationError):
        Dataset(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), two)
    with pytest.raises(ValidationError):
        Dataset(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0]), two)
    with pytest.raises(ShapeError, match="transform width"):
        Dataset(np.zeros((3, 3)), np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]), two)
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.array([0.0, 1.0]), np.array([0.0, 1.0, 0.0]), two)
    assert [f.name for f in fields(Dataset)] == ["raw", "labels", "sensitive", "transform"]


def _derived(ds):
    # the one path from raw to model inputs: the dataset's transform
    return ds.features.tobytes(), ds.feature_names


def _applied(ds):
    return ds.transform.apply(ds.raw).tobytes(), ds.transform.feature_names()


@pytest.mark.parametrize("text, schema", [
    ("a,b,label,group\n1,5,1,0\n2,7,0,1\n4,6,1,1\n", CsvSchema()),
    ("a,c,label,group\n1,x,1,0\n2,y,0,1\n4,x,1,1\n", CsvSchema()),
    ("a,c,label,group\n1,x,1,0\n2,y,0,1\n4,x,1,1\n", CsvSchema(include_sensitive=True)),
], ids=["numeric", "categorical", "include-sensitive"])
def test_load_csv_features_come_from_the_transform(tmp_path, text, schema):
    ds = load_csv(write(tmp_path, text), schema)
    assert _derived(ds) == _applied(ds)
    assert _derived(ds.take(np.array([2, 0]))) == _applied(ds.take(np.array([2, 0])))


def test_split_and_synth_features_come_from_the_transform():
    ds = synth_biased(200, 3, 0.5, 0.2, 1.0, seed=4)
    assert _derived(ds) == _applied(ds)
    for part in split(ds, 0.25, seed=4):
        assert _derived(part) == _applied(part)
        assert _derived(part.take(np.arange(5))) == _applied(part.take(np.arange(5)))


def test_replacing_the_transform_replaces_the_features(tmp_path):
    ds = load_csv(write(tmp_path, "a,c,label,group\n1,x,1,0\n2,y,0,1\n4,x,1,1\n"), SCHEMA)
    assert ds.features.any()  # computed before the replace
    other = ds.transform.fit(ds.raw[:2])
    swapped = replace(ds, transform=other)
    assert swapped.features.tobytes() == other.apply(ds.raw).tobytes()
    assert swapped.features.tobytes() != ds.features.tobytes()
    with pytest.raises(FrozenInstanceError):
        ds.transform = other


def test_load_csv_reads_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts with a BOM; the first column keeps its name
    for text in ("x,c,label,group\n1,é,1,0\n2,y,0,1\n", "label,x,group\n1,1,0\n0,2,1\n"):
        plain = load_csv(write(tmp_path, text), SCHEMA)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        bom = load_csv(path, SCHEMA)
        assert bom.raw.tobytes() == plain.raw.tobytes()
        assert bom.feature_names == plain.feature_names
        assert bom.labels.tobytes() == plain.labels.tobytes()


def test_load_csv_that_is_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("x,c,label,group\n1,café,1,0\n2,y,0,1\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"^{path}: not UTF-8 text"):
        load_csv(path, SCHEMA)
    # far past the decoder's first read chunk, after every other row is read
    path.write_bytes("x,c,label,group\n".encode() + b"1,y,1,0\n2,y,0,1\n" * 4000
                     + "3,café,1,0\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"^{path}: not UTF-8 text"):
        load_csv(path, SCHEMA)


# Differential test of load_csv's two readers: whatever a file holds,
# load_csv gives what the csv.reader path alone gives, the same Dataset bits
# or the same fault. The file is a clean table that both readers accept,
# with a few cells changed to pieces that either reader might take
# differently.
_SPACE = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x0b",
                          "\x1c", "\x85", "\u200b"])  # U+200B is not whitespace
_NUMBER = st.floats(-1e6, 1e6).map(repr) | st.integers(-99, 99).map(str)
_CATEGORY_CELL = st.sampled_from(["a", "b", "c d"])
_EXTRA = st.sampled_from(["id", "zz", "a much longer identifier"])


def _odd_pieces(kind, cell):
    """Families of cells to put in place of cell, of a column of this kind
    (the header's, or a cell's in a column of kind)."""
    families = [
        [cell],  # only the surrounding whitespace changes
        [f'"{cell}"', f'"{cell}', f'{cell}"', f'"{cell},x"', f'"{cell}"x', '""'],
        ["", " ", cell + ",", "," + cell, "#" + cell],
        [cell + "\x00", "\x00" + cell],
    ]
    if kind == "number":
        families += [["nan", "-inf", "Infinity", "1e999"],
                     ["1_0", "١٢", "٣.5", "0x1", ".5", "5.", "-0.0", "+1e-3", "1e", "1 2", "a"]]
    return families


def _clean_cell(draw, kind, schema, row):
    if kind in ("number", "category", "extra"):
        return draw({"number": _NUMBER, "category": _CATEGORY_CELL, "extra": _EXTRA}[kind])
    positive = schema.positive_label_value if kind == "label" else schema.positive_sensitive_value
    # the first four rows hold each value twice, so a clean file of two rows
    # or more has a positive label and both groups, and of four rows or more
    # still has them after one changed cell. Later rows may also hold values
    # that only start with the positive one, one long enough to be cut short
    # by a fixed-width field.
    if row < 4:
        return (positive, "0")[row % 2]
    return draw(st.sampled_from([positive, "0"] * 3 + [f" {positive}\t", positive + " x",
                                                      positive * 2, positive + " " * 12 + "x"]))


def _reference(path, encoding):
    """load_csv by the csv.reader path alone."""
    fit = isinstance(encoding, CsvSchema)
    schema = encoding if fit else encoding.schema
    raw, labels, sensitive, transform = _read_rows(path, schema, None if fit else encoding)
    return Dataset(raw, labels, sensitive, transform.fit(raw) if fit else transform)


def _outcome(read, path, encoding):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = read(path, encoding)
    except Exception as exc:  # noqa: BLE001 - the fault itself is compared
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return (ds.raw.shape, ds.raw.tobytes(), ds.labels.tobytes(), ds.sensitive.tobytes(),
            ds.transform.to_meta())


def _fitted_on_clean_rows(path, names, kinds, schema):
    """The transform load_csv fits under schema on a clean file of the
    feature columns among names: every category once, both labels, both
    groups."""
    features = [name for name, kind in zip(names, kinds) if kind in ("number", "category")]
    rows = [[str(i) if kinds[names.index(f)] == "number" else cat for f in features]
            + [label, group] for i, (cat, label, group) in enumerate(zip(
                ["a", "b", "c d"], [schema.positive_label_value, "0", "0"],
                ["0", schema.positive_sensitive_value, "0"]))]
    path.write_text("\n".join(",".join(r) for r in [features + ["label", "group"], *rows]),
                    encoding="utf-8")
    return load_csv(path, schema).transform


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), n_numeric=st.sampled_from([1, 2, 2, 0]),
       n_category=st.sampled_from([0, 0, 0, 1]), n_extra=st.sampled_from([0, 1]),
       positives=st.sampled_from([("1", "1"), ("yes", "F")]),
       include_sensitive=st.booleans(), served=st.booleans())
def test_load_csv_reads_every_file_as_the_csv_reader_path(
        data, n, n_numeric, n_category, n_extra, positives, include_sensitive, served):
    schema = CsvSchema("label", "group", *positives, include_sensitive)
    # an extra column is one the transform ignores, so only a served file has one
    served = served and n_numeric + n_category > 0
    kinds = data.draw(st.permutations(["number"] * n_numeric + ["category"] * n_category
                                      + ["extra"] * (n_extra * served) + ["label", "group"]))
    names = [kind if kind in ("label", "group") else f"{kind[0]}{j}"
             for j, kind in enumerate(kinds)]
    table = [list(names)] + [[_clean_cell(data.draw, kind, schema, i) for kind in kinds]
                             for i in range(n)]
    for _ in range(data.draw(st.sampled_from([1, 1, 1, 0, 2]))):
        i, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, len(kinds) - 1))
        family = data.draw(st.sampled_from(
            _odd_pieces("header" if i == 0 else kinds[j], table[i][j])))
        table[i][j] = data.draw(st.sampled_from(family))
        if data.draw(st.booleans()):
            table[i][j] = data.draw(_SPACE) + table[i][j] + data.draw(_SPACE)
    endings = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in table]
    blanks = [""] + [data.draw(st.sampled_from(["", "", "", "\n", "\r\n", "\r"]))
                     for _ in table[1:]]
    text = "".join(blank + ",".join(row) + end
                   for blank, row, end in zip(blanks, table, endings))
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        # served: read through a transform fitted on a clean file with the
        # same feature columns, so an extra column is ignored
        encoding = _fitted_on_clean_rows(path, names, kinds, schema) if served else schema
        path.write_bytes(b"\xef\xbb\xbf" * data.draw(st.booleans()) + text.encode("utf-8"))
        assert _outcome(load_csv, path, encoding) == _outcome(_reference, path, encoding)


@pytest.mark.parametrize("text, served", [
    ("a,label,group\n1,1,0\n2,1 x,1\n3,0,1\n", False),
    ("a,label,group\n1,1,0\n2,1" + " " * 12 + "x,1\n3,0,1\n", False),
    ('a,label,group\n1,1,0\n2,"1",1\n3,0,1\n', False),
    ('"a",label,group\n1,1,0\n2,0,1\n', False),
    ('"a,b",label,group\n1,1,0\n2,0,1\n', False),
    ("a,label,group\n1,1,0\n2,0,1\n3,1\x00,1\n", False),
    ("a,label,group\n1,1,0\n2,0,1\x00\n3,0,1\n", False),
    ("\na,label,group\n1,1,0\n2,0,1\n", False),
    ("a,label,group\n1,1,0\nnan,0,1\n", False),
    ("a,label,group\n1,1,0\n1e999,0,1\n", False),
    ("a,label,group\n1_0,1,0\n٣,0,1\n", False),
    ("a,label,group\n 1\u2003,1,0\n\u00a02 ,0,1\n", False),
    ('a,e,label,group\n1,"",1,0\n2,x,0,1\n', True),
    ("a,e,label,group\n1, ,1,0\n2,x,0,1\n", True),
    ('a,e,label,group\n1,"x,y",1,0\n2,x,0,1\n', True),
    ("a,label,group\n" + "0" * 200_000 + ",1,0\n2,0,1\n", False),
], ids=["label-extends-positive", "label-longer-than-field", "quoted-label", "quoted-header",
        "quoted-comma-in-header", "nul-in-label", "nul-in-group", "blank-line-above-header",
        "nan", "overflow", "float-only-syntax", "unicode-whitespace", "quoted-empty-ignored",
        "blank-ignored", "quoted-comma-ignored", "cell-over-csv-field-limit"])
def test_load_csv_reads_known_hard_files_as_the_csv_reader_path(tmp_path, text, served):
    encoding = SCHEMA
    if served:
        encoding = load_csv(write(tmp_path, "a,label,group\n1,1,0\n2,0,1\n", "fit.csv"),
                            SCHEMA).transform
    path = write(tmp_path, text)
    assert _outcome(load_csv, path, encoding) == _outcome(_reference, path, encoding)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("text, column", [
    ("a,b,label,group\n1,1e300,1,0\n2,-1e300,0,1\n", "b"),
    ("a,b,label,group\n1e308,1,1,0\n1e308,2,0,1\n", "a"),
], ids=["stdev", "mean"])
def test_statistics_that_overflow_are_validation_error_in_both_readers(
        tmp_path, text, column):
    path = write(tmp_path, text)
    for read in (load_csv, _reference):
        with pytest.raises(ValidationError, match=f"numeric column '{column}': its mean or"):
            read(path, SCHEMA)


@pytest.mark.parametrize("body", ["", "\n\r\n\r"], ids=["header-only", "blank-lines"])
def test_file_without_rows_is_validation_error_and_warns_nothing(tmp_path, body):
    path = write(tmp_path, "a,label,group\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(path, SCHEMA)


def test_numeric_files_take_the_loadtxt_reader(tmp_path):
    ds = synth_biased(200, 3, 0.5, 0.2, 1.0, seed=0)
    train, test = split(ds, 0.25, seed=0)
    write_csv(ds, tmp_path / "full.csv")
    write_csv(test, tmp_path / "test.csv")
    assert _read_numeric(tmp_path / "full.csv", SCHEMA, None) is not None
    assert _read_numeric(tmp_path / "test.csv", SCHEMA, train.transform) is not None
    # a one-hot column is left to the csv.reader path, fitted or served
    categorical = write(tmp_path, "a,c,label,group\n1,x,1,0\n2,y,0,1\n")
    assert _read_numeric(categorical, SCHEMA, None) is None
    fitted = load_csv(categorical, SCHEMA).transform
    assert _read_numeric(categorical, SCHEMA, fitted) is None
