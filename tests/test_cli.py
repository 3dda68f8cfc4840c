import csv
import json
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fairline import baseline, cli
from fairline.cli import main, parse_args
from fairline.data import CsvSchema, FeatureTransform, load_csv, split, write_csv
from fairline.evaluation import alpha_sweep, read_report, write_report
from fairline.model import MlpArchitecture
from fairline.subspace import TrainConfig, load_checkpoint, save_checkpoint, train_subspace


def run(argv):
    return main(list(argv))


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert run(["synth", "--n", "600", "--gap", "0.4", "--seed", "7",
                "--out", str(path)]) == 0
    return path


# ------------------------------------------------------------ synth

def test_synth_writes_both_groups(synth_csv):
    lines = synth_csv.read_text().splitlines()
    assert lines[0].split(",")[-2:] == ["label", "group"]
    groups = {ln.split(",")[-1] for ln in lines[1:]}
    assert groups == {"0", "1"}
    assert len(lines) == 601


def test_synth_rerun_identical(tmp_path, synth_csv):
    other = tmp_path / "again.csv"
    assert run(["synth", "--n", "600", "--gap", "0.4", "--seed", "7",
                "--out", str(other)]) == 0
    assert other.read_bytes() == synth_csv.read_bytes()


def test_synth_invalid_gap_names_flag(tmp_path, capsys):
    code = run(["synth", "--n", "100", "--gap", "1.5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--gap" in capsys.readouterr().err


def test_synth_rule_without_cli_copy_names_flag(tmp_path, capsys):
    # only synth_biased checks n; the CLI names the flag in its error
    out = tmp_path / "x.csv"
    assert run(["synth", "--n", "10", "--out", str(out)]) == 2
    assert "error: --n must be >= 40" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ train

def train_args(synth_csv, out, extra=()):
    return ["train", "--data", str(synth_csv), "--out", str(out),
            "--epochs", "2", "--batch-size", "64", "--seed", "3", *extra]


def test_train_writes_checkpoint(synth_csv, tmp_path):
    out = tmp_path / "model.ckpt"
    assert run(train_args(synth_csv, out)) == 0
    assert out.exists() and out.read_bytes()[:4] == b"YODO"


def test_train_seed_repeat_identical_bytes(synth_csv, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert run(train_args(synth_csv, a)) == 0
    assert run(train_args(synth_csv, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_missing_label_column(synth_csv, tmp_path, capsys):
    code = run(["train", "--data", str(synth_csv), "--out",
                str(tmp_path / "m.ckpt"), "--label-column", "income"])
    assert code == 3
    assert "income" in capsys.readouterr().err


def test_train_test_out_split(synth_csv, tmp_path):
    out = tmp_path / "model.ckpt"
    test_csv = tmp_path / "test.csv"
    assert run(train_args(synth_csv, out,
                          ["--test-fraction", "0.25", "--test-out", str(test_csv)])) == 0
    assert len(test_csv.read_text().splitlines()) == 151  # header + 150 rows


def test_train_test_out_without_fraction_fails_before_training(synth_csv, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    code = run(train_args(synth_csv, out, ["--test-out", str(tmp_path / "test.csv")]))
    assert code == 2
    assert "--test-out" in capsys.readouterr().err
    assert not out.exists()


def test_train_negative_test_fraction_fails_before_loading(tmp_path, capsys):
    # the data file does not exist: a check that ran after load_csv would exit 3
    out = tmp_path / "model.ckpt"
    code = run(train_args(tmp_path / "missing.csv", out, ["--test-fraction", "-0.5"]))
    assert code == 2
    assert "--test-fraction" in capsys.readouterr().err
    assert not out.exists()


def test_train_fixed_alpha_names_flag_before_loading(tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    code = run(train_args(tmp_path / "missing.csv", out, ["--fixed-alpha", "1.5"]))
    assert code == 2
    assert "error: --fixed-alpha must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["compare", "--fairness-grid", "0,inf"], "--fairness-grid"),
    (["compare", "--fairness-grid", "0,nan"], "--fairness-grid"),
    (["compare", "--grid", "nan"], "--grid"),
    (["compare", "--grid", ","], "--grid"),
    (["sweep", "--grid", "2"], "--grid"),
    (["compare", "--jobs", "0"], "--jobs"),
], ids=["fairness-inf", "fairness-nan", "alpha-nan", "alpha-empty", "sweep-alpha-2",
        "jobs-zero"])
def test_grid_values_checked_before_any_file_is_read(argv, flag, tmp_path, capsys):
    # every input file is missing: a check that ran after a load would exit 3
    missing = str(tmp_path / "missing")
    files = (["--checkpoint", missing, "--test", missing] if argv[0] == "sweep"
             else ["--data", missing])
    out = tmp_path / "out.csv"
    assert run([*argv, *files, "--out", str(out)]) == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_training_flags_checked_before_loading(command, tmp_path, capsys):
    # the data file does not exist: a check that ran after load_csv would exit 3
    out = tmp_path / "out"
    code = run([command, "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                "--epochs", "0"])
    assert code == 2
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("flag", ["--positive-label", "--positive-sensitive"])
def test_padded_positive_value_is_usage_error(flag, command, tmp_path, capsys):
    # load_csv strips every cell, so ' yes' would match none; the data file
    # does not exist, so a check that ran after load_csv would exit 3
    out = tmp_path / "out"
    code = run([command, "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                f"{flag}= yes"])
    assert code == 2
    assert f"error: {flag} must be non-empty without surrounding whitespace" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_label_column_that_is_the_sensitive_column_is_usage_error(command, tmp_path, capsys):
    # the data file does not exist, so a check that ran after load_csv would exit 3
    out = tmp_path / "out"
    code = run([command, "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                "--label-column", "group"])
    assert code == 2
    assert "error: --label-column must differ from the sensitive column" in \
        capsys.readouterr().err
    assert not out.exists()


def test_train_positive_label_that_matches_no_cell_exits_3(synth_csv, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    code = run(train_args(synth_csv, out, ["--positive-label", "yes"]))
    err = capsys.readouterr().err
    assert code == 3
    assert "error: label column 'label' has no cell equal to the positive label 'yes'" in err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("a" * 200_000 + ",label,group\n1,1,0\n2,0,1\n", 1),
    ("a,label,group\n1,1,0\n\n" + "2" * 200_000 + ",0,1\n", 4),
], ids=["header", "body"])
def test_train_cell_over_csv_field_limit_exits_3(text, line, tmp_path, capsys):
    data, out = tmp_path / "big.csv", tmp_path / "model.ckpt"
    data.write_text(text)
    assert run(["train", "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {line}: field larger than")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("command", ["train", "compare"])
def test_statistics_that_overflow_exit_3_naming_the_column(command, tmp_path, capsys):
    data, out = tmp_path / "big.csv", tmp_path / "out"
    data.write_text("a,b,label,group\n" + "".join(
        f"{i},{(-1) ** i * 1e300!r},{i % 2},{i // 4}\n" for i in range(8)))
    assert run([command, "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: numeric column 'b': its mean or stdev is not finite"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_training_overflow_prints_only_its_error_line(command, synth_csv, tmp_path, capfd):
    # capfd: compare's pooled workers write to the stderr descriptor they
    # inherit. The "error" filter turns a warning in any process into a
    # traceback, since pytest records warnings instead of printing them.
    argv = [command, "--data", str(synth_csv), "--out", str(tmp_path / "out"),
            "--learning-rate", "1e308", "--epochs", "2"]
    if command == "compare":
        argv += ["--jobs", "2", "--fairness-grid", "0,1"]
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 4
    err = capfd.readouterr().err
    assert "RuntimeWarning" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: non-finite loss at epoch")


def test_test_out_round_trips_quoted_categories(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "c", "label", "group"])
        for i in range(80):
            writer.writerow([rng.normal(), ["a, b", 'say "hi"', "plain"][i % 3],
                             int(rng.random() < 0.5), i % 2])
    ckpt, test_csv, report = tmp_path / "m.ckpt", tmp_path / "test.csv", tmp_path / "r.csv"
    assert run(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
                "--batch-size", "16", "--test-fraction", "0.25",
                "--test-out", str(test_csv)]) == 0
    assert run(["sweep", "--checkpoint", str(ckpt), "--test", str(test_csv),
                "--out", str(report)]) == 0
    assert len(read_report(report)) == 21


def test_train_unknown_metric_usage_error(synth_csv, tmp_path, capsys):
    # TrainConfig owns the rule; the CLI only names the flag
    assert run(train_args(synth_csv, tmp_path / "m.ckpt", ["--metric", "gini"])) == 2
    assert "'dp', 'eo', 'eodd'" in capsys.readouterr().err


# ------------------------------------------------------------ sweep

@pytest.fixture()
def checkpoint(synth_csv, tmp_path):
    out = tmp_path / "model.ckpt"
    assert run(train_args(synth_csv, out)) == 0
    return out


def test_sweep_default_grid(checkpoint, synth_csv, tmp_path):
    report = tmp_path / "report.csv"
    assert run(["sweep", "--checkpoint", str(checkpoint), "--test", str(synth_csv),
                "--out", str(report)]) == 0
    records = read_report(report)
    assert len(records) == 21
    assert [r.alpha for r in records] == [k / 20 for k in range(21)]


def test_sweep_rejects_out_of_range_alpha(checkpoint, synth_csv, tmp_path, capsys):
    code = run(["sweep", "--checkpoint", str(checkpoint), "--test", str(synth_csv),
                "--out", str(tmp_path / "r.csv"), "--grid", "0.5,1.5"])
    assert code == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_rerun_identical(checkpoint, synth_csv, tmp_path):
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for r in (r1, r2):
        assert run(["sweep", "--checkpoint", str(checkpoint), "--test",
                    str(synth_csv), "--out", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_sweep_missing_checkpoint_is_data_error(synth_csv, tmp_path):
    assert run(["sweep", "--checkpoint", str(tmp_path / "none.ckpt"),
                "--test", str(synth_csv), "--out", str(tmp_path / "r.csv")]) == 3


def test_sweep_feature_width_mismatch_is_data_error(checkpoint, tmp_path, capsys):
    # the checkpoint was trained on x1..x6; this CSV has x1..x4
    narrow = tmp_path / "narrow.csv"
    assert run(["synth", "--n", "100", "--d", "4", "--out", str(narrow)]) == 0
    capsys.readouterr()
    code = run(["sweep", "--checkpoint", str(checkpoint), "--test", str(narrow),
                "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: feature column 'x5' not found" in err
    assert "Traceback" not in err


def test_sweep_non_integer_seed_metadata_is_checkpoint_error(checkpoint, synth_csv,
                                                             tmp_path, capsys):
    model = load_checkpoint(checkpoint)
    model.train_meta["config.seed"] = "x"
    save_checkpoint(model, checkpoint)
    code = run(["sweep", "--checkpoint", str(checkpoint), "--test", str(synth_csv),
                "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: config.seed" in err
    assert "Traceback" not in err


def _spoil(path, case):
    """Rewrite a line checkpoint with a NaN weight in w_fair, or with both
    endpoints scaled so far that every prediction overflows to NaN."""
    model = load_checkpoint(path)
    if case == "nan-weight":
        model.w_fair[0] = np.nan
    else:
        model = replace(model, w_acc=model.w_acc * 1e300, w_fair=model.w_fair * 1e300)
    save_checkpoint(model, path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("case, code, message", [
    ("nan-weight", 3, "error: array w_fair holds non-finite values"),
    ("huge-weights", 4, "error: the served model's predictions at alpha=0.0 are not finite"),
])
def test_sweep_non_finite_checkpoint_exits_3_or_4(checkpoint, synth_csv, tmp_path, capsys,
                                                  case, code, message):
    _spoil(checkpoint, case)
    report = tmp_path / "r.csv"
    assert run(["sweep", "--checkpoint", str(checkpoint), "--test", str(synth_csv),
                "--out", str(report)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not report.exists()


# ------------------------------------- feature transform, train to serve

def categorical_csv(path, n=240, categories=("a, b", "plain", "z")):
    rng = np.random.default_rng(0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "c", "label", "group"])
        for i in range(n):
            k = i % len(categories)
            writer.writerow([rng.normal() + k, categories[k], int(rng.random() < 0.3 + 0.2 * k),
                             i % 2])
    return path


# A schema whose label and sensitive columns are not label and group, and
# whose positive label holds a comma; schema_csv writes a file in it, by
# default with feature columns named label and group.
INCOME = CsvSchema("income", "sex", positive_label_value=">50K, high",
                   positive_sensitive_value="F")


def schema_flags(schema):
    return ["--label-column", schema.label_column,
            "--sensitive-column", schema.sensitive_column,
            "--positive-label", schema.positive_label_value,
            "--positive-sensitive", schema.positive_sensitive_value,
            *["--include-sensitive"] * schema.include_sensitive]


def schema_csv(path, n=240, features=("label", "group")):
    rng = np.random.default_rng(1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([features[0], "income", features[1], "sex"])
        for i in range(n):
            k = i % 3
            income = ">50K, high" if rng.random() < 0.3 + 0.2 * k else "<=50K"
            writer.writerow([rng.normal() + k, income, ("a, b", "plain", "z")[k], "FM"[i % 2]])
    return path


@pytest.mark.parametrize("kind", ["numeric", "categorical", "categorical-sensitive",
                                  "non-default-schema"])
def test_test_out_sweep_matches_library_sweep(kind, synth_csv, tmp_path):
    if kind == "non-default-schema":
        data, schema = schema_csv(tmp_path / "income.csv"), INCOME
    else:
        data = synth_csv if kind == "numeric" else categorical_csv(tmp_path / "cat.csv")
        schema = CsvSchema(include_sensitive=kind.endswith("sensitive"))
    ckpt, test_csv, report = tmp_path / "m.ckpt", tmp_path / "test.csv", tmp_path / "r.csv"
    assert run(train_args(data, ckpt, ["--test-fraction", "0.25", "--test-out", str(test_csv),
                                       *schema_flags(schema)])) == 0
    # sweep has no schema flags: the checkpoint's transform decides
    assert run(["sweep", "--checkpoint", str(ckpt), "--test", str(test_csv),
                "--out", str(report)]) == 0
    train, test = split(load_csv(data, schema), 0.25, seed=3)
    model = train_subspace(train, TrainConfig(epochs=2, batch_size=64, seed=3))
    served = load_checkpoint(ckpt)
    assert model.w_acc.tobytes() == served.w_acc.tobytes()
    assert model.w_fair.tobytes() == served.w_fair.tobytes()
    library = tmp_path / "library.csv"
    write_report(alpha_sweep(model, test), library)
    assert report.read_bytes() == library.read_bytes()


@pytest.fixture()
def categorical_checkpoint(tmp_path):
    ckpt = tmp_path / "cat.ckpt"
    assert run(train_args(categorical_csv(tmp_path / "cat.csv"), ckpt)) == 0
    return ckpt


def test_sweep_csv_lacking_a_training_category(categorical_checkpoint, tmp_path):
    served = categorical_csv(tmp_path / "served.csv", n=60, categories=("a, b", "plain"))
    report = tmp_path / "r.csv"
    assert run(["sweep", "--checkpoint", str(categorical_checkpoint), "--test", str(served),
                "--out", str(report)]) == 0
    model = load_checkpoint(categorical_checkpoint)
    test = load_csv(served, FeatureTransform.from_meta(model.train_meta, 4))
    assert test.feature_names == ["x", "c=a, b", "c=plain", "c=z"]
    assert not test.raw[:, 3].any()
    assert len(read_report(report)) == 21


def test_sweep_unknown_category_names_column_and_value(categorical_checkpoint, tmp_path,
                                                       capsys):
    served = categorical_csv(tmp_path / "served.csv", n=60, categories=("a, b", "plain", "q"))
    code = run(["sweep", "--checkpoint", str(categorical_checkpoint), "--test", str(served),
                "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: line 4: unknown category 'q' in column 'c'" in err
    assert "Traceback" not in err


def test_sweep_checkpoint_without_transform_is_refused(checkpoint, synth_csv, tmp_path,
                                                       capsys):
    # no file may be served on an encoding fitted on itself
    model = load_checkpoint(checkpoint)
    del model.train_meta[FeatureTransform.META_KEY]
    save_checkpoint(model, checkpoint)
    report = tmp_path / "r.csv"
    code = run(["sweep", "--checkpoint", str(checkpoint), "--test", str(synth_csv),
                "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 3
    assert "records no feature transform ('transform' key)" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_sweep_raw_training_file_needs_no_schema_flags(tmp_path):
    data = schema_csv(tmp_path / "income.csv")
    ckpt, report = tmp_path / "m.ckpt", tmp_path / "r.csv"
    assert run(train_args(data, ckpt, schema_flags(INCOME))) == 0
    assert run(["sweep", "--checkpoint", str(ckpt), "--test", str(data),
                "--out", str(report)]) == 0
    ds = load_csv(data, INCOME)
    library = tmp_path / "library.csv"
    write_report(alpha_sweep(train_subspace(ds, TrainConfig(epochs=2, batch_size=64, seed=3)),
                             ds), library)
    assert report.read_bytes() == library.read_bytes()


def test_sweep_transform_without_schema_reads_the_default_schema(tmp_path):
    # the transform format before the schema was recorded: no schema keys but
    # include_sensitive, and a --test-out file that wrote label,group as 0/1
    data = schema_csv(tmp_path / "income.csv", features=("x", "c"))
    ckpt, report = tmp_path / "m.ckpt", tmp_path / "r.csv"
    schema = replace(INCOME, include_sensitive=True)
    assert run(train_args(data, ckpt, ["--test-fraction", "0.25", *schema_flags(schema)])) == 0
    model = load_checkpoint(ckpt)
    obj = json.loads(model.train_meta[FeatureTransform.META_KEY])
    for key in ("label_column", "sensitive_column", "positive_label_value",
                "positive_sensitive_value"):
        del obj[key]
    model.train_meta[FeatureTransform.META_KEY] = json.dumps(obj)
    save_checkpoint(model, ckpt)
    _, test = split(load_csv(data, schema), 0.25, seed=3)
    legacy = replace(test.transform, schema=CsvSchema(include_sensitive=True))
    test_csv = tmp_path / "test.csv"
    write_csv(replace(test, transform=legacy), test_csv)
    assert test_csv.read_text().splitlines()[0] == "x,c,label,group"
    assert run(["sweep", "--checkpoint", str(ckpt), "--test", str(test_csv),
                "--out", str(report)]) == 0
    library = tmp_path / "library.csv"
    write_report(alpha_sweep(model, test), library)
    assert report.read_bytes() == library.read_bytes()


def _transform_json(**changes):
    obj = {"columns": [{"name": "x", "categories": None},
                       {"name": "c", "categories": ["a, b", "plain", "z"]}],
           "include_sensitive": False, "mean": [0.5, 0.0, 0.0, 0.0],
           "scale": [2.0, 1.0, 1.0, 1.0]}
    obj.update(changes)
    return json.dumps(obj)


@pytest.mark.parametrize("value", [
    "not json", "[]", "{}", _transform_json(columns="x"),
    _transform_json(columns=[{"name": "x", "categories": "abc"}]),
    _transform_json(columns=[{"name": "x", "categories": ["b", "a"]}]),
    _transform_json(columns=[{"name": 1, "categories": None}]),
    _transform_json(include_sensitive="no"),
    _transform_json(mean=[0.5, 0.0, 0.0]),
    _transform_json(mean=[float("nan"), 0.0, 0.0, 0.0]),
    _transform_json(scale=[0.0, 1.0, 1.0, 1.0]),
    _transform_json(scale="wide"),
    "[" * 100000,
    # well formed, but 5 columns wide for a 4-input network
    _transform_json(include_sensitive=True, mean=[0.5] + [0.0] * 4, scale=[1.0] * 5),
    _transform_json(label_column=1),
    _transform_json(positive_sensitive_value=None),
    _transform_json(positive_label_value=" 1"),
    _transform_json(label_column="x"),
    _transform_json(sensitive_column="c"),
    _transform_json(columns=[{"name": "x", "categories": None},
                             {"name": "x", "categories": ["a, b", "plain", "z"]}]),
], ids=["not-json", "list", "empty", "columns-str", "categories-str", "unsorted",
        "name-int", "flag-str", "short-mean", "nan-mean", "zero-scale", "scale-str",
        "deep-nesting", "width-mismatch", "label-column-int", "positive-sensitive-null",
        "positive-label-padded", "feature-named-like-label", "feature-named-like-sensitive",
        "duplicate-feature"])
def test_sweep_bad_transform_is_checkpoint_error(value, categorical_checkpoint, tmp_path,
                                                 capsys):
    model = load_checkpoint(categorical_checkpoint)
    model.train_meta[FeatureTransform.META_KEY] = value
    save_checkpoint(model, categorical_checkpoint)
    served = categorical_csv(tmp_path / "served.csv", n=60)
    code = run(["sweep", "--checkpoint", str(categorical_checkpoint), "--test", str(served),
                "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: " in err and "feature transform" in err
    assert "Traceback" not in err


# ---------------------------------------------------------- compare

def compare_args(synth_csv, out, extra=()):
    return ["compare", "--data", str(synth_csv), "--out", str(out),
            "--epochs", "2", "--batch-size", "64", "--seed", "5", *extra]


def test_compare_reports_gap_and_ratio(synth_csv, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run(compare_args(synth_csv, out,
                            ["--grid", "0,0.5,1", "--fairness-grid", "0,0.5,1"])) == 0
    stdout = capsys.readouterr().out
    gap_lines = [ln for ln in stdout.splitlines() if ln.startswith("frontier_gap=")]
    ratio_lines = [ln for ln in stdout.splitlines() if ln.startswith("wall_time_ratio=")]
    assert len(gap_lines) == 1 and len(ratio_lines) == 1
    assert float(gap_lines[0].split("=")[1]) >= 0.0
    records = read_report(out)
    assert len(records) == 6
    assert sum(r.alpha is not None for r in records) == 3
    assert sum(r.fairness_weight is not None for r in records) == 3


def test_compare_single_element_grids(synth_csv, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run(compare_args(synth_csv, out,
                            ["--grid", "1.0", "--fairness-grid", "1.0"])) == 0
    records = read_report(out)
    assert len(records) == 2
    assert records[0].alpha == 1.0 and records[1].fairness_weight == 1.0
    # single-point frontiers may not overlap; the gap line is still emitted
    stdout = capsys.readouterr().out
    assert sum(ln.startswith("frontier_gap=") for ln in stdout.splitlines()) == 1


def test_compare_report_file_deterministic(synth_csv, tmp_path):
    o1, o2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    args = ["--grid", "0,1", "--fairness-grid", "0,1"]
    assert run(compare_args(synth_csv, o1, args)) == 0
    assert run(compare_args(synth_csv, o2, args)) == 0
    assert o1.read_bytes() == o2.read_bytes()


@pytest.fixture()
def compare_checkpoint(synth_csv, tmp_path):
    # trained on compare_args's split: same file, schema, fraction and seed
    out = tmp_path / "line.ckpt"
    assert run(["train", "--data", str(synth_csv), "--out", str(out), "--epochs", "2",
                "--batch-size", "64", "--seed", "5", "--test-fraction", "0.25"]) == 0
    return out


def test_compare_can_reuse_checkpoint(synth_csv, compare_checkpoint, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run(compare_args(synth_csv, out,
                            ["--checkpoint", str(compare_checkpoint),
                             "--grid", "0,1", "--fairness-grid", "1.0"])) == 0
    stdout = capsys.readouterr().out
    assert "wall_time_ratio=\n" in stdout  # no subspace training time to compare


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("case, code, message", [
    ("nan-weight", 3, "error: array w_fair holds non-finite values"),
    ("huge-weights", 4, "error: the served model's predictions at alpha=0.0 are not finite"),
])
def test_compare_non_finite_checkpoint_exits_3_or_4(synth_csv, compare_checkpoint, tmp_path,
                                                    capsys, case, code, message):
    _spoil(compare_checkpoint, case)
    out = tmp_path / "cmp.csv"
    capsys.readouterr()
    assert run(compare_args(synth_csv, out,
                            ["--checkpoint", str(compare_checkpoint),
                             "--grid", "0,1", "--fairness-grid", "1.0"])) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, fixture", [("sweep", "checkpoint"),
                                              ("compare", "compare_checkpoint")])
def test_overflowing_checkpoint_prints_only_its_error_line(command, fixture, synth_csv,
                                                           tmp_path, capsys, request):
    # numpy's overflow warnings are not printed ahead of the NumericError
    ckpt = request.getfixturevalue(fixture)
    _spoil(ckpt, "huge-weights")
    out = tmp_path / "r.csv"
    argv = (["sweep", "--checkpoint", str(ckpt), "--test", str(synth_csv), "--out", str(out)]
            if command == "sweep" else
            compare_args(synth_csv, out, ["--checkpoint", str(ckpt), "--grid", "0,1",
                                          "--fairness-grid", "1.0"]))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: the served model's predictions at alpha=0.0 are not finite"]


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_fixed_checkpoint_is_refused_by_kind(command, synth_csv, tmp_path, capsys):
    # only the line's kind 0 is read back; a fixed model's kind 1 is never served
    ckpt, out = tmp_path / "fixed.ckpt", tmp_path / "r.csv"
    arch = MlpArchitecture(6, (8,))
    baseline.save_fixed_checkpoint(
        baseline.FixedModel(arch, np.zeros(arch.param_count), 0.5), ckpt)
    argv = (["sweep", "--checkpoint", str(ckpt), "--test", str(synth_csv), "--out", str(out)]
            if command == "sweep" else
            compare_args(synth_csv, out, ["--checkpoint", str(ckpt), "--grid", "0,1",
                                          "--fairness-grid", "1.0"]))
    capsys.readouterr()
    assert run(argv) == 3
    assert capsys.readouterr().err == "error: checkpoint kind 1, expected 0\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["sensitive-in-checkpoint", "sensitive-in-compare",
                                  "other-rows"])
def test_compare_checkpoint_with_other_transform_is_checkpoint_error(
        case, synth_csv, checkpoint, tmp_path, capsys):
    ckpt, extra, key = checkpoint, [], "mean"  # trained on every row, seed 3
    if case != "other-rows":
        ckpt, key = tmp_path / "line.ckpt", "include_sensitive"
        flags = ["--test-fraction", "0.25", "--seed", "5"]
        if case == "sensitive-in-checkpoint":
            flags.append("--include-sensitive")
        else:
            extra = ["--include-sensitive"]
        assert run(train_args(synth_csv, ckpt, flags)) == 0
    out = tmp_path / "cmp.csv"
    capsys.readouterr()
    code = run(compare_args(synth_csv, out, ["--checkpoint", str(ckpt), "--grid", "0,1",
                                             "--fairness-grid", "1.0", *extra]))
    err = capsys.readouterr().err
    assert code == 3
    assert f"feature transform differs from the training split's in '{key}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["other-metric", "no-metric"])
def test_compare_checkpoint_with_other_fairness_metric_is_refused(
        case, synth_csv, tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a fixed model was trained")

    monkeypatch.setattr("fairline.evaluation.sweep_fixed", no_grid)
    ckpt = tmp_path / "line.ckpt"
    metric = "eo" if case == "other-metric" else "dp"
    assert run(train_args(synth_csv, ckpt, ["--test-fraction", "0.25", "--seed", "5",
                                            "--metric", metric])) == 0
    if case == "no-metric":
        model = load_checkpoint(ckpt)
        del model.train_meta["config.fairness_metric"]
        save_checkpoint(model, ckpt)
    out = tmp_path / "cmp.csv"
    capsys.readouterr()
    code = run(compare_args(synth_csv, out, ["--checkpoint", str(ckpt), "--grid", "0,1",
                                             "--fairness-grid", "1.0"]))
    err = capsys.readouterr().err
    recorded = "'eo'" if case == "other-metric" else "None"
    assert code == 3
    assert (f"the model's 'config.fairness_metric' is {recorded}, "
            f"not the grid's fairness metric 'dp'") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_checkpoint_without_transform_is_refused(synth_csv, compare_checkpoint,
                                                         tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a fixed model was trained")

    monkeypatch.setattr("fairline.evaluation.sweep_fixed", no_grid)
    model = load_checkpoint(compare_checkpoint)
    del model.train_meta[FeatureTransform.META_KEY]
    save_checkpoint(model, compare_checkpoint)
    out = tmp_path / "cmp.csv"
    code = run(compare_args(synth_csv, out, ["--checkpoint", str(compare_checkpoint),
                                             "--grid", "0,1", "--fairness-grid", "1.0"]))
    err = capsys.readouterr().err
    assert code == 3
    assert "records no feature transform ('transform' key)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_jobs_keep_report_bytes(synth_csv, tmp_path, capsys):
    args = ["--grid", "0,0.5,1", "--fairness-grid", "0,0.5,1"]
    reports, gaps = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"cmp{jobs}.csv"
        assert run(compare_args(synth_csv, out, [*args, "--jobs", jobs])) == 0
        reports.append(out.read_bytes())
        gaps.append([ln for ln in capsys.readouterr().out.splitlines()
                     if ln.startswith("frontier_gap=")])
    assert reports[0] == reports[1] and gaps[0] == gaps[1]


def test_compare_dead_grid_worker_exits_3(synth_csv, tmp_path, capsys, monkeypatch):
    train_fixed = baseline.train_fixed

    def dies_at_half(train, config, fairness_weight, **kwargs):
        if fairness_weight == 0.5:
            os._exit(9)
        return train_fixed(train, config, fairness_weight, **kwargs)

    monkeypatch.setattr(baseline, "train_fixed", dies_at_half)  # forked workers inherit it
    out = tmp_path / "cmp.csv"
    code = run(compare_args(synth_csv, out, ["--grid", "0,1", "--fairness-grid", "0,0.5,1",
                                             "--jobs", "2"]))
    err = capsys.readouterr().err
    assert code == 3
    assert "error: a training worker process died" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_dead_line_worker_exits_3(synth_csv, tmp_path, capsys, monkeypatch):
    def dies(*args, **kwargs):
        os._exit(9)

    monkeypatch.setattr(baseline, "train_subspace", dies)  # forked workers inherit it
    out = tmp_path / "cmp.csv"
    code = run(compare_args(synth_csv, out, ["--grid", "0,1", "--fairness-grid", "0,1",
                                             "--jobs", "2"]))
    err = capsys.readouterr().err
    assert code == 3
    assert "error: a training worker process died" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_jobs_default_is_usable_cores():
    args = parse_args(["compare", "--data", "d.csv", "--out", "o"])
    assert args.jobs == len(os.sched_getaffinity(0))


# ------------------------------------------------------------- misc

@pytest.mark.parametrize("command", ["synth", "train", "sweep", "compare"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert "--help" in capsys.readouterr().out


def _flag_help(command, capsys):
    """command's --help text per flag, by the flag's first name, with its
    line breaks folded into spaces."""
    with pytest.raises(SystemExit):
        run([command, "--help"])
    entries = re.split(r"\n(?=  -)", capsys.readouterr().out)
    return {entry.split()[0]: " ".join(entry.split()) for entry in entries[1:]}


@pytest.mark.parametrize("command", ["train", "compare"])
def test_help_shows_the_training_defaults(command, capsys):
    flags = _flag_help(command, capsys)
    assert "(default: 8)" in flags["--epochs"]
    assert "(default: 512)" in flags["--batch-size"]
    assert "(default: 0.001)" in flags["--learning-rate"]
    if command == "compare":
        assert "(default: 0.25)" in flags["--test-fraction"]


def test_synth_help_shows_the_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("YODO_SEED", "7")
    seed = _flag_help("synth", capsys)["--seed"]
    assert "YODO_SEED" in seed and "(default: 7)" in seed


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_csv_that_is_not_utf8_exits_3(synth_csv, checkpoint, tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(synth_csv.read_bytes().replace(b"x1", "café".encode("latin-1"), 1))
    out = tmp_path / "out"
    for argv in (train_args(latin1, out),
                 ["sweep", "--checkpoint", str(checkpoint), "--test", str(latin1),
                  "--out", str(out)],
                 compare_args(latin1, out)):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, argv[0]
        assert f"error: {latin1}: not UTF-8 text" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.conf"
    cfg.write_bytes("# café\nn=123\n".encode("latin-1"))
    out = tmp_path / "data.csv"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot read config file: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "synth.conf"
    cfg.write_bytes(b"\xef\xbb\xbfn=123\n")
    out = tmp_path / "data.csv"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 124


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "synth.conf"
    cfg.write_text("n=123\ngap=0.2\nseed=9\n")
    out = tmp_path / "data.csv"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 124


def test_config_file_flag_wins(tmp_path):
    cfg = tmp_path / "synth.conf"
    cfg.write_text("n=123\n")
    out = tmp_path / "data.csv"
    assert run(["synth", "--config", str(cfg), "--n", "77", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 78


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.conf"
    cfg.write_text("frobs=3\n")
    code = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "frobs" in capsys.readouterr().err


def test_sweep_config_schema_key_is_unknown(tmp_path, capsys):
    # sweep reads its CSV by the checkpoint's schema, so it takes no schema key
    cfg = tmp_path / "sweep.conf"
    cfg.write_text("label-column=income\n")
    code = run(["sweep", "--config", str(cfg), "--checkpoint", "m.ckpt", "--test", "t.csv",
                "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "unknown config key 'label-column' for command 'sweep'" in capsys.readouterr().err


@pytest.mark.parametrize("raw, expected", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False),
])
def test_config_file_boolean_spellings(raw, expected, tmp_path):
    cfg = tmp_path / "train.conf"
    cfg.write_text(f"include-sensitive={raw}\n")
    args = parse_args(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
    assert args.include_sensitive is expected


def test_config_file_bad_boolean_names_key(tmp_path, capsys):
    cfg = tmp_path / "train.conf"
    cfg.write_text("include-sensitive=maybe\n")
    out = tmp_path / "m.ckpt"
    code = run(["train", "--config", str(cfg), "--data", str(tmp_path / "missing"),
                "--out", str(out)])
    assert code == 2
    assert "include-sensitive" in capsys.readouterr().err
    assert not out.exists()


def _flag_cases():
    _, commands = cli.build_parser()
    return [pytest.param(command, key, id=f"{command}-{key}")
            for command, parser in commands.items()
            for key in parser.flags if key not in ("config", "help")]


@pytest.mark.parametrize("command, key", _flag_cases())
def test_config_file_key_parses_like_its_flag(command, key, tmp_path, monkeypatch):
    monkeypatch.delenv("YODO_SEED", raising=False)
    parser = cli.build_parser()[1][command]
    action = parser.flags[key]
    if action.nargs == 0:
        raw, tokens = "true", [f"--{key}"]
    else:
        # compare --jobs defaults to the core count, so 7 may be its default
        raw = (action.choices[-1] if action.choices
               else {int: "7" if action.default != 7 else "8", float: "0.3",
                     cli.floats: "0,0.5"}.get(action.type, "v.csv"))
        tokens = [f"--{key}", raw]
    # the other required flags go on the command line in both runs
    base = [tok for other, a in parser.flags.items() if a.required and other != key
            for tok in (f"--{other}", "r.csv")]
    cfg = tmp_path / "c.conf"
    cfg.write_text(f"{key}={raw}\n")
    from_file = vars(parse_args([command, "--config", str(cfg), *base]))
    from_flags = vars(parse_args([command, *base, *tokens]))
    assert from_file.pop("config") == str(cfg) and from_flags.pop("config") is None
    assert from_file == from_flags
    assert from_flags[action.dest] != action.default  # the value was really set


def test_seed_env_var_not_an_integer_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("YODO_SEED", "abc")
    out = tmp_path / "a.csv"
    assert run(["synth", "--n", "100", "--out", str(out)]) == 2
    assert "error: YODO_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("YODO_SEED", "7")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["synth", "--n", "100", "--out", str(a)]) == 0
    monkeypatch.delenv("YODO_SEED")
    assert run(["synth", "--n", "100", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
