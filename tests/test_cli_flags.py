"""Every library parameter a command takes from its flags must be the dest
of one of that command's flags.

A flag's dest is the library parameter it sets: cli._from_args builds
TrainConfig, CsvSchema and synth_biased's call from the flags whose dests
are their parameter names, and cli.main names a ParameterError's parameter
by the flag whose dest it is. A renamed dest or a new parameter would
otherwise only show as a parameter that silently keeps its default, or as
an error that names the library parameter instead of its flag.

Each command also applies every number rule before it reads a file: an
out-of-range value of any numeric flag is a usage error naming the flag,
even where the input files do not exist.
"""

import inspect
from dataclasses import fields

import pytest

from fairline import cli
from fairline.data import CsvSchema, synth_biased
from fairline.subspace import TrainConfig

_, COMMANDS = cli.build_parser()


def _dest(command: str, param: str) -> str | None:
    dests = {action.dest for action in COMMANDS[command].flags.values()}
    return param if param in dests else None


def test_every_training_parameter_maps_to_its_flag():
    # the shared training flags set exactly TrainConfig's fields, plus the
    # schema's include_sensitive, and train and compare both take all of them
    shared = cli._Parser(add_help=False)
    cli._add_train_flags(shared)
    dests = {action.dest for action in shared.flags.values()}
    assert dests == {f.name for f in fields(TrainConfig)} | {"include_sensitive"}
    for command in ("train", "compare"):
        assert [d for d in dests if _dest(command, d) is None] == []


def test_every_synth_parameter_maps_to_a_synth_flag():
    params = inspect.signature(synth_biased).parameters
    assert [p for p in params if _dest("synth", p) is None] == []


def test_grid_and_split_parameters_map_to_their_flags():
    assert _dest("sweep", "alpha_grid") == "alpha_grid"
    assert _dest("compare", "alpha_grid") == "alpha_grid"
    assert _dest("compare", "fairness_grid") == "fairness_grid"
    assert _dest("train", "test_fraction") == "test_fraction"
    assert _dest("compare", "test_fraction") == "test_fraction"


def test_every_schema_field_is_a_flag_dest():
    # sweep reads its CSV by the schema the checkpoint recorded, so it has none
    schema = {f.name for f in fields(CsvSchema)}
    dests = {command: {a.dest for a in COMMANDS[command].flags.values()}
             for command in ("train", "sweep", "compare")}
    assert schema - dests["train"] == schema - dests["compare"] == set()
    assert schema & dests["sweep"] == set()


def test_schema_flag_defaults_are_the_default_schema():
    for command in ("train", "compare"):
        args = cli.parse_args([command, "--data", "d.csv", "--out", "o"])
        assert cli._from_args(CsvSchema, args) == CsvSchema()
        # and the training flags' are TrainConfig's, but for the CLI's own
        # epoch count and YODO_SEED seed
        assert cli._from_args(TrainConfig, args) == \
            TrainConfig(epochs=8, seed=cli._default_seed())


# one out-of-range value per numeric flag, by the flag's name without dashes
OUT_OF_RANGE = {
    "n": "39", "d": "1", "group-fraction": "1", "gap": "-0.1", "noise": "0", "seed": "-1",
    "epochs": "0", "batch-size": "1", "learning-rate": "0", "fairness-weight": "-1",
    "diversity-weight": "inf", "test-fraction": "1", "grid": "0.5,1.5",
    "fairness-grid": "0,-1", "jobs": "0",
}


@pytest.mark.parametrize("command", ["synth", "train", "sweep", "compare"])
def test_every_numeric_flag_is_checked_before_any_file_is_read(command, tmp_path, capsys):
    # every input file is missing: a check that ran after a load would exit 3
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    files = {"synth": [], "train": ["--data", missing], "sweep": ["--checkpoint", missing,
             "--test", missing], "compare": ["--data", missing, "--checkpoint", missing]}
    flags = [(key, action) for key, action in COMMANDS[command].flags.items()
             if action.type in (int, float, cli.floats)]
    assert flags and [key for key, _ in flags if key not in OUT_OF_RANGE] == []
    for key, action in flags:
        argv = [command, *files[command], "--out", str(out), f"--{key}={OUT_OF_RANGE[key]}"]
        rule = "an integer >= " if action.type is int else "a number in "
        assert cli.main(argv) == 2, key
        assert f"error: --{key} must be {rule}" in capsys.readouterr().err
        assert not out.exists()
