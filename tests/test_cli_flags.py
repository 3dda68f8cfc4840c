"""Every library parameter a command takes from its flags must be the dest
of one of that command's flags.

A flag's dest is the library parameter it sets: cli._from_args builds
TrainConfig, CsvSchema and synth_biased's call from the flags whose dests
are their parameter names, and cli.main names a ParameterError's parameter
by the flag whose dest it is. A renamed dest or a new parameter would
otherwise only show as a parameter that silently keeps its default, or as
an error that names the library parameter instead of its flag.
"""

import inspect
from dataclasses import fields

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
