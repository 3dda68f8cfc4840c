"""Every flag the CLI names in an error must exist, and every library
parameter a command takes from its flags must have one.

cli.main rewrites a ParameterError's parameter name into a flag through
cli._flag_for, and cli._from_args builds TrainConfig and CsvSchema from the
flags whose dests are their field names. A renamed flag or a new field would
otherwise only show as an error naming a flag that does not exist, or as a
field that silently keeps its default.
"""

import inspect
from dataclasses import fields

from fairline import cli
from fairline.data import CsvSchema, synth_biased
from fairline.subspace import TrainConfig

_, COMMANDS = cli.build_parser()


def _dest(command: str, param: str) -> str | None:
    action = COMMANDS[command].flags.get(cli._flag_for(param)[2:])
    return None if action is None else action.dest


def test_every_mapped_flag_exists():
    flags = {f"--{key}" for parser in COMMANDS.values() for key in parser.flags}
    assert set(cli._PARAM_FLAGS.values()) <= flags


def test_every_training_parameter_maps_to_its_flag():
    skip = {"train": {"shuffle_seed"}, "compare": {"shuffle_seed", "fixed_alpha"}}
    wrong = [(command, f.name) for command in skip for f in fields(TrainConfig)
             if f.name not in skip[command] and _dest(command, f.name) != f.name]
    assert wrong == []


def test_every_synth_parameter_maps_to_a_synth_flag():
    params = inspect.signature(synth_biased).parameters
    assert [p for p in params if _dest("synth", p) is None] == []


def test_grid_and_split_parameters_map_to_their_flags():
    assert _dest("sweep", "alpha_grid") == "grid"
    assert _dest("compare", "alpha_grid") == "grid"
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
