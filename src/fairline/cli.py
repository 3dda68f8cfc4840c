"""Command-line interface: synth, train, sweep, compare.

Logs go to stderr; machine-readable outputs go to files or stdout. Exit
codes: 0 success; 2 usage error (bad flags, config file, YODO_SEED or
parameter values); 4 numeric failure (a non-finite value during training,
or a served model whose predictions are not finite); 3 for any other
package error (data, such as a CSV that is not UTF-8; checkpoint, such as
one without a feature transform or with non-finite weights; a compare
worker that dies while training the line or a fixed model; shape, empty
group, frontier range) and for OS errors.
Input files may start with a UTF-8 byte-order mark. No package error
escapes as a traceback. A command runs with numpy's overflow and invalid
warnings off (library callers keep numpy's defaults), so a numeric failure
prints only its error line. The library owns every parameter rule, which
each command applies before the data file is read. A flag's dest is the
library parameter it sets; main names the flag whose dest is a
ParameterError's parameter. A config file (key=value lines, keys spelled
like the long flags without dashes, booleans 1/true/yes or 0/false/no) is
read as flags ahead of the command line's own, so explicit flags win.
YODO_SEED gives the default seed; a bad one is an error only where used.
train and compare read their CSV by the schema flags; sweep has none, and
reads its CSV by the feature transform the checkpoint recorded at training,
schema included, so a train --test-out file and the raw training file both
sweep as trained. compare is a thin caller of evaluation.compare_to_grid
on the split it makes itself; it trains the line and the fixed-penalty grid
in --jobs worker processes, by default one per usable core.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys

import numpy as np

from .baseline import DEFAULT_FAIRNESS_GRID, check_fairness_grid, check_jobs
from .data import (
    CsvSchema, FeatureTransform, check_test_fraction, load_csv, open_text, split, synth_biased,
    write_csv)
from .errors import FairlineError, NumericError, ParameterError
from .evaluation import (
    DEFAULT_ALPHA_GRID, alpha_sweep, check_alpha_grid, compare_to_grid, write_report)
from .losses import FAIRNESS_METRICS
from .subspace import TrainConfig, load_checkpoint, save_checkpoint, train_subspace

logger = logging.getLogger("fairline")

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERIC_ERROR = 4


def _default_seed() -> int | None:
    """YODO_SEED (0 when unset), or None when it is not a non-negative integer."""
    raw = os.environ.get("YODO_SEED", "")
    try:
        seed = int(raw) if raw else 0
    except ValueError:
        return None
    return seed if seed >= 0 else None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose flags map each long flag, without dashes, to its action."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update((opt[2:], action) for opt in action.option_strings
                          if opt.startswith("--"))
        return action


def floats(raw: str) -> list[float]:
    """The argparse type of a comma-separated grid flag."""
    return [float(tok) for tok in raw.split(",") if tok.strip() != ""]


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    default = CsvSchema()
    p.add_argument("--label-column", default=default.label_column,
                   help="name of the label column")
    p.add_argument("--sensitive-column", default=default.sensitive_column,
                   help="name of the sensitive-attribute column")
    p.add_argument("--positive-label", dest="positive_label_value",
                   default=default.positive_label_value, metavar="VALUE",
                   help="raw cell value mapped to label 1")
    p.add_argument("--positive-sensitive", dest="positive_sensitive_value",
                   default=default.positive_sensitive_value, metavar="VALUE",
                   help="raw cell value mapped to group 1")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    default = TrainConfig(epochs=8)  # the epoch count is the CLI's own
    p.add_argument("--epochs", type=int, default=default.epochs,
                   help="passes over the training rows")
    p.add_argument("--batch-size", type=int, default=default.batch_size,
                   help="rows per training step")
    p.add_argument("--learning-rate", type=float, default=default.learning_rate,
                   help="Adam step size")
    p.add_argument("--fairness-weight", type=float, default=default.fairness_weight,
                   help="penalty strength at the fairness endpoint (the A column)")
    p.add_argument("--diversity-weight", type=float, default=default.diversity_weight,
                   help="weight of the endpoint-diversity regularizer")
    p.add_argument("--metric", dest="fairness_metric", default=default.fairness_metric,
                   help=f"fairness metric: {', '.join(FAIRNESS_METRICS)}")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="training seed; YODO_SEED, if set, gives the default")
    p.add_argument("--include-sensitive", action="store_true",
                   help="also include the sensitive attribute as a feature "
                        "(the checkpoint's feature transform records it)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Parser]]:
    """The fairline parser and its subcommand parsers by command name."""
    parser = _Parser(
        prog="fairline",
        description="Train one network with an accuracy endpoint and a fairness "
                    "endpoint; pick the trade-off at inference time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kw = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("synth", help="generate a biased synthetic CSV", **kw)
    p.set_defaults(run=cmd_synth)
    p.add_argument("--n", type=int, default=4000, help="number of rows")
    p.add_argument("--d", type=int, default=6, help="number of features")
    p.add_argument("--group-fraction", type=float, default=0.5,
                   help="fraction of rows in group 1")
    p.add_argument("--gap", dest="base_rate_gap", metavar="GAP", type=float, default=0.4,
                   help="positive-rate gap between the groups")
    p.add_argument("--noise", type=float, default=1.0, help="feature noise scale")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="data seed; YODO_SEED, if set, gives the default")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train a subspace model and save a checkpoint", **kw)
    p.set_defaults(run=cmd_train)
    p.add_argument("--data", required=True, help="training CSV path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction of rows (0 trains on everything)")
    p.add_argument("--test-out", default=None,
                   help="write the held-out rows, unstandardized and in the "
                        "training schema, to this CSV")
    _add_train_flags(p)
    _add_schema_flags(p)

    p = sub.add_parser("sweep", help="evaluate a checkpoint over a grid of alphas", **kw)
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--checkpoint", required=True, help="subspace checkpoint path")
    p.add_argument("--test", required=True,
                   help="test CSV path, read by the checkpoint's schema and feature "
                        "transform")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--grid", dest="alpha_grid", metavar="GRID", type=floats,
                   default=DEFAULT_ALPHA_GRID, help="comma-separated alphas in [0,1]")

    p = sub.add_parser(
        "compare",
        help="train subspace + fixed-penalty grid, report both frontiers, "
             "the frontier gap, and the wall-time ratio", **kw)
    p.set_defaults(run=cmd_compare)
    p.add_argument("--data", required=True, help="CSV path (split internally)")
    p.add_argument("--out", required=True, help="combined report CSV path")
    p.add_argument("--checkpoint", default=None,
                   help="reuse this subspace checkpoint instead of training "
                        "(no line is trained, so wall_time_ratio= is empty)")
    p.add_argument("--test-fraction", type=float, default=0.25,
                   help="fraction of rows held out for evaluation")
    p.add_argument("--grid", dest="alpha_grid", metavar="GRID", type=floats,
                   default=DEFAULT_ALPHA_GRID, help="comma-separated alphas in [0,1]")
    p.add_argument("--fairness-grid", type=floats, default=DEFAULT_FAIRNESS_GRID,
                   help="comma-separated penalty strengths")
    p.add_argument("--jobs", type=int, default=_usable_cores(),
                   help="worker processes that train the line and the "
                        "fixed-penalty grid, capped at the number of runs; the "
                        "default is the number of usable cores. Under more than "
                        "one, every run times itself while sharing the cores; "
                        "--jobs 1 times each run alone")
    _add_train_flags(p)
    _add_schema_flags(p)
    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="key=value defaults file")
    return parser, sub.choices


def _config_flags(path: str, command: str, flags: dict[str, argparse.Action]) -> list[str]:
    """The config file's key=value lines as command-line flags for command."""
    def unreadable(exc):
        return ParameterError(f"cannot read config file: {exc}")

    try:
        with open_text(path, unreadable) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise unreadable(exc) from None
    tokens = []
    for line_no, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        key, sep, raw = (part.strip() for part in line.partition("="))
        action = None if key in ("config", "help") else flags.get(key)
        if not sep:
            raise ParameterError(f"{path}:{line_no}: expected key=value, got {line!r}")
        if action is None:
            raise ParameterError(f"unknown config key '{key}' for command '{command}'")
        if action.nargs != 0:
            tokens.append(f"--{key}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            tokens.append(f"--{key}")
        elif raw.lower() not in ("0", "false", "no"):
            raise ParameterError(f"config key '{key}': expected 1/true/yes or 0/false/no, "
                                 f"got {raw!r}")
    return tokens


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's values go in as flags right after the
    command, so the explicit flags that follow them win."""
    parser, commands = build_parser()
    config = argparse.ArgumentParser(prog="fairline", add_help=False)
    config.add_argument("--config")
    path = config.parse_known_args(argv)[0].config
    if path is not None and argv[0] in commands:
        argv = [argv[0], *_config_flags(path, argv[0], commands[argv[0]].flags), *argv[1:]]
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:  # no --seed was given, and YODO_SEED is no seed
        raise ParameterError("YODO_SEED must be a non-negative integer, "
                             f"got {os.environ['YODO_SEED']!r}")
    return args


def _from_args(build, args):
    """build called with the flags whose dests are its parameter names; a
    parameter with no flag on this command keeps its default."""
    params = inspect.signature(build).parameters
    return build(**{name: getattr(args, name) for name in params if hasattr(args, name)})


def cmd_synth(args) -> int:
    ds = _from_args(synth_biased, args)
    write_csv(ds, args.out)
    logger.info("wrote %d rows to %s", ds.n, args.out)
    return 0


def cmd_train(args) -> int:
    config = _from_args(TrainConfig, args)
    if args.test_fraction:
        check_test_fraction(args.test_fraction)
    elif args.test_out:
        raise ParameterError("--test-out requires --test-fraction > 0")
    ds = load_csv(args.data, _from_args(CsvSchema, args))
    train_ds, test_ds = (split(ds, args.test_fraction, args.seed) if args.test_fraction
                         else (ds, None))
    model = train_subspace(train_ds, config)
    save_checkpoint(model, args.out)
    logger.info("checkpoint written to %s (%.2fs)", args.out, model.wall_time_s)
    if args.test_out:
        write_csv(test_ds, args.test_out)
        logger.info("held-out split written to %s", args.test_out)
    return 0


def cmd_sweep(args) -> int:
    grid = check_alpha_grid(args.alpha_grid)
    model = load_checkpoint(args.checkpoint)
    transform = FeatureTransform.from_meta(model.train_meta, model.arch.input_dim)
    test = load_csv(args.test, transform)
    records = alpha_sweep(model, test, grid)
    write_report(records, args.out)
    logger.info("%d records written to %s", len(records), args.out)
    return 0


def cmd_compare(args) -> int:
    alpha_grid = check_alpha_grid(args.alpha_grid)
    fairness_grid = check_fairness_grid(args.fairness_grid)
    check_jobs(args.jobs)
    config = _from_args(TrainConfig, args)
    check_test_fraction(args.test_fraction)
    train_ds, test_ds = split(load_csv(args.data, _from_args(CsvSchema, args)),
                              args.test_fraction, args.seed)
    model = None
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        logger.info("loaded subspace checkpoint %s", args.checkpoint)
    line_records, fixed_records, gap, ratio = compare_to_grid(
        train_ds, test_ds, config, alpha_grid, fairness_grid, model=model, jobs=args.jobs)
    write_report(line_records + fixed_records, args.out)
    logger.info("report written to %s", args.out)
    print("frontier_gap=" if gap is None else f"frontier_gap={gap:.9g}")
    print("wall_time_ratio=" if ratio is None else f"wall_time_ratio={ratio:.9g}")
    return 0


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ParameterError):
        return USAGE_ERROR
    if isinstance(exc, NumericError):
        return NUMERIC_ERROR
    return DATA_ERROR


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # forked workers inherit it
            return args.run(args)
    except (FairlineError, OSError) as exc:
        if isinstance(exc, ParameterError) and exc.param is not None:
            flags = build_parser()[1][args.command].flags.items()
            flag = next((f"--{key}" for key, a in flags if a.dest == exc.param), exc.param)
            exc = ParameterError(exc.rule, param=flag)
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
