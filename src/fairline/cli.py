"""Command-line interface: synth, train, sweep, compare.

Logs go to stderr; machine-readable outputs go to files or stdout. Exit
codes: 0 success; 2 usage error (bad flags, config file or parameter
values); 4 numeric failure during training; 3 for any other package error
(data, checkpoint, shape, empty group, frontier range) and for OS errors.
No package error escapes as a traceback. Flag values are checked before
the data file is read; TrainConfig owns the training-flag rules. A config
file (flat key=value, keys spelled like the long flags without dashes)
supplies defaults; command-line flags win. YODO_SEED in the environment
provides the default seed. compare is a thin caller of
evaluation.compare_to_grid.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .baseline import DEFAULT_FAIRNESS_GRID
from .data import CsvSchema, load_csv, split, synth_biased, write_csv
from .errors import FairlineError, NumericError, ParameterError
from .evaluation import DEFAULT_ALPHA_GRID, alpha_sweep, compare_to_grid, write_report
from .losses import FAIRNESS_METRICS
from .subspace import TrainConfig, load_checkpoint, save_checkpoint, train_subspace

logger = logging.getLogger("fairline")

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERIC_ERROR = 4


class UsageError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("YODO_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default="label", help="name of the label column")
    p.add_argument("--sensitive-column", default="group",
                   help="name of the sensitive-attribute column")
    p.add_argument("--positive-label", default="1",
                   help="raw cell value mapped to label 1")
    p.add_argument("--positive-sensitive", default="1",
                   help="raw cell value mapped to group 1")
    p.add_argument("--include-sensitive", action="store_true",
                   help="also include the sensitive attribute as a feature")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--fairness-weight", type=float, default=1.0,
                   help="penalty strength at the fairness endpoint (the A column)")
    p.add_argument("--diversity-weight", type=float, default=1.0,
                   help="weight of the endpoint-diversity regularizer")
    p.add_argument("--metric", choices=FAIRNESS_METRICS, default="dp")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="training seed (default from YODO_SEED if set)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairline",
        description="Train one network with an accuracy endpoint and a fairness "
                    "endpoint; pick the trade-off at inference time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kw = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("synth", help="generate a biased synthetic CSV", **kw)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--n", type=int, default=4000, help="number of rows")
    p.add_argument("--d", type=int, default=6, help="number of features")
    p.add_argument("--group-fraction", type=float, default=0.5,
                   help="fraction of rows in group 1")
    p.add_argument("--gap", type=float, default=0.4,
                   help="positive-rate gap between the groups")
    p.add_argument("--noise", type=float, default=1.0, help="feature noise scale")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train a subspace model and save a checkpoint", **kw)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--data", required=True, help="training CSV path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--fixed-alpha", type=float, default=None,
                   help="train at one fixed mixing ratio instead of sampling")
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction of rows (0 trains on everything)")
    p.add_argument("--test-out", default=None,
                   help="write the held-out split to this CSV")
    _add_train_flags(p)
    _add_schema_flags(p)

    p = sub.add_parser("sweep", help="evaluate a checkpoint over a grid of alphas", **kw)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--checkpoint", required=True, help="subspace checkpoint path")
    p.add_argument("--test", required=True, help="test CSV path")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--grid", default=None,
                   help="comma-separated alphas in [0,1] (default: 0,0.05,...,1)")
    _add_schema_flags(p)

    p = sub.add_parser(
        "compare",
        help="train subspace + fixed-penalty grid, report both frontiers, "
             "the frontier gap, and the wall-time ratio", **kw)
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--data", required=True, help="CSV path (split internally)")
    p.add_argument("--out", required=True, help="combined report CSV path")
    p.add_argument("--checkpoint", default=None,
                   help="reuse this subspace checkpoint instead of training "
                        "(the wall-time ratio then covers only fixed runs)")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--grid", default=None,
                   help="comma-separated alphas (default: 0,0.05,...,1)")
    p.add_argument("--fairness-grid", default=None,
                   help="comma-separated penalty strengths "
                        "(default: 0,0.05,...,1)")
    _add_train_flags(p)
    _add_schema_flags(p)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Install config-file values as subcommand defaults so explicit flags win."""
    if not argv:
        return
    command = argv[0]
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(command)
    if sub is None:
        return  # let argparse produce its own usage error
    actions = {}
    for action in sub._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                actions[opt[2:]] = action
    defaults = {}
    for key, raw in _parse_config_file(path).items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise UsageError(f"unknown config key '{key}' for command '{command}'")
        if isinstance(action, argparse._StoreTrueAction):
            defaults[action.dest] = raw.lower() in ("1", "true", "yes")
        elif action.type is not None:
            try:
                defaults[action.dest] = action.type(raw)
            except ValueError:
                raise UsageError(f"config key '{key}': cannot parse {raw!r}") from None
        else:
            defaults[action.dest] = raw
        if action.choices is not None and defaults[action.dest] not in action.choices:
            raise UsageError(f"config key '{key}': {raw!r} not in {action.choices}")
    sub.set_defaults(**defaults)


def _schema_from_args(args) -> CsvSchema:
    return CsvSchema(
        label_column=args.label_column,
        sensitive_column=args.sensitive_column,
        positive_label_value=args.positive_label,
        positive_sensitive_value=args.positive_sensitive,
        include_sensitive=args.include_sensitive,
    )


def _train_config(args, fixed_alpha=None) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, fairness_weight=args.fairness_weight,
        diversity_weight=args.diversity_weight, fairness_metric=args.metric,
        seed=args.seed, fixed_alpha=fixed_alpha,
    )


def _parse_grid(raw: str | None, flag: str, default, lo=None, hi=None) -> list[float]:
    if raw is None:
        return list(default)
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {raw!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty grid")
    for v in values:
        if lo is not None and v < lo or hi is not None and v > hi:
            raise UsageError(f"{flag}: value {v} outside [{lo}, {hi}]")
    return values


def cmd_synth(args) -> int:
    if not 0.0 <= args.gap <= 1.0:
        raise UsageError(f"--gap must be in [0, 1], got {args.gap}")
    if not 0.0 < args.group_fraction < 1.0:
        raise UsageError(f"--group-fraction must be in (0, 1), got {args.group_fraction}")
    if args.noise <= 0:
        raise UsageError(f"--noise must be > 0, got {args.noise}")
    ds = synth_biased(args.n, args.d, args.group_fraction, args.gap,
                      args.noise, args.seed)
    write_csv(ds, args.out)
    logger.info("wrote %d rows to %s", ds.n, args.out)
    return 0


def _load_split(args):
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError(f"--test-fraction must be in [0, 1), got {args.test_fraction}")
    ds = load_csv(args.data, _schema_from_args(args))
    if args.test_fraction > 0:
        return split(ds, args.test_fraction, args.seed)
    return ds, None


def cmd_train(args) -> int:
    config = _train_config(args, fixed_alpha=args.fixed_alpha)
    if args.test_out and not args.test_fraction > 0:
        raise UsageError("--test-out requires --test-fraction > 0")
    train_ds, test_ds = _load_split(args)
    model = train_subspace(train_ds, config)
    save_checkpoint(model, args.out)
    logger.info("checkpoint written to %s (%.2fs)", args.out, model.wall_time_s)
    if args.test_out:
        write_csv(test_ds, args.test_out)
        logger.info("held-out split written to %s", args.test_out)
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid, "--grid", DEFAULT_ALPHA_GRID, lo=0.0, hi=1.0)
    model = load_checkpoint(args.checkpoint)
    test = load_csv(args.test, _schema_from_args(args))
    records = alpha_sweep(model, test, grid)
    write_report(records, args.out)
    logger.info("%d records written to %s", len(records), args.out)
    return 0


def cmd_compare(args) -> int:
    alpha_grid = _parse_grid(args.grid, "--grid", DEFAULT_ALPHA_GRID, lo=0.0, hi=1.0)
    fairness_grid = _parse_grid(args.fairness_grid, "--fairness-grid",
                                DEFAULT_FAIRNESS_GRID, lo=0.0)
    config = _train_config(args)
    if not args.test_fraction > 0:
        raise UsageError("--test-fraction must be > 0 for compare")
    train_ds, test_ds = _load_split(args)
    model = None
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        logger.info("loaded subspace checkpoint %s", args.checkpoint)
    line_records, fixed_records, gap, ratio = compare_to_grid(
        train_ds, test_ds, config, alpha_grid, fairness_grid, model=model)
    write_report(line_records + fixed_records, args.out)
    logger.info("report written to %s", args.out)
    print("frontier_gap=" if gap is None else f"frontier_gap={gap:.9g}")
    print("wall_time_ratio=" if ratio is None else f"wall_time_ratio={ratio:.9g}")
    return 0


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (UsageError, ParameterError)):
        return USAGE_ERROR
    if isinstance(exc, NumericError):
        return NUMERIC_ERROR
    return DATA_ERROR


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        handler = {
            "synth": cmd_synth,
            "train": cmd_train,
            "sweep": cmd_sweep,
            "compare": cmd_compare,
        }[args.command]
        return handler(args)
    except (UsageError, FairlineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
