"""Exception types shared across the package, and the number-parameter rules:
check_integer and check_real, one rule per kind of number, check a value's
type and range in one call that states the range, and check_grid a grid's."""

import math
from numbers import Integral, Real


class FairlineError(Exception):
    """Base class for all package errors."""


class ShapeError(FairlineError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(FairlineError):
    """A configuration value or argument is outside its allowed range; param,
    when set, names the parameter and the message reads "<param> <rule>"."""

    def __init__(self, rule: str, param: str | None = None):
        super().__init__(rule if param is None else f"{param} {rule}")
        self.param, self.rule = param, rule


def check_integer(value, param: str, minimum: int) -> int:
    """The integer-parameter rule: value is an Integral, a Python or a numpy
    integer, >= minimum, and comes back as an int. Anything else, a bool or a
    float even with an integral value included, raises ParameterError naming
    param: "<param> must be an integer >= <minimum>, got <value>"."""
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise ParameterError(f"must be an integer >= {minimum}, got {value!r}", param=param)


def check_real(value, param: str, low: float, high: float = math.inf, *,
               exclusive: bool = False) -> float:
    """The real-parameter rule: value is a Real, a Python or numpy integer or
    float, finite and in [low, high], or in (low, high) when exclusive, and
    comes back as a float. Anything else, a bool, text, NaN or an integer too
    large for a float included, raises ParameterError naming param: "<param>
    must be a number in [low, high], got <value>", an excluded end, inf
    included, written with ( or )."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if math.isfinite(x) and (low < x < high if exclusive else low <= x <= high):
            return x
    interval = (f"{'(' if exclusive else '['}{low:g}, {high:g}"
                f"{')' if exclusive or high == math.inf else ']'}")
    raise ParameterError(f"must be a number in {interval}, got {value!r}", param=param)


def check_grid(values, param: str, low: float, high: float = math.inf) -> list[float]:
    """The grid rule: values is non-empty, each value by check_real in
    [low, high]; returns the floats. Else ParameterError naming param."""
    grid = [check_real(v, param, low, high) for v in values]
    if not grid:
        raise ParameterError("must be non-empty", param=param)
    return grid


class EmptyGroupError(FairlineError):
    """A group (or group/label cell) required by a metric has no samples."""


class DataError(FairlineError):
    """Base class for dataset ingestion and validation failures."""


class SchemaError(DataError):
    """A required column is missing or the file header is unusable."""


class RowParseError(DataError):
    """A cell could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ValidationError(DataError):
    """The parsed dataset violates an invariant (e.g. a single-group file)."""


class CheckpointError(FairlineError):
    """A checkpoint file is truncated, corrupted, or inconsistent."""


class NumericError(FairlineError):
    """A non-finite value appeared during training or in a served model's
    predictions."""


class FrontierRangeError(FairlineError):
    """Two frontiers have no overlapping error-rate range to compare."""
