"""Exception types shared across the package."""


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
