"""fairline: one training run, a user-selectable accuracy-fairness trade-off.

Trains a single MLP with two endpoint weight vectors, one optimized for
accuracy and one for group fairness, and serves any point on the line between
them at inference time.
"""

from .baseline import (
    DEFAULT_FAIRNESS_GRID,
    FixedModel,
    load_fixed_checkpoint,
    predict_fixed,
    save_fixed_checkpoint,
    sweep_fixed,
    train_fixed,
)
from .data import CsvSchema, Dataset, FeatureTransform, batches, load_csv, split, synth_biased
from .errors import (
    CheckpointError,
    DataError,
    EmptyGroupError,
    FairlineError,
    FrontierRangeError,
    NumericError,
    ParameterError,
    RowParseError,
    SchemaError,
    ShapeError,
    ValidationError,
)
from .evaluation import (
    DEFAULT_ALPHA_GRID,
    MetricsRecord,
    alpha_sweep,
    compare_to_grid,
    evaluate_predictions,
    frontier_gap,
    pareto_frontier,
    read_report,
    write_report,
)
from .losses import LossValue, bce, fairness_loss, squared_cosine
from .model import MlpArchitecture, Workspace, backward, forward, init_params
from .subspace import (
    AdamState,
    SubspaceModel,
    TrainConfig,
    batch_gradients,
    interpolate,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_subspace,
)

__version__ = "0.1.0"
