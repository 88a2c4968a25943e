"""Multi-hypothesis prediction at desk scale.

A single shared network emits M output vectors per input. Training routes
each label to its best-matching hypothesis under a pluggable base loss,
with a small relaxation weight and hypothesis dropout keeping losing
hypotheses alive. At the optimum the hypotheses form a centroidal
tessellation of the conditional label space, which the `voronoi` module
verifies against a classical quantizer oracle.
"""

__version__ = "0.1.0"

from .losses import CROSS_ENTROPY, DEFAULT_TUKEY_C, L2, LossKind, hypothesis_targets
from .meta_loss import MetaLossConfig, assign_batch, draw_dropout
from .network import (MlpModel, OptimizerState, TrainingDivergedError, forward,
                      forward_batch, init_mlp, load_checkpoint, make_optimizer,
                      save_checkpoint, step)
from .training import EpochMetrics, TrainSchedule, train
from .voronoi import (LloydResult, Tessellation, centroidal_residual, lloyd, lloyd_best_of,
                      quantization_error, tessellate)

__all__ = [
    "CROSS_ENTROPY", "DEFAULT_TUKEY_C", "EpochMetrics", "L2", "LloydResult",
    "LossKind", "MetaLossConfig", "MlpModel", "OptimizerState", "Tessellation",
    "TrainSchedule", "TrainingDivergedError", "assign_batch", "centroidal_residual",
    "draw_dropout", "forward", "forward_batch", "hypothesis_targets", "init_mlp", "lloyd",
    "lloyd_best_of", "load_checkpoint", "make_optimizer", "quantization_error",
    "save_checkpoint", "step", "tessellate", "train",
]
