"""Multi-hypothesis prediction at desk scale.

A single shared network emits M output vectors per input. Training routes
each label to its best-matching hypothesis under a pluggable base loss,
with a small relaxation weight and hypothesis dropout keeping losing
hypotheses alive. At the optimum the hypotheses form a centroidal
tessellation of the conditional label space, which the `voronoi` module
verifies against a classical quantizer oracle.
"""

__version__ = "0.1.0"

from .losses import CROSS_ENTROPY, DEFAULT_TUKEY_C, L2, LossKind, loss, loss_grad
from .meta_loss import (AssignmentResult, MetaLossConfig, assign, assign_batch,
                        meta_loss, meta_loss_upstream_grads)
from .network import (Layer, MlpModel, OptimizerState, TrainingDivergedError,
                      backward, forward, forward_batch, init_mlp, load_checkpoint,
                      make_optimizer, save_checkpoint, step)
from .training import EpochMetrics, TrainSchedule, train
from .voronoi import (LloydResult, Tessellation, centroidal_residual, lloyd, lloyd_best_of,
                      quantization_error, tessellate)

__all__ = [
    "AssignmentResult", "CROSS_ENTROPY", "DEFAULT_TUKEY_C",
    "EpochMetrics", "L2", "Layer", "LloydResult", "LossKind", "MetaLossConfig",
    "MlpModel", "OptimizerState", "Tessellation", "TrainSchedule",
    "TrainingDivergedError", "assign", "assign_batch", "backward",
    "centroidal_residual", "forward", "forward_batch", "init_mlp", "lloyd",
    "lloyd_best_of", "load_checkpoint", "loss", "loss_grad", "make_optimizer",
    "meta_loss", "meta_loss_upstream_grads", "quantization_error",
    "save_checkpoint", "step", "tessellate", "train",
]
