"""Models built from explicit layer arrays, for tests that need exact weights."""

import numpy as np

from mhp.network import MlpModel


def model_of(layers, output_dim, num_hypotheses):
    """The model of (weights, biases, activation) layers, laid out as ``param_views`` reads."""
    params = np.concatenate([np.concatenate([np.ravel(w), b]) for w, b, _ in layers])
    return MlpModel(params, [np.shape(w) for w, _, _ in layers], [a for _, _, a in layers],
                    output_dim, num_hypotheses)
