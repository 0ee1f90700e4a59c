"""Shared training fixtures: seeded batches, a plain reference trainer and
communication-bound time constants."""

import numpy as np

from stanza.model_partition import ConfigError
from stanza.perf_model import BITS_PER_ELEMENT, PerfConstants
from stanza.tensor_core import block_backward, block_forward, seeded_init

from oracles import rel_err

LR = 0.05
MU = 0.9


def make_batch_fn(spec, seed):
    """Per-(iteration, worker) batches drawn from one seeded stream."""
    k = spec.batch_k
    shape = spec.input_shape

    def batch(iteration, worker):
        rng = np.random.Generator(
            np.random.PCG64([seed, iteration, worker]))
        x = rng.standard_normal((k, *shape)).astype(np.float32)
        y = rng.integers(0, 10, size=k)
        return x, y
    return batch


def global_batch(spec, seed, n_workers, iteration):
    """Concatenation of all workers' batches, in worker order."""
    fn = make_batch_fn(spec, seed)
    parts = [fn(iteration, w) for w in range(n_workers)]
    x = np.concatenate([p[0] for p in parts])
    y = np.concatenate([p[1] for p in parts])
    return x, y


def reference_train(spec, n_workers, iterations, seed, data_seed,
                    lr=LR, mu=MU):
    """Plain full-batch momentum SGD, no networking. Canonical answer."""
    layers = spec.layers
    params = seeded_init(layers, seed)
    vel = [[np.zeros_like(t) for t in layer] for layer in params]
    inv_n = np.float32(1.0) / np.float32(n_workers * spec.batch_k)
    losses = []
    for it in range(iterations):
        x, y = global_batch(spec, data_seed, n_workers, it)
        out, caches = block_forward(layers, params, x, labels=y)
        _, grads = block_backward(layers, params, caches, None)
        losses.append(float(out.sum()) / (n_workers * spec.batch_k))
        for li, layer in enumerate(params):
            for ti, w in enumerate(layer):
                v = vel[li][ti]
                v *= np.float32(mu)
                v += grads[li][ti] * inv_n
                w -= np.float32(lr) * v
    return params, vel, losses


def max_param_dev(a, b):
    """Largest relative deviation across two nested parameter sets."""
    return max(rel_err(x, y) for la, lb in zip(a, b) for x, y in zip(la, lb))


def comm_bound_constants(c: PerfConstants, params_total: int,
                         headroom: float = 1.5) -> PerfConstants:
    """Rescale measured compute constants until wire time rules PS.

    Returns constants whose conv_time equals headroom times the two-way
    wire time of one full gradient set, with the other compute terms shrunk
    by the same factor. Under them the busiest server link dominates every
    PS iteration, while CONV compute still outweighs the far smaller
    activation-plus-allreduce traffic, so extra workers keep paying off for
    the layer-separated run and merely lengthen the PS queue.
    """
    if c.conv_time <= 0.0:
        raise ConfigError("rescaling needs a measured conv_time > 0")
    wire = 2 * params_total * BITS_PER_ELEMENT / c.bandwidth
    scale = headroom * wire / c.conv_time
    return PerfConstants(bandwidth=c.bandwidth,
                         conv_time=c.conv_time * scale,
                         fc_unit_time=c.fc_unit_time * scale,
                         ps_compute_time=c.ps_compute_time * scale)
