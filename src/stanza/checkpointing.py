"""Training-state snapshots: parameters, velocities, iteration counter.

Both protocols checkpoint the same way: serialize the full parameter and
velocity sets next to the iteration index. Input batches are regenerated
from (seed, iteration), so restoring a snapshot and replaying reproduces
the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .tensor_core import (CorruptCheckpoint, check_same_structure,
                          deserialize_params, seeded_init, serialize_params)
from .transport import SimTransport

_MAGIC = b"STZC"
_VERSION = 1


@dataclass
class TrainState:
    """Everything needed to resume a run at an iteration boundary."""
    iteration: int
    params: list[list[np.ndarray]]
    velocities: list[list[np.ndarray]]

    def copy(self) -> "TrainState":
        return TrainState(
            iteration=self.iteration,
            params=[[t.copy() for t in layer] for layer in self.params],
            velocities=[[t.copy() for t in layer] for layer in self.velocities],
        )


@dataclass
class TrainResult:
    """What a cluster's train call returns: per-iteration mean losses, the
    final state, and the transport whose ledger holds the run's traffic."""
    losses: list[float]
    state: TrainState
    transport: SimTransport


def start_state(layers, seed: int, state: TrainState | None) -> TrainState:
    """Where a cluster starts: the seeded init at iteration 0 with zero
    velocities, or `state` once its shapes match the model's (ShapeMismatch
    otherwise). Not copied: each cluster copies it into its replicas."""
    params = seeded_init(layers, seed)
    if state is None:
        return TrainState(iteration=0, params=params,
                          velocities=[[np.zeros_like(t) for t in layer]
                                      for layer in params])
    check_same_structure(params, state.params, "snapshot parameters")
    check_same_structure(params, state.velocities, "snapshot velocities")
    return state


def param_digest(params) -> str:
    """Stable hex digest of a parameter set (order and bytes exact)."""
    return hashlib.sha256(serialize_params(params)).hexdigest()


def state_to_bytes(state: TrainState) -> bytes:
    p = serialize_params(state.params)
    v = serialize_params(state.velocities)
    head = _MAGIC + struct.pack("<HQQQ", _VERSION, state.iteration,
                                len(p), len(v))
    return head + p + v


def state_from_bytes(blob: bytes) -> TrainState:
    head_len = 4 + struct.calcsize("<HQQQ")
    if len(blob) < head_len or blob[:4] != _MAGIC:
        raise CorruptCheckpoint("not a training-state snapshot")
    version, iteration, p_len, v_len = struct.unpack("<HQQQ", blob[4:head_len])
    if version != _VERSION:
        raise CorruptCheckpoint(f"unsupported snapshot version {version}")
    if len(blob) != head_len + p_len + v_len:
        raise CorruptCheckpoint("snapshot length does not match header")
    params = deserialize_params(blob[head_len:head_len + p_len])
    velocities = deserialize_params(blob[head_len + p_len:])
    if [len(l) for l in params] != [len(l) for l in velocities]:
        raise CorruptCheckpoint("parameter/velocity structure mismatch")
    return TrainState(iteration=iteration, params=params, velocities=velocities)


def save_state(state: TrainState, path) -> None:
    with open(path, "wb") as f:
        f.write(state_to_bytes(state))


def load_state(path) -> TrainState:
    with open(path, "rb") as f:
        return state_from_bytes(f.read())
