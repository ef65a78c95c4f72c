"""Model/optimizer checkpointing.

Full-batch training at paper scale runs 200–300 epochs (Table 5); a
production run needs restartability.  Checkpoints store model weights,
optimizer slots (Adam moments / SGD velocity), and the epoch cursor in
one compressed ``.npz``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer, SGD

_FORMAT_VERSION = 1


def save_checkpoint(
    path: str,
    model: Module,
    optimizer: Optional[Optimizer] = None,
    epoch: int = 0,
    extra: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Persist training state to ``path`` (``.npz``)."""
    payload: Dict[str, np.ndarray] = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "epoch": np.asarray(epoch),
    }
    for name, arr in model.state_dict().items():
        payload[f"model/{name}"] = arr
    if optimizer is not None:
        for key, arr in _optimizer_state(optimizer).items():
            payload[f"optim/{key}"] = arr
    for key, arr in (extra or {}).items():
        payload[f"extra/{key}"] = np.asarray(arr)
    np.savez_compressed(path, **payload)


def load_checkpoint(
    path: str,
    model: Module,
    optimizer: Optional[Optimizer] = None,
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Restore training state; returns ``(epoch, extra_arrays)``."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        state = {
            k[len("model/") :]: data[k]
            for k in data.files
            if k.startswith("model/")
        }
        model.load_state_dict(state)
        if optimizer is not None:
            opt_state = {
                k[len("optim/") :]: data[k]
                for k in data.files
                if k.startswith("optim/")
            }
            _restore_optimizer(optimizer, opt_state)
        extra = {
            k[len("extra/") :]: data[k]
            for k in data.files
            if k.startswith("extra/")
        }
        return int(data["epoch"]), extra


def peek_checkpoint(path: str) -> Tuple[int, Dict[str, np.ndarray]]:
    """Read ``(epoch, extra_arrays)`` without needing a model instance.

    The serving tier uses this to recover the architecture metadata
    (:func:`training_meta`) embedded by ``repro train --checkpoint``
    *before* it can build the model that :func:`load_checkpoint` fills.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        extra = {
            k[len("extra/") :]: data[k]
            for k in data.files
            if k.startswith("extra/")
        }
        return int(data["epoch"]), extra


#: ``extra`` keys that describe the model architecture.  ``kernel`` is
#: an execution choice of the machine that loads the file, not one: an
#: ``extra/kernel`` entry in an existing checkpoint is ignored.
_META_KEYS = ("model", "num_layers", "hidden_features")


def training_meta(config) -> Dict[str, np.ndarray]:
    """Architecture metadata to embed as checkpoint ``extra`` so a
    checkpoint is self-describing (``InferenceEngine.from_checkpoint``
    and ``repro predict`` rebuild the model without the TrainConfig)."""
    return {key: np.asarray(getattr(config, key)) for key in _META_KEYS}


def config_from_meta(extra: Dict[str, np.ndarray], base):
    """Overlay checkpoint architecture metadata onto a base TrainConfig.

    Keys absent from ``extra`` (older checkpoints, hand-written ones)
    keep the base config's values.
    """
    from repro.core.config import TrainConfig

    cfg = TrainConfig(**vars(base))
    for key in _META_KEYS:
        if key in extra:
            setattr(cfg, key, type(getattr(cfg, key))(extra[key].item()))
    return cfg


def _optimizer_state(opt: Optimizer) -> Dict[str, np.ndarray]:
    """Serialize optimizer slots positionally (parameter order is the
    module-traversal order, which is deterministic)."""
    state: Dict[str, np.ndarray] = {}
    if isinstance(opt, Adam):
        state["t"] = np.asarray(opt._t)
        for i, p in enumerate(opt.params):
            if id(p) in opt._m:
                state[f"m/{i}"] = opt._m[id(p)]
                state[f"v/{i}"] = opt._v[id(p)]
    elif isinstance(opt, SGD):
        for i, p in enumerate(opt.params):
            if id(p) in opt._velocity:
                state[f"vel/{i}"] = opt._velocity[id(p)]
    return state


def _restore_optimizer(opt: Optimizer, state: Dict[str, np.ndarray]) -> None:
    if isinstance(opt, Adam):
        opt._t = int(state.get("t", 0))
        for i, p in enumerate(opt.params):
            if f"m/{i}" in state:
                opt._m[id(p)] = state[f"m/{i}"].copy()
                opt._v[id(p)] = state[f"v/{i}"].copy()
    elif isinstance(opt, SGD):
        for i, p in enumerate(opt.params):
            if f"vel/{i}" in state:
                opt._velocity[id(p)] = state[f"vel/{i}"].copy()
