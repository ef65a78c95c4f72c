"""Serving fixtures: a briefly-trained model + checkpoint per architecture."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer, save_checkpoint
from repro.core.checkpoint import training_meta
from repro.serving import InferenceEngine


#: ``(model, num_layers, hidden)`` per fixture id.  ``narrow`` is 64 -> 64
#: -> 64 -> 16: its last layer narrows, so the training stack's
#: ``model(...)`` aggregates ``h @ W`` there while every serving path stays
#: aggregate -> combine (``test_engine.assert_matches_model_call``).
SHAPES = {"sage": ("sage", 2, 16), "gcn": ("gcn", 2, 16), "narrow": ("sage", 3, 64)}


def make_cfg(name: str) -> TrainConfig:
    model, num_layers, hidden = SHAPES[name]
    return TrainConfig(
        num_layers=num_layers, hidden_features=hidden, eval_every=0, seed=0,
        model=model,
    )


@pytest.fixture(scope="session", params=list(SHAPES))
def trained(request, reddit_mini):
    """(dataset, trainer, cfg) after 3 epochs, per architecture."""
    cfg = make_cfg(request.param)
    trainer = Trainer(reddit_mini, cfg)
    trainer.fit(3)
    return reddit_mini, trainer, cfg


@pytest.fixture
def checkpoint_path(tmp_path, trained):
    ds, trainer, cfg = trained
    path = str(tmp_path / "serving.npz")
    save_checkpoint(
        path, trainer.model, trainer.optimizer, epoch=3, extra=training_meta(cfg)
    )
    return path


@pytest.fixture
def engine(trained):
    """Fresh engine per test (refresh tests mutate its tables)."""
    ds, trainer, cfg = trained
    return InferenceEngine(ds, trainer.model, cfg).precompute()
