"""A sim rank parked at its AllReduce holds none of the epoch's activations.

``RankProgram.train_epoch`` runs the forward and backward in
``compute_gradients``, whose frame ends before the per-parameter
AllReduce yields.  On the sim backend all ``P`` rank generators sit at
those yields together, so anything their frames still held would be
alive ``P`` times over.
"""

import weakref

import numpy as np

from repro.comm.collectives import all_reduce
from repro.core import DistributedTrainer, TrainConfig

CFG = TrainConfig(num_layers=3, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0)


def _trainer(dataset):
    return DistributedTrainer(dataset, 2, algorithm="cd-5", config=CFG)


def test_layer_outputs_are_dead_at_the_first_allreduce(reddit_mini):
    trainer = _trainer(reddit_mini)
    outputs = []
    for state in trainer.ranks:
        for layer in state.model.layers:
            def combine(*args, _combine=layer.combine, **kw):
                out = _combine(*args, **kw)
                outputs.append(weakref.ref(out.data))
                return out

            layer.combine = combine

    programs = [program.train_epoch(0) for program in trainer.programs]
    points = [next(program) for program in programs]
    assert all(point.array is not None for point in points)  # cd-5: no barrier before
    assert len(outputs) == 2 * CFG.num_layers
    assert [i for i, ref in enumerate(outputs) if ref() is not None] == []

    # finish the epoch as World.run_programs would, then go on normally
    rows = [None] * len(programs)
    while points:
        replies = all_reduce(trainer.world, [p.array for p in points], op=points[0].op)
        points = []
        for rank, (program, reply) in enumerate(zip(programs, replies)):
            try:
                points.append(program.send(reply))
            except StopIteration as stop:
                rows[rank] = stop.value
    trainer.world.advance_epoch()

    twin = _trainer(reddit_mini)
    twin_rows = twin.world.run_programs([p.train_epoch(0) for p in twin.programs])
    twin.world.advance_epoch()
    assert [r["loss"] for r in rows] == [r["loss"] for r in twin_rows]
    assert trainer.train_epoch(1).loss == twin.train_epoch(1).loss
    for a, b in zip(trainer.ranks, twin.ranks):
        for (name, x), (_, y) in zip(a.model.state_dict().items(), b.model.state_dict().items()):
            assert np.array_equal(x, y), name
