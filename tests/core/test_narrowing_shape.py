"""The training stacks on a shape where a later layer narrows.

Every other fixture in the suite is 2 x 16 (64 -> 16 -> 16: only layer 0
narrows, and layer 0 never projects), so it cannot see ``project``.  Here
the model is 3 layers / hidden 64 on ``reddit_mini`` — 64 -> 64 -> 64 ->
16 — and the last layer's AP, its DRPA exchange and (cd-0) its gradient
round all run at width 16.  Pinned: cd-0 ≡ single-socket and sim ≡ shm
with the assertions those contracts already have, and the exact bytes of
every epoch, derived from the partition plan::

    exchanged width of layer l = in_features        (l == 0)
                                 min(in, out)       (l > 0)
    one synchronous round      = 2 * routes * width * 4     (up + down)
    cd-0 epoch                 = sum_l 2 rounds (aggregate, gradient)
    cd-r epoch e               = sum_l routes(bin e % r) * width * 4
                                 * (1 up + 1 down once e >= r)
    evaluation                 = sum_l 1 round
    + per parameter, P * int(2 (P - 1) / P * nbytes) for the all-reduce
"""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig, Trainer

from tests.integration.test_backend_equivalence import _assert_runs_equal

EPOCHS = 6


def _cfg(model="sage", **kw):
    kw.setdefault("eval_every", 2)
    return TrainConfig(
        num_layers=3, hidden_features=64, learning_rate=0.01, seed=0, model=model, **kw
    )


def _widths(model):
    """Per layer, the width of the rows DRPA exchanges."""
    dims = [(l.linear.in_features, l.linear.out_features) for l in model.layers]
    return [d_in if i == 0 else min(d_in, d_out) for i, (d_in, d_out) in enumerate(dims)]


def test_the_shape_narrows_after_layer_zero(reddit_mini):
    model = Trainer(reddit_mini, _cfg()).model
    assert _widths(model) == [64, 64, 16]
    assert [l.linear.in_features for l in model.layers] == [64, 64, 64]


@pytest.mark.parametrize("model", ["sage", "gcn"])
@pytest.mark.parametrize("num_partitions", [2, 4])
def test_cd0_matches_single_socket(reddit_mini, model, num_partitions):
    cfg = _cfg(model, eval_every=0)
    single = Trainer(reddit_mini, cfg).fit(num_epochs=15)
    dist = DistributedTrainer(
        reddit_mini, num_partitions, algorithm="cd-0", config=cfg
    ).fit(num_epochs=15)
    np.testing.assert_allclose(dist.loss_curve(), single.loss_curve(), atol=2e-4)
    assert abs(dist.final_test_acc - single.final_test_acc) < 0.02


@pytest.mark.parametrize("model, algorithm", [("sage", "cd-0"), ("gcn", "cd-2"), ("sage", "0c")])
def test_backends_agree(reddit_mini, model, algorithm):
    runs = []
    for backend in ("sim", "shm"):
        trainer = DistributedTrainer(
            reddit_mini, 2, algorithm=algorithm, config=_cfg(model),
            partitioner="libra", backend=backend,
        )
        runs += [trainer, trainer.fit(num_epochs=EPOCHS)]
    _assert_runs_equal(*runs)


# -- exact bytes -----------------------------------------------------------------

#: ``(algorithm, P) -> (messages_sent, all_reduce calls)`` over EPOCHS
#: epochs + 5 evaluations, as the aggregate-first parent produces them:
#: narrowing the payload moves no message and no collective
PARENT_COUNTS = {
    ("0c", 2): (60, 36), ("cd-0", 2): (204, 36), ("cd-5", 2): (102, 36),
    ("0c", 4): (360, 36), ("cd-0", 4): (1224, 36), ("cd-5", 4): (612, 36),
}


@pytest.mark.parametrize("num_partitions", [2, 4])
@pytest.mark.parametrize("algorithm", ["0c", "cd-0", "cd-5"])
def test_comm_bytes_equal_the_count_derived_from_the_plan(
    reddit_mini, algorithm, num_partitions
):
    P = num_partitions
    trainer = DistributedTrainer(
        reddit_mini, P, algorithm=algorithm, config=_cfg(), partitioner="libra"
    )
    result = trainer.fit(num_epochs=EPOCHS)
    model = trainer.ranks[0].model
    row_bytes = 4 * sum(_widths(model))  # one split row through every layer
    bin_routes = [
        sum(len(leaf) for leaf, _root in routing.buckets.values())
        for routing in trainer.agg_bins
    ]
    routes = trainer.plan.num_routes
    assert sum(bin_routes) == routes > 0
    all_reduce = sum(P * int(2 * (P - 1) / P * p.data.nbytes) for p in model.parameters())
    sync_round = 2 * routes * row_bytes

    def epoch_bytes(e):
        if algorithm == "0c":
            return all_reduce
        if algorithm == "cd-0":
            return 2 * sync_round + all_reduce
        delay = trainer.spec.delay
        return bin_routes[e % delay] * row_bytes * (1 + (e >= delay)) + all_reduce

    want = [epoch_bytes(e) for e in range(EPOCHS)]
    assert [e.comm_bytes for e in result.epochs] == want
    evaluations = sum(e.val_acc is not None for e in result.epochs) + 1
    assert evaluations == 5  # epochs 0, 2, 4, 5 and the final one
    assert result.total_comm_bytes == sum(want) + evaluations * sync_round
    counters = trainer.world.counters
    assert (
        sum(counters.messages_sent), counters.collective_calls["all_reduce"]
    ) == PARENT_COUNTS[algorithm, P]
