"""Bit-equality fingerprint of every trainer and of the Libra
partitioner, for refactors of the training stack: run THIS copy of the
script against two checkouts' ``src`` and ``cmp`` the outputs (each
tree's own copy would differ by construction whenever an entry is added).

    PYTHONPATH=<checkout>/src python benchmarks/trainer_fingerprint.py out.json

Records per-epoch losses, digests of the final ``state_dict`` and
gradients, per-epoch ``comm_bytes``, accuracies and world counters for
{0c, cd-0, cd-2, cd-5} x {sage, gcn} x {sim, shm} x P in {2, 4}, plus
fixed-seed curves of ``Trainer``, ``MiniBatchTrainer`` and
``DistMiniBatchTrainer``, plus ``libra/P{2,4,8,64}`` digests of the
partitioner's assignments and streamed state.  Uses public names only
(~15 s).
"""

import hashlib
import json
import sys

import numpy as np

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.dyngraph import LibraState
from repro.graph.datasets import load_dataset
from repro.partition import libra_partition
from repro.sampling import DistMiniBatchTrainer, MiniBatchTrainer


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a)
            h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def cfg_for(model):
    return TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=2,
        seed=0, model=model,
    )


def main(out_path):
    ds = load_dataset("reddit", scale=0.05, seed=1)
    out = {}
    for algo in ("0c", "cd-0", "cd-2", "cd-5"):
        for model in ("sage", "gcn"):
            for backend in ("sim", "shm"):
                for P in (2, 4):
                    tr = DistributedTrainer(
                        ds, P, algorithm=algo, config=cfg_for(model),
                        partitioner="libra", backend=backend,
                    )
                    res = tr.fit(num_epochs=12)
                    m = tr.ranks[0].model
                    c = tr.world.counters
                    out[f"{algo}/{model}/{backend}/P{P}"] = {
                        "losses": [repr(e.loss) for e in res.epochs],
                        "state": digest(m.state_dict()[k] for k in sorted(m.state_dict())),
                        "grads": digest(p.grad for p in m.parameters()),
                        "comm_bytes": [e.comm_bytes for e in res.epochs],
                        "accs": [
                            (repr(e.train_acc), repr(e.val_acc), repr(e.test_acc))
                            for e in res.epochs
                        ],
                        "final": (repr(res.final_test_acc), repr(res.best_val_acc)),
                        "total_comm_bytes": res.total_comm_bytes,
                        "peak_inflight": res.peak_inflight_bytes,
                        "bytes_sent": list(c.bytes_sent),
                        "messages_sent": list(c.messages_sent),
                        "collective_calls": dict(c.collective_calls),
                        "rf": repr(res.replication_factor),
                    }
    cfg = cfg_for("sage")
    for model in ("sage", "gcn"):
        t = Trainer(ds, cfg_for(model))
        r = t.fit(num_epochs=6)
        out[f"single/{model}"] = {
            "losses": [repr(e.loss) for e in r.epochs],
            "state": digest(t.model.state_dict()[k] for k in sorted(t.model.state_dict())),
            "final": (repr(r.final_test_acc), repr(r.best_val_acc)),
        }
    mb = MiniBatchTrainer(ds, [5, 5], batch_size=64, config=cfg)
    r = mb.fit(num_epochs=3)
    out["minibatch"] = {
        "losses": [repr(e.loss) for e in r.epochs],
        "state": digest(mb.model.state_dict()[k] for k in sorted(mb.model.state_dict())),
        "final": (repr(r.final_test_acc), repr(r.best_val_acc)),
        "work": repr(mb.total_work_ops),
    }
    dmb = DistMiniBatchTrainer(ds, 3, [5, 5], batch_size=64, config=cfg)
    r = dmb.fit(num_epochs=3)
    out["dist_minibatch"] = {
        "losses": [repr(e.loss) for e in r.epochs],
        "comm_bytes": [e.comm_bytes for e in r.epochs],
        "state": digest(
            dmb.models[0].state_dict()[k] for k in sorted(dmb.models[0].state_dict())
        ),
        "final": (repr(r.final_test_acc), repr(r.best_val_acc)),
        "collective_calls": dict(dmb.world.counters.collective_calls),
    }
    # default-config (for_dataset) minibatch curves: the build_model satellite
    mb2 = MiniBatchTrainer(ds, [5, 5], batch_size=64)
    out["minibatch_default"] = [repr(mb2.train_epoch(e).loss) for e in range(2)]
    dmb2 = DistMiniBatchTrainer(ds, 2, [5, 5], batch_size=64)
    out["dist_minibatch_default"] = [repr(dmb2.train_epoch(e).loss) for e in range(2)]
    # arrival order shuffled: a CSR dump piles every edge of a connected
    # component onto one partition, which would fingerprint nothing
    src, dst, _ = ds.graph.to_coo()
    order = np.random.default_rng(0).permutation(src.size)
    src, dst = src[order], dst[order]
    for P in (2, 4, 8, 64):
        state = LibraState(ds.num_vertices, P, seed=1)
        streamed = [
            state.assign(src[lo:lo + 997], dst[lo:lo + 997])
            for lo in range(0, src.size, 997)
        ]
        out[f"libra/P{P}"] = {
            "shuffled": digest([libra_partition(ds.graph, P, seed=0)]),
            "csr_order": digest(
                [libra_partition(ds.graph, P, seed=0, shuffle_edges=False)]
            ),
            "streamed": digest(streamed),
            "member": digest([state.member]),
            "load": digest([state.load]),
            "rf": repr(state.replication_factor),
        }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    print("wrote", out_path, len(out), "entries")


if __name__ == "__main__":
    main(sys.argv[1])
