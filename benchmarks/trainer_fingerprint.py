"""Bit-equality fingerprint of every trainer and of the Libra
partitioner, for refactors of the training stack: run THIS copy of the
script against two checkouts' ``src`` and ``--compare`` the outputs (each
tree's own copy would differ by construction whenever an entry is added).

    PYTHONPATH=<checkout>/src python benchmarks/trainer_fingerprint.py out.json
    python benchmarks/trainer_fingerprint.py --compare base.json head.json

Records per-epoch losses, digests of the final ``state_dict`` and
gradients, per-epoch ``comm_bytes``, accuracies and world counters for
{0c, cd-0, cd-2, cd-5} x {sage, gcn} x {sim, shm} x P in {2, 4}, plus
fixed-seed curves of ``Trainer``, ``MiniBatchTrainer`` and
``DistMiniBatchTrainer``, plus ``f64/*`` entries on float64 features,
plus ``narrow/*`` entries on a 3-layer / hidden-64 model whose last layer
narrows (64 -> 16: every other entry is 2 x 16, where nothing after
layer 0 does), plus ``libra/P{2,4,8,64}`` digests of the partitioner's
assignments and streamed state, plus ``graph/<name>`` digests of every
registered dataset's CSR and its reverse at scale 0.05, plus the tree's
``repro.kernels.NUMERICS_EPOCH``.  Uses public names only (~25 s).

``--compare`` is the gate.  Two trees of one numerics epoch must agree
byte for byte.  Across an epoch bump — a PR that changes floating-point
arithmetic on purpose — every loss must still agree to ``LOSS_RTOL``,
moved ``state`` / ``grads`` digests are listed, and everything else
(accuracies, byte and message counters, replication factors, all of
``libra/*`` and ``graph/*``, and all of ``f64/*``: float64 arithmetic is
never what moves) must still be identical.  One exception, for a bump
that moves fewer bytes on purpose (epoch 3: layers after the first exchange
``A (h W)`` where ``W`` narrows): on ``narrow/*`` entries only, the
``BYTE_FIELDS`` may move **down**, element by element, and are listed
base -> head; their messages, collectives, ``rf`` and accuracies stay
identical and their losses within ``LOSS_RTOL`` like everyone's.

The sampler has its own epoch, ``repro.sampling.SAMPLER_EPOCH``: a PR
that changes which neighbours a seed draws bumps it.  ``sampler/*``
digests fixed batches; at equal sampler epochs they and the ``SAMPLED``
trainers obey the rules above, across a bump they are the only entries
that may move at all, and the trainers must still learn the same thing:
``collective_calls`` identical, loss curves finite, falling, and within
``SAMPLED_LOSS_RTOL`` of the base's epoch by epoch, ``final`` accuracies
within ``SAMPLED_ACC_ATOL``.
"""

import dataclasses
import hashlib
import json
import sys

import numpy as np

import repro.kernels
import repro.sampling
from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.dyngraph import LibraState
from repro.graph.datasets import DATASET_REGISTRY, load_dataset
from repro.partition import libra_partition
from repro.sampling import DistMiniBatchTrainer, MiniBatchTrainer, NeighborSampler


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a)
            h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def cfg_for(model, num_layers=2, hidden_features=16):
    return TrainConfig(
        num_layers=num_layers, hidden_features=hidden_features,
        learning_rate=0.01, eval_every=2, seed=0, model=model,
    )


#: ``cfg_for`` shape of the ``narrow/*`` entries: 64 -> 64 -> 64 -> 16
NARROW = dict(num_layers=3, hidden_features=64)


def dist_entry(ds, algo, model, backend, P, **shape):
    tr = DistributedTrainer(
        ds, P, algorithm=algo, config=cfg_for(model, **shape),
        partitioner="libra", backend=backend,
    )
    res = tr.fit(num_epochs=12)
    m = tr.ranks[0].model
    c = tr.world.counters
    return {
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


def single_entry(ds, model, **shape):
    t = Trainer(ds, cfg_for(model, **shape))
    r = t.fit(num_epochs=6)
    return {
        "losses": [repr(e.loss) for e in r.epochs],
        "state": digest(t.model.state_dict()[k] for k in sorted(t.model.state_dict())),
        "final": (repr(r.final_test_acc), repr(r.best_val_acc)),
    }


def main(out_path):
    ds = load_dataset("reddit", scale=0.05, seed=1)
    # a tree from before the constant existed is epoch 1
    out = {
        "numerics_epoch": getattr(repro.kernels, "NUMERICS_EPOCH", 1),
        "sampler_epoch": getattr(repro.sampling, "SAMPLER_EPOCH", 1),
    }
    for algo in ("0c", "cd-0", "cd-2", "cd-5"):
        for model in ("sage", "gcn"):
            for backend in ("sim", "shm"):
                for P in (2, 4):
                    out[f"{algo}/{model}/{backend}/P{P}"] = dist_entry(
                        ds, algo, model, backend, P
                    )
    cfg = cfg_for("sage")
    for model in ("sage", "gcn"):
        out[f"single/{model}"] = single_entry(ds, model)
    # the one shape here where a layer after the first narrows
    for model in ("sage", "gcn"):
        out[f"narrow/single/{model}"] = single_entry(ds, model, **NARROW)
        for algo in ("0c", "cd-0"):
            out[f"narrow/{algo}/{model}/sim/P2"] = dist_entry(
                ds, algo, model, "sim", 2, **NARROW
            )
    out["narrow/cd-0/sage/shm/P2"] = dist_entry(ds, "cd-0", "sage", "shm", 2, **NARROW)
    out["narrow/cd-0/sage/sim/P4"] = dist_entry(ds, "cd-0", "sage", "sim", 4, **NARROW)
    # float64 features ride the float64 operand: these entries stay put
    # when an epoch bump moves the float32 ones
    ds64 = dataclasses.replace(ds, features=ds.features.astype(np.float64))
    out["f64/single/sage"] = single_entry(ds64, "sage")
    for algo in ("cd-0", "cd-5"):
        out[f"f64/{algo}/sage/sim/P2"] = dist_entry(ds64, algo, "sage", "sim", 2)
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
    # the sampler itself: three fixed seed sets at the two usual fan-outs
    for fanouts in ((5, 5), (10, 10, 10)):
        for i in range(3):
            seeds = np.random.default_rng(i).choice(ds.num_vertices, 64, replace=False)
            batch = NeighborSampler(ds.graph, fanouts, seed=i).sample(seeds)
            out[f"sampler/{'-'.join(map(str, fanouts))}/seeds{i}"] = digest(
                [batch.seeds] + [
                    a for b in batch.blocks
                    for a in (b.graph.indptr, b.graph.indices, b.src_global)
                ]
            )
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
    # the datasets themselves: an edge reorder need not move any loss
    for name in sorted(DATASET_REGISTRY):
        g = load_dataset(name, scale=0.05, seed=1).graph
        out[f"graph/{name}"] = {
            key: digest([h.indptr, h.indices, h.edge_ids])
            for key, h in (("graph", g), ("reverse", g.reverse()))
        }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    print("wrote", out_path, len(out) - 2, "entries")


#: how far a loss may move across a numerics-epoch bump
LOSS_RTOL = 1e-5
#: fields that hold digests of floating-point arrays: reported when an
#: epoch bump moves them, not failed
DIGESTS = ("state", "grads")
#: byte counts a ``narrow/*`` entry may lower across an epoch bump
BYTE_FIELDS = ("comm_bytes", "total_comm_bytes", "peak_inflight", "bytes_sent")


def _moved_down(base, head):
    """Whether ``head`` is ``base`` with no element larger (a count, or
    two equally long lists of counts)."""
    if isinstance(base, list) and isinstance(head, list):
        return len(base) == len(head) and all(map(_moved_down, base, head))
    return isinstance(base, int) and isinstance(head, int) and head <= base


def _loss_drift(base, head):
    """Worst relative difference between two loss curves (inf when they
    are not two curves of one length)."""
    if not isinstance(base, list) or not isinstance(head, list) or len(base) != len(head):
        return float("inf")
    return max(
        (abs(float(b) - float(h)) / abs(float(b)) for b, h in zip(base, head)),
        default=0.0,
    )


#: the entries that train through ``NeighborSampler``, and how far a
#: sampler-epoch bump may move them
SAMPLED = ("minibatch", "dist_minibatch", "minibatch_default", "dist_minibatch_default")
SAMPLED_LOSS_RTOL = 0.02
SAMPLED_ACC_ATOL = 0.1


def _sampled_failures(base, head):
    """Fields of a ``SAMPLED`` entry outside what a sampler-epoch bump
    allows (``state``, ``work`` and ``comm_bytes`` follow the batches)."""
    if isinstance(base, list) and isinstance(head, list):
        base, head = {"losses": base}, {"losses": head}
    if not isinstance(base, dict) or not isinstance(head, dict) or set(base) != set(head):
        return ["fields"]
    failed = []
    curve = [float(x) for x in head["losses"]]
    if not (
        _loss_drift(base["losses"], head["losses"]) <= SAMPLED_LOSS_RTOL
        and np.all(np.isfinite(curve)) and curve[-1] < curve[0]
    ):
        failed.append("losses")
    if base.get("collective_calls") != head.get("collective_calls"):
        failed.append("collective_calls")
    finals = base.get("final", ()), head.get("final", ())
    if len(finals[0]) != len(finals[1]) or any(
        not abs(float(b) - float(h)) <= SAMPLED_ACC_ATOL for b, h in zip(*finals)
    ):
        failed.append("final")
    return failed


def compare(base_path, head_path):
    """Exit status of the gate: 0 when ``head`` is an allowed successor of
    ``base`` (see the module docstring), 1 with the offending fields."""
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    epochs = base.pop("numerics_epoch", 1), head.pop("numerics_epoch", 1)
    samplers = base.pop("sampler_epoch", 1), head.pop("sampler_epoch", 1)
    bumped = epochs[0] != epochs[1]
    resampled = samplers[0] != samplers[1]
    failed, moved, drift = [], [], 0.0
    for name in sorted(set(base) | set(head)):
        b, h = base.get(name), head.get(name)
        if b == h:
            continue
        if resampled and name.startswith("sampler/") and None not in (b, h):
            moved.append(name)
            continue
        if resampled and name in SAMPLED:
            moved.append(name)
            failed += [f"{name}: {key}" for key in _sampled_failures(b, h)]
            continue
        exact = name.startswith(("f64/", "libra/", "graph/"))
        if not bumped or exact or type(b) is not type(h):
            failed.append(name)
            continue
        # a bare loss curve, or a dict of fields
        fields = {"losses": (b, h)} if isinstance(b, list) else {
            key: (b.get(key), h.get(key)) for key in sorted(set(b) | set(h))
        }
        for key, (bv, hv) in fields.items():
            if bv == hv:
                continue
            if key in DIGESTS:
                moved.append(f"{name}: {key}")
                continue
            if name.startswith("narrow/") and key in BYTE_FIELDS and _moved_down(bv, hv):
                moved.append(f"{name}: {key} {bv} -> {hv}")
                continue
            rel = _loss_drift(bv, hv) if key == "losses" else float("inf")
            if rel <= LOSS_RTOL:
                drift = max(drift, rel)
            else:
                failed.append(f"{name}: {key}")
    if bumped:
        print(f"numerics epoch {epochs[0]} -> {epochs[1]}: losses within "
              f"{LOSS_RTOL:g} (worst {drift:.2g}), {len(moved)} digests or "
              "narrow/* byte counts moved, everything else must be identical")
    else:
        print(f"numerics epoch {epochs[0]}: must be identical byte for byte")
    if resampled:
        print(f"sampler epoch {samplers[0]} -> {samplers[1]}: sampler/* and "
              f"{', '.join(SAMPLED)} may move (losses within "
              f"{SAMPLED_LOSS_RTOL:g}, final accuracies within {SAMPLED_ACC_ATOL:g})")
    for line in moved:
        print("  moved ", line)
    for line in failed:
        print("  FAILED", line)
    print(f"{len(base)} vs {len(head)} entries: {'FAILED' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(*sys.argv[2:]))
    main(sys.argv[1])
