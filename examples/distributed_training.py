"""Distributed full-batch training with the DRPA algorithm family.

Partitions the OGBN-Products stand-in with Libra vertex-cut, then trains
the same model under all three communication regimes of the paper —
``cd-0`` (synchronous), ``cd-5`` (delayed, the paper's default), and
``0c`` (no communication) — on a simulated multi-socket world, and
compares accuracy, per-epoch communication volume, and the LAT/RAT split.

With ``--backend shm`` each rank runs in its own OS process over the
shared-memory world instead: identical numbers (losses, accuracy,
communication bytes), but the per-epoch wall-clock becomes a real
parallel measurement with genuine cd-r overlap.

Run:  python examples/distributed_training.py [--partitions 4] [--epochs 50]
      python examples/distributed_training.py --backend shm
"""

import argparse

import numpy as np

from repro import load_dataset
from repro.core import DistributedTrainer, TrainConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="ogbn-products")
    parser.add_argument("--scale", type=float, default=0.12)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--delay", type=int, default=5, help="cd-r delay r")
    parser.add_argument(
        "--backend", choices=("sim", "shm"), default="sim",
        help="sim: lockstep in-process world; shm: one process per rank",
    )
    args = parser.parse_args()

    ds = load_dataset(args.dataset, scale=args.scale, seed=0)
    print(f"loaded {ds.summary()}")
    config = TrainConfig(
        num_layers=3, hidden_features=32, learning_rate=0.01,
        eval_every=0, seed=0, backend=args.backend,
    )

    kind = "simulated" if args.backend == "sim" else "real (shm)"
    print(
        f"\ntraining on {args.partitions} {kind} sockets, {args.epochs} epochs:"
    )
    header = (
        f"{'algorithm':<8} {'test_acc':>9} {'loss':>8} "
        f"{'comm MB/ep':>11} {'LAT ms':>7} {'RAT ms':>7} {'ep ms':>7} {'repl.':>6}"
    )
    print(header)
    print("-" * len(header))
    for algo in ("cd-0", f"cd-{args.delay}", "0c"):
        trainer = DistributedTrainer(
            ds, args.partitions, algorithm=algo, config=config
        )
        result = trainer.fit(num_epochs=args.epochs)
        steady = result.epochs[2 * args.delay :] or result.epochs
        comm = np.mean([e.comm_bytes for e in steady]) / 1e6
        lat = np.mean([e.local_agg_time_s for e in steady]) * 1e3
        rat = np.mean([e.remote_agg_time_s for e in steady]) * 1e3
        epoch_ms = np.mean([e.total_time_s for e in steady]) * 1e3
        print(
            f"{algo:<8} {result.final_test_acc:>9.4f} {result.final_loss:>8.4f} "
            f"{comm:>11.2f} {lat:>7.1f} {rat:>7.1f} {epoch_ms:>7.1f} "
            f"{result.replication_factor:>6.2f}"
        )

    print(
        "\npaper contract: cd-0 matches single-socket accuracy exactly;"
        "\ncd-r trades a little freshness for ~1/r of cd-0's communication;"
        "\n0c is the communication-free roofline."
    )


if __name__ == "__main__":
    main()
