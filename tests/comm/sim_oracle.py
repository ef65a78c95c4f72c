"""The rank-order sim driver, kept as the oracle of ``World.run_programs``.

This is the loop ``World.run_programs`` ran before it stepped the rank
programs on threads: every program resumed on the calling thread, in
rank order, from sync point to sync point.  The threaded driver must
return the same values and leave the same mailboxes and counters.
"""

from repro.comm.collectives import all_reduce


def run_programs_in_rank_order(world, programs):
    if len(programs) != world.num_ranks:
        raise ValueError("need one rank program per rank")
    replies = [None] * world.num_ranks
    results = [None] * world.num_ranks
    while True:
        points, finished = [], 0
        for rank, program in enumerate(programs):
            try:
                points.append(program.send(replies[rank]))
            except StopIteration as stop:
                results[rank] = stop.value
                finished += 1
        if finished == world.num_ranks:
            return results
        reducing = [p.array is not None for p in points]
        if finished or any(reducing) != all(reducing):
            raise RuntimeError(
                "rank programs disagree on their sync points "
                "(SPMD code must reach the same collectives in the same order)"
            )
        if reducing[0]:
            replies = all_reduce(world, [p.array for p in points], op=points[0].op)
        else:
            replies = [None] * world.num_ranks


def use_oracle(monkeypatch, world):
    """Route ``world.run_programs`` through the rank-order oracle."""
    monkeypatch.setattr(
        world, "run_programs", lambda programs: run_programs_in_rank_order(world, programs)
    )


def force_pool_size(monkeypatch, size):
    """Run the threaded driver on ``min(P, size)`` rank threads whatever
    the machine's core count (the sizing function is private; this is a
    test seam, not a setting)."""
    monkeypatch.setattr(
        "repro.comm.communicator._pool_size", lambda num_ranks: min(num_ranks, size)
    )
