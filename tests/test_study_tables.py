"""``benchmarks/studies.py``'s table cells: one tree's quartiles, and two
trees' runs paired rep by rep."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "studies.py"


@pytest.fixture(scope="module")
def studies():
    spec = importlib.util.spec_from_file_location("studies", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_cell_is_median_then_interquartile_range(studies):
    assert studies._quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == "3 [2–4]"
    assert studies._quartiles([1234.0, 1234.0]) == "1234 [1234–1234]"


@pytest.mark.parametrize(
    "better, wins", [("lower", "2/3"), ("higher", "1/3")],
)
def test_paired_cells_count_wins_in_the_better_direction(studies, better, wins):
    parent, change = [10.0, 20.0, 40.0], [5.0, 30.0, 20.0]
    # ratios 0.5, 1.5, 0.5: the median of the pairs, not a ratio of medians
    assert studies._paired(parent, change, better) == ["0.500", wins]


def test_process_cpu_is_utime_plus_stime_of_every_thread(studies):
    """The server-CPU column reads ``/proc/<pid>/stat``: for this process
    it agrees with ``os.times()`` (user + system, all threads) to a tick
    or two, and grows with work done."""
    import os

    before = studies._process_cpu_s(os.getpid())
    sum(i * i for i in range(3_000_000))
    after = studies._process_cpu_s(os.getpid())
    times = os.times()
    assert after > before
    assert after == pytest.approx(times.user + times.system, abs=0.05)


@pytest.mark.parametrize("value_size", (4, 8))
@pytest.mark.parametrize("name, dim", [("reddit", 16), ("reddit", 64),
                                       ("ogbn-products", 50), ("ogbn-products", 256)])
def test_pass_bytes_is_what_the_operand_moves(studies, name, dim, value_size):
    """The kept roofline's numerator (docs/models.md): the CSR operand's
    own arrays, one gathered source row per edge and one output row per
    destination, at the operand's element size."""
    import numpy as np

    from repro.graph.datasets import load_dataset

    graph = load_dataset(name, scale=0.05, seed=0).graph
    a = graph.to_scipy(np.float32 if value_size == 4 else np.float64)
    rows = (graph.num_edges + graph.num_vertices) * dim * value_size
    expected = a.indices.nbytes + a.data.nbytes + a.indptr.nbytes + rows
    assert studies._pass_bytes(graph, dim, value_size) == expected
    assert studies._roofline_ms(graph, dim, value_size, 1e9) == pytest.approx(expected / 1e6)


def test_ledger_error_is_measured_over_predicted(studies):
    pairs = [(3.0, 2.0), (1.0, 2.0)]  # (measured, predicted)
    assert studies._ratio_range(pairs) == "0.50–1.50"
    assert studies._inside(pairs, 2.0)
    assert not studies._inside(pairs, 1.4)


def test_roofline_is_kept_only_inside_the_tolerance_under_both_copy_samples(studies):
    """The models ledger samples the copy bandwidth before and after the
    arms; an arm that leaves the tolerance under either sample deletes
    the row, however well it sits under the other."""
    measured, bytes_moved = [1.3, 0.9], [1e6, 1e6]  # ms, bytes per arm

    def roofs(*bandwidths):
        return [[(ms, 1e3 * b / bw) for ms, b in zip(measured, bytes_moved)]
                for bw in bandwidths]

    assert studies._roofline_keeps(roofs(1e9, 1e9), 1.5)  # ratios 1.3, 0.9
    assert studies._roofline_keeps(roofs(1e9, 1.1e9), 1.5)  # 1.43, 0.99 after
    assert not studies._roofline_keeps(roofs(1e9, 1.2e9), 1.5)  # 1.56 after
    assert not studies._roofline_keeps(roofs(0.6e9, 1e9), 1.5)  # 0.54 before
    assert not studies._roofline_keeps(roofs(1e9, 1.2e9)[::-1], 1.5)


def test_graph_build_peak_cell_is_one_number_when_runs_agree(studies):
    assert studies._peak_cell([211.74, 211.7401, 211.7399]) == "211.7"
    assert studies._peak_cell([3.0, 1.0, 2.0]) == "2 [1.5–2.5]"


def test_stage_probe_peaks_nest_and_see_frees(studies):
    """graph-build's per-stage columns: the probe times and traces each
    call of a named function, starting from what is live at its entry, so
    a stage that frees its input before it allocates reads one buffer; an
    enclosing stage's peak includes its inner stage's."""
    import sys
    import tracemalloc

    import numpy as np

    mb = 8_000_000

    def inner(box):
        box.pop()  # the caller's only buffer goes here, on any Python
        return np.ones(mb, dtype=np.uint8)

    def outer():
        return inner([np.ones(mb, dtype=np.uint8)]).sum()

    probe = studies._StageProbe({"inner": inner, "outer": outer})
    tracemalloc.start()
    try:
        with probe.stage("whole"):
            sys.setprofile(probe)
            assert outer() == mb
            sys.setprofile(None)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert set(probe.seconds) == {"inner", "outer", "whole"}
    assert probe.seconds["whole"] >= probe.seconds["outer"] >= probe.seconds["inner"] > 0
    # one buffer at a time: the input is gone before the output is made
    assert 8.0 <= probe.peaks["inner"] < 9.0
    assert probe.peaks["inner"] <= probe.peaks["outer"] <= probe.peaks["whole"] < 9.0
    rss = studies._vm_mb("VmRSS")  # read first: the peak can only grow after
    assert studies._vm_mb() >= rss > 8.0
