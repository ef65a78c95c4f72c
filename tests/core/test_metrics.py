"""Metrics and stopwatch."""

import time

import pytest

from repro.core.metrics import EpochStats, Stopwatch, TrainResult


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw.time("a"):
            time.sleep(0.002)
        with sw.time("a"):
            time.sleep(0.002)
        assert sw.get("a") >= 0.004

    def test_phases_independent(self):
        sw = Stopwatch()
        sw.add("x", 1.0)
        sw.add("y", 2.0)
        assert sw.get("x") == 1.0 and sw.get("y") == 2.0

    def test_missing_phase_zero(self):
        assert Stopwatch().get("nope") == 0.0


class TestTrainResult:
    def _result(self, times):
        r = TrainResult()
        for i, t in enumerate(times):
            r.epochs.append(EpochStats(epoch=i, loss=1.0 / (i + 1), total_time_s=t))
        return r

    def test_avg_skips_warmup(self):
        r = self._result([10.0, 1.0, 1.0])
        assert r.avg_epoch_time_s == pytest.approx(1.0)

    def test_avg_single_epoch(self):
        r = self._result([2.0])
        assert r.avg_epoch_time_s == 2.0

    def test_loss_curve(self):
        r = self._result([1.0, 1.0])
        assert r.loss_curve() == [1.0, 0.5]

    def test_empty(self):
        r = TrainResult()
        assert r.avg_epoch_time_s == 0.0
        assert r.loss_curve() == []

    def test_avg_ap_time_skips_warmup(self):
        """Fig. 2's AP share: the first epoch's AP time (cold caches,
        first-call planning) is left out like its epoch time."""
        r = TrainResult()
        for i, ap in enumerate([4.0, 0.5, 1.5]):
            r.epochs.append(EpochStats(epoch=i, loss=1.0, total_time_s=5.0, ap_time_s=ap))
        assert r.avg_ap_time_s == pytest.approx(1.0)

    def test_avg_ap_time_single_or_no_epoch(self):
        r = TrainResult()
        assert r.avg_ap_time_s == 0.0
        r.epochs.append(EpochStats(epoch=0, loss=1.0, total_time_s=5.0, ap_time_s=3.0))
        assert r.avg_ap_time_s == 3.0
