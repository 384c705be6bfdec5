"""The host-speed probe and the scaling of timings by it."""

from __future__ import annotations

import os
import time

import pytest

from perfbench import speed


def _probes(samples):
    probes = speed.Probes(())
    probes.samples = list(samples)
    return probes


def test_factor_is_reference_over_median():
    samples = [speed.REFERENCE_S * k for k in (1.0, 2.0, 4.0)]
    assert speed.factor(samples) == pytest.approx(0.5)


def test_an_interval_is_scaled_by_its_own_samples():
    ref = speed.REFERENCE_S
    # A fast host for the first second, one twice as slow after it.
    probes = _probes([(t / 10, ref) for t in range(10)]
                     + [(1 + t / 10, 2 * ref) for t in range(10)])
    assert probes.scaled(0.0, 0.8) == pytest.approx(0.8)
    assert probes.scaled(1.2, 1.9) == pytest.approx(0.35)
    # Over both halves, the median sample sits between the two speeds.
    assert probes.factor() == pytest.approx(ref / (1.5 * ref))


def test_only_the_busy_share_is_scaled():
    probes = _probes([(t / 10, 2 * speed.REFERENCE_S) for t in range(20)])
    # Half the interval computing on a host twice as slow as the reference.
    assert probes.scaled(0.0, 2.0, busy=0.5) == pytest.approx(1.0 + 0.5)


def test_a_short_interval_falls_back_to_every_sample():
    ref = speed.REFERENCE_S
    probes = _probes([(0.0, ref), (5.0, 3 * ref), (10.0, 3 * ref)])
    # Only one sample within a period of [4.95, 5.0]: all three are used.
    assert probes.factor(4.95, 5.0) == pytest.approx(1 / 3)


def test_probe_processes_sample_and_stop():
    cpu = min(os.sched_getaffinity(0))
    with speed.Probes({cpu}) as probes:
        pids = [proc.pid for proc in probes._procs]
        time.sleep(3.5 * speed.PERIOD_S)
    assert len(probes.samples) >= 2
    times = [t for t, _ in probes.samples]
    assert times == sorted(times)
    assert all(0 < s < 1 for _, s in probes.samples)
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")


def test_probe_processes_are_killed_when_the_block_raises():
    cpu = min(os.sched_getaffinity(0))
    with pytest.raises(KeyError):
        with speed.Probes({cpu}) as probes:
            pids = [proc.pid for proc in probes._procs]
            raise KeyError("boom")
    assert probes.samples == []
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")
