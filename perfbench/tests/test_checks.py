"""The serve workloads' response invariants."""

from __future__ import annotations

from perfbench.loadgen import Planned, Sample, summarize
from perfbench.serve import check_samples


def _sample(slot, sent, checkpoint, etag_checkpoint=None, status=200):
    tag = checkpoint if etag_checkpoint is None else etag_checkpoint
    return Sample(planned=Planned(due=0.0, path="/x"), due=sent, slot=slot,
                  sent=sent, first_byte=sent, done=sent + 0.001,
                  status=status, etag=f'W/"ck{tag}-abcdef"',
                  checkpoint=checkpoint)


def test_clean_run_has_no_violations():
    samples = [_sample(0, 1.0, 5), _sample(1, 1.5, 5), _sample(0, 2.0, 7)]
    assert set(check_samples(samples, None).values()) == {0}
    assert summarize(samples).failed == 0


def test_violations_are_counted_and_fail_their_requests():
    samples = [
        _sample(0, 1.0, 7),
        _sample(0, 2.0, 5),                      # backwards on slot 0
        _sample(1, 1.0, 7, etag_checkpoint=6),   # ETag disagrees
        _sample(1, 2.0, 7, status=503),          # not answered
    ]
    counts = check_samples(samples, None)
    assert counts == {
        "every request answered 200/304": 1,
        "ETag checkpoint equals X-Checkpoint": 1,
        "checkpoint never goes backwards on a connection": 1,
    }
    stats = summarize(samples)
    assert stats.failed == 3 and stats.latency_ms[-3:] == [float("inf")] * 3


def test_expected_checkpoint_is_enforced():
    samples = [_sample(0, 1.0, 7), _sample(0, 2.0, 8)]
    counts = check_samples(samples, expect_checkpoint=7)
    assert counts["ETag checkpoint equals X-Checkpoint"] == 1
