"""Tests for the benchmark's own code: input determinism, the tail
percentile, and span self time.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import types

import pytest

import workloads
from ledger import (TAIL_MIN_BEYOND, Ledger, NullLedger, assign_trace_ids,
                    percentile, self_times, tail_percentile)
from repro.obs.trace import Span


def _digest(workload: workloads.Workload) -> str:
    """Everything the program receives, schedule included, as one hash."""
    h = hashlib.sha256()
    h.update(repr((workload.encryption_key.n, workload.zones,
                   workload.queue_capacity, workload.cycles)).encode())
    for index in range(workload.cycles):
        cycle = workload.build_cycle(index)
        h.update(repr((cycle.t0, len(cycle.open_loop))).encode())
        for event in cycle.events:
            submission = event.submission
            h.update(repr((event.due, event.at, event.region,
                           event.traffic_class, event.must_reject,
                           submission.drone_id, submission.flight_id,
                           submission.claimed_start, submission.claimed_end,
                           submission.scheme)).encode())
            h.update(submission.finalizer)
            for record in submission.records:
                h.update(record.ciphertext)
                h.update(record.signature)
    h.update(workload.store_template.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_seed_fixes_inputs_and_schedule(workload, tmp_path):
    def build(seed: int, name: str) -> str:
        workdir = tmp_path / name
        workdir.mkdir()
        # The shortest run: two cycles.
        return _digest(workloads.BUILDERS[workload](seed, 0.1, workdir,
                                                    NullLedger()))

    first = build(3, "first")
    assert build(3, "again") == first
    assert build(4, "other") != first


def test_cycle_count_depends_on_duration_only():
    for name, shape in workloads.SHAPES.items():
        assert workloads.cycle_count(name, 0.1) == 2
        assert workloads.cycle_count(name, 30 * shape.cycle_s) == 30


def test_tail_percentile_leaves_exactly_ten_beyond():
    for count in range(20, 3_001):
        pct = tail_percentile(count)
        values = range(count)
        cut = percentile(values, pct)
        assert sum(v > cut for v in values) == TAIL_MIN_BEYOND
        # Any higher percentile leaves fewer than ten beyond.
        higher = percentile(values, pct + 1e-6)
        assert sum(v > higher for v in values) < TAIL_MIN_BEYOND


@pytest.mark.parametrize("count,expected", [
    (1_000, 99.0), (480, 97.916_666), (100, 90.0), (40, 75.0), (20, 50.0),
    (19, 50.0), (1, 50.0)])
def test_tail_percentile_examples(count, expected):
    assert tail_percentile(count) == pytest.approx(expected)


def test_percentile_leaves_the_right_count_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert sum(v > percentile(values, 90.0) for v in values) == 10
    assert percentile(values, 50.0) == 50


def _span(name, span_id, parent, start, end, **attributes):
    return Span(name=name, span_id=span_id, trace_id="t", parent_id=parent,
                start_s=start, end_s=end, attributes=attributes)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("root", "r", None, 0.0, 10.0),
        # Overlapping children count once; a child running past its
        # parent's end counts only inside the parent.
        _span("a", "a", "r", 1.0, 4.0),
        _span("b", "b", "r", 3.0, 6.0),
        _span("c", "c", "r", 9.0, 12.0),
        # A grandchild reduces its parent's self time, not the root's.
        _span("g", "g", "a", 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own["r"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own["a"] == pytest.approx(3.0 - 0.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["g"] == pytest.approx(0.5)


def test_spans_of_one_submission_share_its_seq():
    spans = [
        _span("service.submit", "s", None, 0.0, 1.0, seq=7),
        _span("admission.admit", "ad", "s", 0.1, 0.2),
        _span("service.drain", "d", None, 2.0, 3.0),
        _span("engine.decrypt", "x", "d", 2.1, 2.2, seq=7),
        _span("engine.decrypt", "y", "d", 2.2, 2.3, seq=8),
    ]
    assign_trace_ids(spans)
    ids = {span.span_id: span.trace_id for span in spans}
    assert ids["s"] == ids["ad"] == ids["x"] == "seq-7"
    assert ids["y"] == "seq-8"
    assert ids["d"] == "t"


def test_patch_records_spans_and_restores():
    owner = types.SimpleNamespace(work=lambda x: x * 2)
    original = owner.work
    ledger = Ledger()
    with ledger.patch(owner, "work", "layer.work",
                      lambda result, x: {"seq": result}):
        assert owner.work(21) == 42
    assert owner.work is original
    (span,) = ledger.spans
    assert span.name == "layer.work"
    assert span.attributes == {"seq": 42}
