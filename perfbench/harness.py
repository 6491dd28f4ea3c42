"""Cycles of a workload against a fresh service, and the correctness gate.

The shape is the same for every workload: one process, one thread, the
default :class:`~repro.server.service.AuditorService` on an on-disk store.
Every cycle runs two phases on the inputs built for it:

* **Open loop.**  Submissions are due on the workload's Poisson schedule in
  wall time whether or not the service keeps up; the same thread drains
  whatever is queued whenever nothing is due.  Admission sees each
  submission's scheduled instant as ``now``, so shed counts do not depend
  on the machine.  Latency runs from a submission's due instant to the
  return of the ``drain`` call that verdicted it; generator lag (how late
  each submission went in) and the achieved offered rate are kept so a
  stalled generator shows instead of passing as low latency.
* **Saturation.**  A fresh backlog is submitted at once and one ``drain``
  call verdicts it.  The audit throughput is every cycle's backlog
  verdicts over the time their drains took, so it averages over the
  whole run rather than one stretch of it.
"""

from __future__ import annotations

import pathlib
import random
import shutil
import time
from dataclasses import dataclass, field

from repro.conformance.reference import reference_verify
from repro.core.poa import decrypt_poa
from repro.core.verification import (RejectionReason, VerificationReport,
                                     VerificationStatus)
from repro.errors import EncryptionError
from repro.fleetsim.traffic import CLASS_HONEST
from repro.server.service import (OUTCOME_ACCEPTED, AuditorService,
                                  build_service_zones)
from repro.server.store import INTAKE_ERROR_STATUS, FlightStore

from workloads import Cycle, Event, Workload

#: Stored verdicts replayed through the reference verifier per pass: a
#: seeded sample, because replaying every row (a full re-decrypt each)
#: would cost about as much as the run itself.
REPLAY_SAMPLE = 32


@dataclass
class PassResult:
    """What one service measured over a run, and what each event ended as."""

    service: AuditorService
    store_path: pathlib.Path
    baseline_bytes: int
    #: Honest open-loop submissions: due instant -> verdicting drain return.
    latencies_s: list[float] = field(default_factory=list)
    #: Open-loop submissions: submit return -> start of the drain taking it.
    queue_waits_s: list[float] = field(default_factory=list)
    #: Open-loop events: due instant -> submit call.
    lags_s: list[float] = field(default_factory=list)
    #: Open-loop submissions made, and the wall time they took to go in:
    #: the arrival window, or longer when the generator fell behind it.
    offered: int = 0
    offered_s: float = 0.0
    drain_sizes: list[int] = field(default_factory=list)
    #: Backlog verdicts, and the wall time of the drains that gave them.
    backlog_verdicts: int = 0
    backlog_s: float = 0.0
    #: Wall time inside ``submit``/``drain`` calls, and asleep waiting for
    #: the next due instant, over every cycle.
    busy_s: float = 0.0
    idle_s: float = 0.0
    wall_s: float = 0.0
    #: Every event of the run, with its intake outcome and stored seq.
    events: list[Event] = field(default_factory=list)
    outcomes: list[str] = field(default_factory=list)
    seqs: list[int | None] = field(default_factory=list)
    #: seq -> the engine's report (None for an intake error).
    reports: dict[int, VerificationReport | None] = field(
        default_factory=dict)
    store_growth_bytes: int = 0

    @property
    def offered_sps(self) -> float:
        return self.offered / self.offered_s

    @property
    def throughput_sps(self) -> float:
        return self.backlog_verdicts / self.backlog_s


def open_service(workload: Workload, workdir: pathlib.Path,
                 name: str) -> PassResult:
    """A fresh service over a copy of the workload's registered store."""
    path = workdir / f"{name}.sqlite"
    shutil.copyfile(workload.store_template, path)
    service = AuditorService(workload.frame, str(path),
                             queue_capacity=workload.queue_capacity,
                             admission=workload.admission(),
                             encryption_key=workload.encryption_key)
    build_service_zones(service, workload.zones)
    return PassResult(service=service, store_path=path,
                      baseline_bytes=path.stat().st_size)


def run_cycle(cycle: Cycle, result: PassResult, ledger) -> None:
    """Drive one cycle's open loop, then drain its backlog."""
    service = result.service
    events = cycle.events
    first = len(result.events)
    result.events += events
    result.outcomes += [""] * len(events)
    result.seqs += [None] * len(events)
    submitted_at: dict[int, float] = {}
    event_of: dict[int, Event] = {}
    clock = time.perf_counter

    def submit(index: int) -> None:
        event = events[index]
        begin = clock()
        decision = ledger.call("service.submit", service.submit,
                               event.submission, now=event.at,
                               region=event.region,
                               tag=lambda d, *_a, **_k: {"seq": d.seq})
        end = clock()
        result.busy_s += end - begin
        result.outcomes[first + index] = decision.outcome
        result.seqs[first + index] = decision.seq
        if decision.outcome == OUTCOME_ACCEPTED:
            submitted_at[decision.seq] = end
            event_of[decision.seq] = event
            ledger.note_submission(decision.seq, event.submission)

    def drain(open_loop: bool) -> int:
        begin = clock()
        records = ledger.call("service.drain", service.drain,
                              cycle.t0 + begin - start)
        end = clock()
        result.busy_s += end - begin
        for record in records:
            result.reports[record.seq] = record.outcome.report
            if not open_loop:
                continue
            result.queue_waits_s.append(begin - submitted_at[record.seq])
            event = event_of[record.seq]
            if event.traffic_class == CLASS_HONEST:
                result.latencies_s.append(end - (start + event.due))
        if open_loop:
            result.drain_sizes.append(len(records))
        return len(records)

    opened = len(cycle.open_loop)
    start = clock()
    index = 0
    last_submit = 0.0
    while index < opened or service.queue_depth:
        now = clock() - start
        if index < opened and events[index].due <= now:
            result.lags_s.append(now - events[index].due)
            submit(index)
            index += 1
            last_submit = clock() - start
        elif service.queue_depth:
            drain(open_loop=True)
        else:
            # Spin rather than sleep until the next due instant: a core that
            # sleeps may be clocked down or lose its caches, and the host's
            # wake-up cost would then land in the next verdict's latency.
            due = start + events[index].due
            while clock() < due:
                pass
            result.idle_s += clock() - start - now
    result.offered += opened
    result.offered_s += max(last_submit, cycle.open_s)

    for index in range(opened, len(events)):
        submit(index)
    begin = clock()
    result.backlog_verdicts += drain(open_loop=False)
    result.backlog_s += clock() - begin
    result.wall_s += clock() - start


def close(result: PassResult) -> None:
    """Close the service and note how much its store grew."""
    result.service.close()
    result.store_growth_bytes = (result.store_path.stat().st_size
                                 - result.baseline_bytes)


def check(workload: Workload, result: PassResult,
          seed: int) -> list[str]:
    """Every way this pass's verdicts disagree with ground truth."""
    failures = []
    for event, outcome, seq in zip(result.events, result.outcomes,
                                   result.seqs):
        if seq is None:
            continue
        report = result.reports.get(seq)
        status = None if report is None else report.status
        if (event.traffic_class == CLASS_HONEST
                and outcome == OUTCOME_ACCEPTED
                and status is not VerificationStatus.ACCEPTED):
            failures.append(f"honest submission seq {seq} ended "
                            f"{status.value if status else 'intake error'}")
        if event.must_reject and status is VerificationStatus.ACCEPTED:
            failures.append(f"false accept: seq {seq} "
                            f"({event.traffic_class})")
    return failures + replay(workload, result.store_path, seed)


def replay(workload: Workload, store_path: pathlib.Path,
           seed: int) -> list[str]:
    """Re-derive a seeded sample of stored verdicts with the reference."""
    failures = []
    with FlightStore(store_path) as store:
        audited = list(store.audited())
        rows = (audited if len(audited) <= REPLAY_SAMPLE
                else random.Random(seed).sample(audited, REPLAY_SAMPLE))
        for stored, verdict in rows:
            if verdict.status == INTAKE_ERROR_STATUS:
                failures.append(f"seq {stored.seq}: intake error "
                                f"{verdict.message}")
                continue
            submission = stored.submission
            try:
                poa = decrypt_poa(submission.records, workload.encryption_key,
                                  scheme=submission.scheme,
                                  finalizer=submission.finalizer)
            except EncryptionError:
                if verdict.reason != RejectionReason.DECRYPT_FAILED.value:
                    failures.append(f"seq {stored.seq}: undecryptable but "
                                    f"stored as {verdict.status}")
                continue
            tee_key = store.get_drone(submission.drone_id).tee_public_key
            want = reference_verify(poa, tee_key, workload.zones,
                                    workload.frame)
            if verdict.to_report() != want:
                failures.append(
                    f"seq {stored.seq}: stored {verdict.status}/"
                    f"{verdict.reason}, reference {want.status.value}/"
                    f"{want.reason.value if want.reason else None}")
    return failures


def fresh_input_failures(events: list[Event]) -> list[str]:
    """Honest traffic must never repeat a ciphertext."""
    seen: set[bytes] = set()
    repeats = 0
    for event in events:
        if event.traffic_class != CLASS_HONEST:
            continue
        for record in event.submission.records:
            repeats += record.ciphertext in seen
            seen.add(record.ciphertext)
    return ([f"{repeats} honest ciphertext(s) repeat an earlier one"]
            if repeats else [])
