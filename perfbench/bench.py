"""Run one workload, gate its verdicts, and report the metrics.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced
run (``--trace 1``) builds the same inputs with drone-side spans, runs each
cycle once untraced and once with every auditor-side layer wrapped (each
on its own service), writes the spans out, and reports the per-layer
ledger: self time per layer, its share, counts, and the tracing overhead
(traced minus untraced busy time).  Both runs apply the correctness gate and the fresh-input
guard, and exit non-zero when either fails.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import time

from repro.core.verification import RejectionReason, VerificationStatus
from repro.fleetsim.traffic import (CLASS_ADVERSARY, CLASS_FLOOD,
                                    CLASS_HONEST)
from repro.server.service import OUTCOME_SHED_RATE
from repro.server.store import encode_records

from harness import (REPLAY_SAMPLE, PassResult, check, close,
                     fresh_input_failures, open_service, run_cycle)
from ledger import (AUDITOR_LAYERS, Ledger, NullLedger, assign_trace_ids,
                    layer_totals, median, percentile,
                    split_by, tail_percentile)
from workloads import BUILDERS, Workload

#: The six pipeline stages, as ``StageMetrics`` names them.
STAGES = ("signature", "decode", "ordering", "feasibility", "disclosure",
          "sufficiency")
#: Rejection reasons the pipeline can give (decrypt failure is the
#: engine's, reported as ``engine.decrypt_failed``).
PIPELINE_REASONS = tuple(reason.value for reason in RejectionReason
                         if reason is not RejectionReason.DECRYPT_FAILED)


def execute(workload: str, seed: int, seconds: float, trace: bool,
            root: pathlib.Path) -> int:
    """Run ``workload`` once; prints the report, returns the exit code."""
    workdir = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _execute(workload, seed, seconds, trace, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there


def _execute(name, seed, seconds, trace, root, workdir) -> int:
    ledger = Ledger() if trace else NullLedger()
    start = time.perf_counter()
    workload = BUILDERS[name](seed, seconds, workdir, ledger)
    untraced = open_service(workload, workdir, "run")
    result = open_service(workload, workdir, "traced") if trace else untraced
    one_time_s = time.perf_counter() - start

    # A traced run runs every cycle twice, so it takes half the cycles to
    # stay within the same wall time.
    cycles = max(1, workload.cycles // 2) if trace else workload.cycles
    build_s: list[float] = []
    flight_s: list[tuple[str, float]] = []
    for index in range(cycles):
        begin = time.perf_counter()
        with ledger.drone_layers():
            cycle = workload.build_cycle(index)
        build_s.append(time.perf_counter() - begin)
        flight_s += cycle.flight_s
        # The prebuilt inputs are thousands of long-lived objects; left in
        # the collected heap they make each full collection inside the
        # timed phases a 50-70 ms pause the program's own heap would not.
        gc.collect()
        gc.freeze()
        run_cycle(cycle, untraced, NullLedger())
        if trace:
            with ledger.auditor_layers(result.service):
                run_cycle(cycle, result, ledger)
    # Set-up is the one-time part plus one input build per cycle, taken as
    # the median build so one slow moment of the machine does not count
    # once per cycle.
    setup_s = one_time_s + cycles * median(build_s)

    passes = (untraced, result) if trace else (untraced,)
    failures = fresh_input_failures(untraced.events)
    for done in passes:
        close(done)
        failures += check(workload, done, seed)
        hits = sum(e.payload_cache_hits for e in done.service.engines)
        if workload.cold_cache and hits:
            failures.append(f"payload cache hit {hits} time(s) on fresh "
                            "inputs")

    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} cycles={cycles}")
    _print_open_loop(result, cycles)
    if trace:
        metrics = per_layer(workload, result, untraced, ledger)
        _print_ledger(ledger, result, metrics)
        path = _write_spans(ledger, root, name, seed)
        print(f"  spans: {len(ledger.spans)} written to "
              f"{path.relative_to(root)}")
    else:
        metrics = end_to_end(result, flight_s, setup_s)
        for metric, entry in metrics.items():
            print(f"  {metric:<24} {entry['value']:.6g} {entry['unit']}")
        # Printed but kept out of the JSON metrics: with only ten samples
        # beyond it, a handful of queueing collisions set it, and it moved
        # by a third or more between runs of the same workload, more than
        # the largest bound a comparison may use.
        tail = tail_percentile(len(result.latencies_s))
        print(f"  {'verdict_tail_ms':<24} "
              f"{percentile(result.latencies_s, tail) * 1e3:.6g} ms "
              f"(p{tail:g} of {len(result.latencies_s)} samples)")
    for failure in failures:
        print(f"  FAIL {failure}")

    honest = [i for i, e in enumerate(result.events)
              if e.traffic_class == CLASS_HONEST]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(result.events),
        "failed": sum(not _accepted(result, i) for i in honest)
        + len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _accepted(result: PassResult, index: int) -> bool:
    seq = result.seqs[index]
    report = result.reports.get(seq) if seq is not None else None
    return report is not None and report.status is VerificationStatus.ACCEPTED


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _flight_cost(flight_s: list[tuple[str, float]]) -> float:
    """Mean build time per flight, for an even mix of the fleet's schemes.

    A cost, so the mean.  It is taken per scheme and then averaged, so the
    fleet's round-robin scheme assignment sets the weights rather than
    which drones one seed's arrivals happen to draw: a per-sample RSA
    flight costs several times a hash-chain one.
    """
    by_scheme: dict[str, list[float]] = {}
    for scheme, seconds in flight_s:
        by_scheme.setdefault(scheme, []).append(seconds)
    return statistics.fmean(statistics.fmean(v) for v in by_scheme.values())


def end_to_end(result: PassResult, flight_s: list[tuple[str, float]],
               setup_s: float) -> dict:
    """The user-visible metrics of one untraced run."""
    honest = [i for i, e in enumerate(result.events)
              if e.traffic_class == CLASS_HONEST]
    latencies = result.latencies_s
    uplink = [len(encode_records(e.submission.records))
              + len(e.submission.finalizer) for e in result.events
              if e.traffic_class == CLASS_HONEST]
    return {
        "setup_s": _metric(setup_s, "s"),
        "verdict_p50_ms": _metric(median(latencies) * 1e3, "ms"),
        "audit_throughput_sps": _metric(result.throughput_sps, "1/s"),
        # The complement of the failed ratio (honest submissions not
        # ending ACCEPTED over those offered), which is 0 when all is well.
        "accepted_ratio": _metric(
            sum(_accepted(result, i) for i in honest) / len(honest),
            "ratio"),
        "drone_ms_per_flight": _metric(_flight_cost(flight_s) * 1e3, "ms"),
        "uplink_bytes_per_flight": _metric(_mean(uplink), "B"),
        "store_bytes_per_flight": _metric(
            result.store_growth_bytes / result.service.stats.accepted, "B"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def per_layer(workload: Workload, result: PassResult, untraced: PassResult,
              ledger: Ledger) -> dict:
    """The per-layer ledger of one traced run."""
    service = result.service
    spans = ledger.spans
    totals = layer_totals(spans)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def mean_ms(name: str) -> float:
        entry = totals.get(name)
        return entry["duration_s"] / entry["calls"] * 1e3 if entry else 0.0

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    flights = calls("drone.flight")
    metrics = {
        "drone.sample_ms": _metric(
            (self_s("drone.flight") + self_s("drone.sampler"))
            / flights * 1e3, "ms"),
        "drone.tee_sign_ms": _metric(
            totals["drone.tee"]["duration_s"] / flights * 1e3, "ms"),
        "drone.encrypt_ms": _metric(
            totals["drone.encrypt"]["duration_s"] / flights * 1e3, "ms"),
        "drone.auth_samples_per_flight": _metric(_mean(
            len(e.submission.records) for e in result.events
            if e.traffic_class == CLASS_HONEST), "count"),
        "drone.keygen_s": _metric(workload.keygen_s, "s"),
    }

    admission = service.admission
    metrics["admission.calls"] = _metric(
        0 if admission is None
        else admission.stats.admitted + admission.stats.denied, "count")
    for traffic_class in (CLASS_HONEST, CLASS_ADVERSARY, CLASS_FLOOD):
        outcomes = [o for o, e in zip(result.outcomes, result.events)
                    if e.traffic_class == traffic_class]
        denied = sum(o == OUTCOME_SHED_RATE for o in outcomes)
        metrics[f"admission.denied_ratio.{traffic_class}"] = _metric(
            denied / len(outcomes) if outcomes else 0.0, "ratio")

    waits = result.queue_waits_s
    stats = service.stats
    metrics.update({
        "service.submit_ms": _metric(mean_ms("service.submit"), "ms"),
        "service.queue_wait_p50_ms": _metric(median(waits) * 1e3, "ms"),
        "service.queue_wait_tail_ms": _metric(
            percentile(waits, tail_percentile(len(waits))) * 1e3, "ms"),
        "service.drain_batch_size": _metric(_mean(result.drain_sizes),
                                            "count"),
        "store.put_ms": _metric(mean_ms("store.put_submission"), "ms"),
        "store.dedup_ratio": _metric(
            stats.deduplicated / (stats.accepted + stats.deduplicated),
            "ratio"),
        "store.verdict_ms": _metric(mean_ms("store.record_verdict"), "ms"),
    })

    engines = service.engines
    hits = sum(e.payload_cache_hits for e in engines)
    misses = sum(e.payload_cache_misses for e in engines)
    reasons = [report.reason.value for report in result.reports.values()
               if report is not None and report.reason is not None]
    authenticated = {span.attributes.get("seq") for span in spans
                     if span.name == "engine.authenticate"}
    metrics.update({
        "engine.decrypt_ms": _metric(mean_ms("engine.decrypt"), "ms"),
        "engine.decrypt_ops": _metric(calls("engine.decrypt"), "count"),
        "engine.authenticate_ms": _metric(
            totals["engine.authenticate"]["duration_s"]
            / len(authenticated) * 1e3, "ms"),
        "engine.payload_cache_hit_ratio": _metric(
            hits / (hits + misses), "ratio"),
        "engine.decrypt_failed": _metric(
            reasons.count(RejectionReason.DECRYPT_FAILED.value), "count"),
        "engine.zone_index_builds": _metric(
            sum(e.zone_index_builds for e in engines), "count"),
    })
    for stage in STAGES:
        metrics[f"pipeline.{stage}_ms"] = _metric(
            service.metrics.total_seconds(stage)
            / service.metrics.runs(stage) * 1e3, "ms")
    for reason in PIPELINE_REASONS:
        metrics[f"pipeline.rejections.{reason}"] = _metric(
            reasons.count(reason), "count")

    metrics.update({
        "gen.lag_p50_ms": _metric(median(result.lags_s) * 1e3, "ms"),
        "gen.lag_max_ms": _metric(max(result.lags_s) * 1e3, "ms"),
        "gen.offered_sps": _metric(result.offered_sps, "1/s"),
    })

    auditor_self = sum(self_s(name) for name in AUDITOR_LAYERS)
    for name in AUDITOR_LAYERS:
        metrics[f"share.{name}"] = _metric(self_s(name) / auditor_self,
                                           "ratio")
    metrics.update({
        "trace.unattributed_share": _metric(
            (result.wall_s - auditor_self - result.idle_s) / result.wall_s,
            "ratio"),
        "trace.idle_share": _metric(result.idle_s / result.wall_s, "ratio"),
        "trace.overhead_ratio": _metric(
            (result.busy_s - untraced.busy_s) / untraced.busy_s, "ratio"),
        "trace.spans": _metric(len(spans), "count"),
    })
    return metrics


def _print_open_loop(result: PassResult, cycles: int) -> None:
    latencies = result.latencies_s
    tail = tail_percentile(len(latencies))
    hits = sum(e.payload_cache_hits for e in result.service.engines)
    misses = sum(e.payload_cache_misses for e in result.service.engines)
    print(f"  open loop: {result.offered} submissions, offered "
          f"{result.offered_sps:.2f}/s, generator lag p50 "
          f"{median(result.lags_s) * 1e3:.3f} ms, max "
          f"{max(result.lags_s) * 1e3:.3f} ms")
    print(f"  verdict latency over {len(latencies)} honest submissions: "
          f"p50 {median(latencies) * 1e3:.3f} ms, p{tail:g} "
          f"{percentile(latencies, tail) * 1e3:.3f} ms "
          f"({len(latencies)} samples)")
    print(f"  saturation: {len(result.events) - result.offered} fresh "
          f"submissions in {cycles} backlogs, drained at "
          f"{result.throughput_sps:.2f}/s")
    print(f"  payload cache hit ratio {hits / max(1, hits + misses):.4f}; "
          f"stored verdicts replayed through the reference: a seeded "
          f"sample of up to {REPLAY_SAMPLE} per pass")


def _print_ledger(ledger: Ledger, result: PassResult, metrics: dict) -> None:
    totals = layer_totals(ledger.spans)
    auditor_self = sum(totals.get(n, {}).get("self_s", 0.0)
                       for n in AUDITOR_LAYERS)
    print(f"  {'layer':<28}{'calls':>8}{'self s':>11}{'of run':>9}"
          f"{'of auditor':>12}")
    for name, entry in sorted(totals.items(),
                              key=lambda item: -item[1]["self_s"]):
        auditor = (f"{entry['self_s'] / auditor_self:12.1%}"
                   if name in AUDITOR_LAYERS else "")
        of_run = (f"{entry['self_s'] / result.wall_s:9.1%}"
                  if name in AUDITOR_LAYERS else f"{'(setup)':>9}")
        print(f"  {name:<28}{entry['calls']:>8}{entry['self_s']:>11.4f}"
              f"{of_run}{auditor}")
    print(f"  {'idle (open loop)':<28}{'':>8}{result.idle_s:>11.4f}"
          f"{result.idle_s / result.wall_s:9.1%}")
    unattributed = metrics["trace.unattributed_share"]["value"]
    print(f"  {'unattributed (bench loop)':<28}{'':>8}"
          f"{unattributed * result.wall_s:>11.4f}{unattributed:9.1%}")
    print(f"  tracing overhead: {metrics['trace.overhead_ratio']['value']:+.1%}"
          f" of untraced busy time")
    if "admission.admit" in totals:
        entry = totals["admission.admit"]
        print(f"  admission.admit_us "
              f"{entry['duration_s'] / entry['calls'] * 1e6:.3f} us")
    for name in ("drone.tee", "engine.authenticate"):
        for scheme, entry in sorted(split_by(ledger.spans, name,
                                             "scheme").items()):
            print(f"  {name}[{scheme}]: {entry['calls']} calls, "
                  f"{entry['self_s'] * 1e3 / entry['calls']:.3f} ms/call")
    top = max(AUDITOR_LAYERS, key=lambda n: totals.get(n, {}).get("self_s",
                                                                  0.0))
    print(f"  largest auditor-side self time: {top} "
          f"({metrics[f'share.{top}']['value']:.1%}); pipeline share "
          f"{metrics['share.pipeline.run']['value']:.1%}")


def _write_spans(ledger: Ledger, root: pathlib.Path, workload: str,
                 seed: int) -> pathlib.Path:
    assign_trace_ids(ledger.spans)
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.spans.jsonl"
    with path.open("w") as handle:
        for span in ledger.spans:
            handle.write(json.dumps(span.to_dict(), default=str) + "\n")
    return path
