"""Per-layer cost ledger: spans around layer entry points, self time, stats.

Spans are recorded in memory with :class:`repro.obs.trace.Tracer` (never
installed as the process-wide tracer, so the program's own span sites stay
no-ops) by wrapping each layer's public entry point from this benchmark's
code: a call-site wrapper for the calls the benchmark makes itself
(``submit``, ``drain``, flight building) and a scoped attribute patch for
the calls a layer makes into the next one (``AdmissionScheduler.admit``,
``FlightStore`` writes, ``AuditEngine.audit_batch``, the engine's record
decrypt, scheme ``screen``/``verify`` and ``VerificationPipeline.run``,
and the drone-side signer, encrypter, Adapter and sampler).  Every patch
is undone when its scope ends.

A layer's *self time* is its spans' durations minus the part of each
span's interval its child spans cover; spans of one submission share the
trace id ``seq-<n>`` of its stored row.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Callable, Iterable, Iterator, Sequence

import repro.fleetsim.traffic as traffic
import repro.server.engine as engine_module
import repro.workloads.fleet as fleet
from repro.core.sampling import AdaptiveSampler
from repro.drone.adapter import Adapter
from repro.obs.trace import Span, Tracer

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Auditor-side span names, in pipeline order (the share denominators).
AUDITOR_LAYERS = (
    "service.submit", "admission.admit", "store.put_submission",
    "service.drain", "engine.audit_batch", "engine.decrypt",
    "engine.authenticate", "pipeline.run", "store.record_verdict",
    "store.record_intake_error",
)


# --- order statistics --------------------------------------------------------

def _rank(pct: float, count: int) -> int:
    """Nearest rank of percentile ``pct`` among ``count`` samples (1-based).

    The small slack keeps float error (99.9 * 10000 / 100 is a hair above
    9990) from pushing the rank up by one.
    """
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten of ``count`` samples beyond.

    With nearest-rank indexing that is ``100 * (count - 10) / count``: the
    value with exactly ten samples above it.  It moves smoothly with the
    sample count, where a fixed ladder of percentiles would jump a rung
    (and its value with it) as the count crosses a threshold.  Below 20
    samples it would fall under the median, so the median is returned.
    """
    if count < 2 * TAIL_MIN_BEYOND:
        return 50.0
    return 100.0 * (count - TAIL_MIN_BEYOND) / count


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (0.0 for an empty sample)."""
    return percentile(values, 50.0) if values else 0.0


# --- self time -----------------------------------------------------------------

def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None and span.end_s is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start_s, span.end_s))
    return {span.span_id: (span.end_s - span.start_s)
            - _covered(span.start_s, span.end_s,
                       children.get(span.span_id, ()))
            for span in spans if span.end_s is not None}


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``duration_s`` and ``self_s``."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.end_s is None:
            continue
        entry = totals.setdefault(span.name, {"calls": 0, "duration_s": 0.0,
                                              "self_s": 0.0})
        entry["calls"] += 1
        entry["duration_s"] += span.end_s - span.start_s
        entry["self_s"] += own[span.span_id]
    return totals


def split_by(spans: Sequence[Span], name: str,
             attribute: str) -> dict[str, dict[str, float]]:
    """Calls and self time of spans called ``name``, keyed by an attribute."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.name == name and span.end_s is not None:
            key = str(span.attributes.get(attribute))
            entry = out.setdefault(key, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[span.span_id]
    return out


def assign_trace_ids(spans: Sequence[Span]) -> None:
    """Give every span of one submission the trace id ``seq-<n>``.

    A span carrying a ``seq`` attribute names its submission; spans
    without one inherit their parent's id, so an admission check shares
    the id of the ``submit`` it ran under.  Batch-level spans (``drain``,
    ``audit_batch``) span many submissions and keep the tracer's own id.
    """
    by_id = {span.span_id: span for span in spans}
    resolved: dict[str, str] = {}

    def resolve(span: Span) -> str:
        if span.span_id in resolved:
            return resolved[span.span_id]
        seq = span.attributes.get("seq")
        if seq is not None:
            trace_id = f"seq-{seq}"
        elif span.parent_id in by_id:
            trace_id = resolve(by_id[span.parent_id])
        else:
            trace_id = span.trace_id
        resolved[span.span_id] = trace_id
        return trace_id

    for span in sorted(spans, key=lambda s: s.start_s):
        span.trace_id = resolve(span)


# --- recording -----------------------------------------------------------------

class Ledger:
    """An in-memory span recorder plus the maps that attach spans to seqs.

    ``seq_of_ciphertext`` is filled by the benchmark when a submission is
    accepted; the decrypt wrapper extends it to ``seq_of_payload`` so the
    authenticate and pipeline spans of the same submission can be tagged.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.seq_of_ciphertext: dict[bytes, int] = {}
        self.seq_of_payload: dict[bytes, int] = {}

    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order."""
        return self.tracer.spans

    def note_submission(self, seq: int, submission) -> None:
        """Remember which stored row an accepted submission's records are."""
        for record in submission.records:
            self.seq_of_ciphertext[record.ciphertext] = seq

    def call(self, name: str, fn: Callable, *args,
             attributes: dict[str, Any] | None = None,
             tag: Callable[..., dict[str, Any]] | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``tag(result, *args, **kwargs)`` adds attributes once the call
        returns (the stored ``seq`` of a store write, say).
        """
        span = self.tracer.start_span(name, attributes=attributes)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.tracer.end_span(span, status="error")
            raise
        self.tracer.end_span(span)
        if tag is not None:
            span.attributes.update(tag(result, *args, **kwargs))
        return result

    def wrap(self, name: str, fn: Callable,
             tag: Callable[..., dict[str, Any]] | None = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, tag=tag, **kwargs)

        return traced

    def patch(self, owner: Any, attribute: str, name: str,
              tag: Callable[..., dict[str, Any]] | None = None):
        """Record ``owner.attribute`` calls as span ``name`` in this scope."""
        return swap(owner, attribute,
                    self.wrap(name, getattr(owner, attribute), tag))

    # --- the layers the benchmark patches -------------------------------------

    @contextmanager
    def drone_layers(self) -> Iterator[None]:
        """Spans around the drone-side signer, encrypter, Adapter, sampler."""
        def scheme_tag(_result, _key, _payloads, scheme_id="rsa-v15",
                       *_a, **_k):
            return {"scheme": scheme_id}

        with ExitStack() as stack:
            stack.enter_context(self.patch(traffic, "build_flight_submission",
                                           "drone.flight"))
            stack.enter_context(self.patch(fleet, "authenticate_payloads",
                                           "drone.tee", scheme_tag))
            stack.enter_context(self.patch(fleet, "encrypt_poa",
                                           "drone.encrypt"))
            stack.enter_context(self.patch(Adapter, "get_gps_auth",
                                           "drone.tee",
                                           lambda r, a: {"scheme": a.scheme}))
            stack.enter_context(self.patch(Adapter, "finalize_flight",
                                           "drone.tee",
                                           lambda r, a: {"scheme": a.scheme}))
            stack.enter_context(self.patch(AdaptiveSampler, "run",
                                           "drone.sampler"))
            yield

    @contextmanager
    def auditor_layers(self, service) -> Iterator[None]:
        """Spans around every layer ``submit``/``drain`` call into."""
        ledger = self

        def seq_tag(result, *_a, **_k):
            return {"seq": result[0]}

        def verdict_tag(_result, seq, *_a, **_k):
            return {"seq": seq}

        def decrypt(key, ciphertext, _inner=engine_module.decrypt_pkcs1_v15):
            seq = ledger.seq_of_ciphertext.get(ciphertext)
            payload = ledger.call("engine.decrypt", _inner, key, ciphertext,
                                  attributes={"seq": seq})
            if seq is not None:
                ledger.seq_of_payload[payload] = seq
            return payload

        class _TracedScheme:
            def __init__(self, scheme):
                self._scheme = scheme

            def _traced(self, op, key, pairs, finalizer, hash_name):
                seq = (ledger.seq_of_payload.get(pairs[0][0])
                       if pairs else None)
                return ledger.call(
                    "engine.authenticate", getattr(self._scheme, op), key,
                    pairs, finalizer, hash_name,
                    attributes={"seq": seq, "op": op,
                                "scheme": self._scheme.id})

            def screen(self, *args):
                return self._traced("screen", *args)

            def verify(self, *args):
                return self._traced("verify", *args)

        def get_scheme(scheme_id, _inner=engine_module.get_scheme):
            return _TracedScheme(_inner(scheme_id))

        class _TracedPipeline(engine_module.VerificationPipeline):
            def run(self, ctx):
                seq = (ledger.seq_of_payload.get(ctx.poa[0].payload)
                       if len(ctx.poa) else None)
                return ledger.call("pipeline.run", super().run, ctx,
                                   attributes={"seq": seq})

        with ExitStack() as stack:
            for attribute, replacement in (
                    ("decrypt_pkcs1_v15", decrypt),
                    ("get_scheme", get_scheme),
                    ("VerificationPipeline", _TracedPipeline)):
                stack.enter_context(swap(engine_module, attribute,
                                         replacement))
            if service.admission is not None:
                stack.enter_context(self.patch(service.admission, "admit",
                                               "admission.admit"))
            stack.enter_context(self.patch(service.store, "put_submission",
                                           "store.put_submission", seq_tag))
            stack.enter_context(self.patch(service.store, "record_verdict",
                                           "store.record_verdict",
                                           verdict_tag))
            stack.enter_context(self.patch(service.store,
                                           "record_intake_error",
                                           "store.record_intake_error",
                                           verdict_tag))
            for engine in service.engines:
                stack.enter_context(self.patch(engine, "audit_batch",
                                               "engine.audit_batch"))
            yield


@contextmanager
def swap(owner: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Replace ``owner.attribute`` in this scope, then put it back.

    An attribute the owner only inherits (a method, for an instance) is
    deleted again rather than left shadowing its class.
    """
    original = getattr(owner, attribute)
    had_own = attribute in vars(owner)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


class NullLedger:
    """The untraced stand-in: same calls, no spans, no patches."""

    def call(self, name: str, fn: Callable, *args,
             attributes: dict[str, Any] | None = None,
             tag: Callable[..., dict[str, Any]] | None = None, **kwargs):
        return fn(*args, **kwargs)

    def note_submission(self, seq: int, submission) -> None:
        pass

    def drone_layers(self):
        return nullcontext()

    def auditor_layers(self, service):
        return nullcontext()
