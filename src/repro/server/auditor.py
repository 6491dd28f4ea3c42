"""The AliDrone Server: the Auditor's online service (paper §IV-C2).

Stores registered drones and NFZs, answers signed zone queries, decrypts
and verifies submitted PoAs, retains verified PoAs as evidence "for a
couple of days", and adjudicates Zone Owner incident reports against the
retained evidence.

The server is a protocol façade over one
:class:`repro.server.service.AuditorService` (an in-memory store, one
shard, no admission guard): the drone table, the NFZ database, the
registration policy and the audit engine are the service's.  What the
server adds is what the online protocol adds — signed zone queries with
a nonce window, evidence retention, incident adjudication, outage points
and the event trail.  Every PoA it audits goes through ``service.submit``
and ``service.drain``, so its verdicts are persisted and exactly-once
like any other intake.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi
from repro.core.protocol import (
    DroneRegistrationRequest,
    IncidentReport,
    PoaSubmission,
    ZoneQuery,
    ZoneRegistrationRequest,
    ZoneResponse,
)
from repro.core.sufficiency import Method, pair_is_sufficient
from repro.core.verification import VerificationReport, VerificationStatus
from repro.crypto.rsa import RsaPublicKey, generate_rsa_keypair
from repro.errors import (
    AuthenticationError,
    RegistrationError,
    ServiceUnavailableError,
)
from repro.geo.geodesy import LocalFrame
from repro.obs.adapters import (
    register_event_log,
    register_stage_metrics,
    register_zone_index_stats,
)
from repro.obs.hub import TelemetryHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.server.engine import AuditOutcome, BatchAuditResult
from repro.server.service import AuditorService
from repro.server.store import INTAKE_ERROR_STATUS
from repro.sim.events import EventLog
from repro.server.violations import (
    PenaltyPolicy,
    ViolationFinding,
    ViolationKind,
    ViolationLedger,
)
from repro.units import FAA_MAX_SPEED_MPS

#: Paper: "the AliDrone Server should save the PoAs for a couple of days".
DEFAULT_RETENTION_S = 3 * 24 * 3600.0

#: How long a zone-query nonce is remembered for replay protection.  A
#: nonce older than this can no longer be replayed undetectably in any
#: realistic deployment (queries are interactive), so the set is evicted
#: on the same sweep that purges retained evidence — otherwise it grows
#: without bound under heavy traffic.
DEFAULT_NONCE_WINDOW_S = 24 * 3600.0

_STATUS_TO_KIND = {
    VerificationStatus.REJECTED_BAD_SIGNATURE: ViolationKind.BAD_SIGNATURE,
    VerificationStatus.REJECTED_INFEASIBLE: ViolationKind.INFEASIBLE_TRACE,
    VerificationStatus.REJECTED_MALFORMED: ViolationKind.MALFORMED_POA,
    VerificationStatus.REJECTED_EMPTY: ViolationKind.MALFORMED_POA,
    VerificationStatus.INSUFFICIENT: ViolationKind.INSUFFICIENT_ALIBI,
}


@dataclass
class RetainedSubmission:
    """A verified submission kept as evidence for later accusations."""

    submission: PoaSubmission
    poa: ProofOfAlibi
    report: VerificationReport
    received_at: float


class AliDroneServer:
    """The Auditor's service endpoint."""

    def __init__(self, frame: LocalFrame,
                 rng: random.Random | None = None,
                 encryption_key_bits: int = 1024,
                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                 hash_name: str = "sha1",
                 method: Method = "conservative",
                 retention_s: float = DEFAULT_RETENTION_S,
                 nonce_window_s: float = DEFAULT_NONCE_WINDOW_S,
                 penalty_policy: PenaltyPolicy | None = None,
                 screen_signatures: bool = True,
                 telemetry: TelemetryHub | None = None,
                 injector=None):
        self.frame = frame
        self.rng = rng or random.SystemRandom()
        #: Optional fault injector: ``fail`` rules at
        #: ``auditor.register`` / ``auditor.zone_query`` /
        #: ``auditor.receive_poa`` make the matching endpoint raise
        #: :class:`~repro.errors.ServiceUnavailableError` before any
        #: state is touched (an outage window, not a partial write).
        self.injector = injector
        self.vmax_mps = float(vmax_mps)
        self.retention_s = float(retention_s)
        self.nonce_window_s = float(nonce_window_s)
        self.ledger = ViolationLedger(penalty_policy)
        self._retained: dict[str, list[RetainedSubmission]] = {}
        #: Replay protection: nonce -> time the query was served, so old
        #: nonces can be evicted by :meth:`purge_expired`.
        self._seen_nonces: dict[bytes, float] = {}
        #: Operational audit trail: registrations, queries, submissions,
        #: incidents.  Event times use protocol timestamps where the
        #: message carries one, else 0.0 (registration has no clock).
        self.events = EventLog()
        #: The one auditor core: drone table, zones, registration policy
        #: (``require_attestation`` / ``trust_manufacturer``), store and
        #: engine.  The queue never sheds here: the façade drains it.
        self.service = AuditorService(
            frame, ":memory:",
            encryption_key=generate_rsa_keypair(encryption_key_bits,
                                                rng=self.rng),
            vmax_mps=vmax_mps, hash_name=hash_name, method=method,
            screen_signatures=screen_signatures, events=self.events)
        self.zones = self.service.zones
        self.verifier = self.service.verifier
        #: The audit engine every PoA intake flows through.
        self.engine = self.service.engines[0]
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def _check_available(self, point: str, now: float | None = None) -> None:
        """Raise :class:`~repro.errors.ServiceUnavailableError` when an
        injected outage window covers this request; no-op otherwise."""
        if self.injector is not None:
            self.injector.maybe_fail(point, now=now,
                                     error=ServiceUnavailableError)

    @property
    def public_encryption_key(self) -> RsaPublicKey:
        """The key drones encrypt PoA payloads under."""
        return self.service.public_encryption_key

    # --- registration (steps 0-1) -------------------------------------------

    def register_drone(self, request: DroneRegistrationRequest) -> str:
        """Step 0: issue an ``id_drone`` for ``(D+, T+)``.

        Registration is the service's: one policy (attestation when
        ``service.require_attestation`` is set) for both front doors.
        """
        self._check_available("auditor.register")
        return self.service.register_drone(request)

    def register_zone(self, request: ZoneRegistrationRequest) -> str:
        """Step 1: register a circular NFZ; returns its ``id_zone``."""
        record = self.zones.register(request.zone,
                                     owner_name=request.owner_name,
                                     proof_of_ownership=request.proof_of_ownership)
        self.events.record(0.0, "zone_registered", zone_id=record.zone_id,
                           owner=request.owner_name,
                           radius_m=request.zone.radius_m)
        return record.zone_id

    # --- zone query (steps 2-3) -------------------------------------------------

    def handle_zone_query(self, query: ZoneQuery,
                          now: float = 0.0) -> ZoneResponse:
        """Verify the signed nonce and return zones inside the rectangle.

        ``now`` timestamps the nonce for replay-window eviction (the query
        message itself carries no clock).

        Raises:
            RegistrationError: the querying drone is not registered.
            AuthenticationError: bad signature or replayed nonce.
        """
        self._check_available("auditor.zone_query", now)
        record = self.service.store.get_drone(query.drone_id)
        if query.nonce in self._seen_nonces:
            raise AuthenticationError("zone query nonce replayed")
        if not query.verify(record.operator_public_key):
            raise AuthenticationError("zone query signature invalid")
        self._seen_nonces[query.nonce] = now
        matches = self.zones.query_rect(query.corner_a, query.corner_b)
        self.events.record(now, "zone_query", drone_id=query.drone_id,
                           zones_returned=len(matches))
        return ZoneResponse(zones=tuple((r.zone_id, r.zone) for r in matches))

    # --- PoA intake (step 4) ------------------------------------------------------

    def receive_poa(self, submission: PoaSubmission,
                    now: float | None = None) -> VerificationReport:
        """Decrypt, verify, and retain one PoA submission.

        The same service intake as :meth:`receive_poa_batch`; an intake
        error (unknown drone) is raised instead of returned.
        """
        self._check_available("auditor.receive_poa", now)
        (outcome,) = self._audit([submission], now)
        if outcome.error is not None:
            raise outcome.error
        return outcome.report

    def receive_poa_batch(self, submissions: list[PoaSubmission],
                          now: float | None = None) -> BatchAuditResult:
        """Decrypt, verify, and retain many submissions as one batch.

        Unlike the single-submission API, intake failures do not raise:
        each :class:`repro.server.engine.AuditOutcome` carries either a
        report (retained and logged as usual) or the error.  The batch is
        recorded in the audit trail as one ``batch_audited`` event.
        """
        self._check_available("auditor.receive_poa", now)
        start = time.perf_counter()
        with get_tracer().span("server.receive_poa_batch",
                               batch_size=len(submissions)):
            outcomes = self._audit(submissions, now)
        result = BatchAuditResult(outcomes=outcomes,
                                  wall_time_s=time.perf_counter() - start)
        self.events.record(now if now is not None else 0.0, "batch_audited",
                           batch_size=result.batch_size,
                           wall_time_s=result.wall_time_s)
        return result

    def _audit(self, submissions: list[PoaSubmission],
               now: float | None) -> list[AuditOutcome]:
        """Submit every submission to the service, drain, and retain.

        Each submission is stored at ``now`` (its ``claimed_end`` when
        ``now`` is None).  The queue is drained whenever it fills, so a
        batch larger than the queue bound is audited, never shed.  A
        byte-identical resubmission (in this batch or an earlier one)
        gets the stored verdict and is not retained again; undecryptable
        submissions carry no verifiable evidence and are reported but not
        retained.
        """
        service = self.service
        fresh: dict[int, AuditOutcome] = {}
        seqs = []
        at = now
        for submission in submissions:
            at = now if now is not None else submission.claimed_end
            if service.queue_depth >= service.queue_capacity:
                fresh.update(self._drain(at))
            seqs.append(service.submit(submission, now=at).seq)
        fresh.update(self._drain(at))
        outcomes = []
        for seq, submission in zip(seqs, submissions):
            outcome = fresh.pop(seq, None)
            if outcome is None:
                outcome = self._stored_outcome(seq, submission)
            elif outcome.poa is not None:
                self._retain_and_log(submission, outcome.poa,
                                     outcome.report, now)
            outcomes.append(outcome)
        return outcomes

    def _drain(self, now: float) -> dict[int, AuditOutcome]:
        return {record.seq: record.outcome
                for record in self.service.drain(now)}

    def _stored_outcome(self, seq: int,
                        submission: PoaSubmission) -> AuditOutcome:
        """The outcome of a resubmission, rebuilt from its verdict row."""
        verdict = self.service.store.get_verdict(seq)
        if verdict.status == INTAKE_ERROR_STATUS:
            return AuditOutcome(submission=submission,
                                error=RegistrationError(verdict.message))
        return AuditOutcome(submission=submission,
                            report=verdict.to_report())

    def bind_metrics(self, registry: MetricsRegistry | None = None,
                     ) -> MetricsRegistry:
        """Surface this server's accumulators through a metrics registry.

        Registers collect-time adapters for the engine's per-stage
        :class:`~repro.perf.meter.StageMetrics` (``audit.<stage>.*``) and
        the audit-trail :class:`~repro.sim.events.EventLog`
        (``server.events.*``); creates a fresh registry when none is
        given.  Existing accumulator callers are unaffected.
        """
        registry = registry if registry is not None else MetricsRegistry()
        register_stage_metrics(registry, self.engine.metrics, prefix="audit")
        register_event_log(registry, self.events, prefix="server.events")
        register_zone_index_stats(registry, self.engine.zone_index_stats,
                                  prefix="audit.zone_index")
        registry.gauge("audit.zone_index.builds",
                       fn=lambda: self.engine.zone_index_builds)
        registry.gauge("audit.zone_index.cache_hits",
                       fn=lambda: self.engine.zone_index_hits)
        registry.gauge("server.retained_submissions",
                       fn=lambda: sum(len(items) for items
                                      in self._retained.values()))
        registry.gauge("server.registered_drones",
                       fn=self.service.store.drone_count)
        return registry

    def attach_telemetry(self, hub: TelemetryHub) -> TelemetryHub:
        """Wire this server's live state into a streaming telemetry hub.

        The engine feeds per-intake windows on its own (via its
        ``telemetry`` handle); this registers the *stateful* side:
        gauges for cache sizes and registry counts, the zone-index cache
        hit ratio (absent until the cache has seen traffic), and a
        ``stages`` rollup section with the engine's per-stage timing
        means.  Safe to call once per hub; gauges are replaced.
        """
        self.engine.telemetry = hub
        hub.gauge("audit.payload_cache_size",
                  lambda: self.engine.payload_cache_size)
        hub.gauge("server.retained_submissions",
                  lambda: sum(len(items) for items
                              in self._retained.values()))
        hub.gauge("server.registered_drones",
                  self.service.store.drone_count)

        def hit_ratio() -> float:
            lookups = (self.engine.zone_index_hits
                       + self.engine.zone_index_builds)
            return (self.engine.zone_index_hits / lookups) if lookups else 1.0

        hub.gauge("audit.zone_index.cache_hit_ratio", hit_ratio)

        def stage_section() -> dict[str, Any]:
            metrics = self.engine.metrics
            section = {}
            for stage in metrics.stages():
                runs = metrics.runs(stage)
                section[stage] = {
                    "runs": runs,
                    "mean_seconds": (metrics.total_seconds(stage) / runs
                                     if runs else 0.0),
                }
            return section

        hub.add_section("stages", stage_section)
        return hub

    def _retain_and_log(self, submission: PoaSubmission,
                        poa: ProofOfAlibi,
                        report: VerificationReport,
                        now: float | None) -> None:
        received_at = now if now is not None else submission.claimed_end
        self._retained.setdefault(submission.drone_id, []).append(
            RetainedSubmission(submission=submission, poa=poa,
                               report=report, received_at=received_at))
        self.events.record(received_at, "poa_received",
                           drone_id=submission.drone_id,
                           flight_id=submission.flight_id,
                           status=report.status.value,
                           samples=report.sample_count)

    def retained_for(self, drone_id: str) -> list[RetainedSubmission]:
        """Evidence currently retained for one drone."""
        return list(self._retained.get(drone_id, []))

    def purge_expired(self, now: float) -> int:
        """One retention sweep: drop expired evidence and stale nonces.

        Returns the number of retained submissions dropped.  The same
        sweep evicts zone-query nonces older than ``nonce_window_s`` so
        the replay-protection set stays bounded under sustained traffic.
        """
        dropped = 0
        for drone_id, items in list(self._retained.items()):
            kept = [s for s in items if now - s.received_at <= self.retention_s]
            dropped += len(items) - len(kept)
            if kept:
                self._retained[drone_id] = kept
            else:
                del self._retained[drone_id]
        self._seen_nonces = {
            nonce: seen_at for nonce, seen_at in self._seen_nonces.items()
            if now - seen_at <= self.nonce_window_s}
        return dropped

    # --- incident adjudication ------------------------------------------------------

    def handle_incident(self, report: IncidentReport) -> ViolationFinding:
        """Adjudicate a Zone Owner's accusation against retained evidence.

        The burden of proof is on the operator: no covering PoA, a PoA that
        failed verification, or a PoA whose bracketing pair cannot rule out
        entering the accusing zone all yield a violation finding.
        """
        zone_record = self.zones.lookup(report.zone_id)
        self.service.store.get_drone(report.drone_id)

        covering = [s for s in self._retained.get(report.drone_id, [])
                    if s.submission.claimed_start - 1.0 <= report.incident_time
                    <= s.submission.claimed_end + 1.0]
        if not covering:
            finding = ViolationFinding(
                drone_id=report.drone_id, zone_id=report.zone_id,
                incident_time=report.incident_time, violation=True,
                kind=ViolationKind.NO_POA,
                detail="no retained PoA covers the incident time")
            self.ledger.adjudicate(finding)
            self._record_incident(report, finding)
            return finding

        # Any covering submission that proves alibi for the accused zone at
        # the incident time clears the drone.
        best_detail = "all covering PoAs failed verification"
        best_kind = ViolationKind.MALFORMED_POA
        for retained in covering:
            status = retained.report.status
            if status not in (VerificationStatus.ACCEPTED,
                              VerificationStatus.INSUFFICIENT):
                best_kind = _STATUS_TO_KIND[status]
                best_detail = f"covering PoA was rejected: {status.value}"
                continue
            verdict = self._alibi_at(retained.poa, zone_record.zone,
                                     report.incident_time)
            if verdict:
                finding = ViolationFinding(
                    drone_id=report.drone_id, zone_id=report.zone_id,
                    incident_time=report.incident_time, violation=False,
                    detail="PoA proves the drone could not enter the zone")
                self._record_incident(report, finding)
                return finding
            best_kind = ViolationKind.INSUFFICIENT_ALIBI
            best_detail = ("PoA cannot rule out zone entrance at the "
                           "incident time")

        finding = ViolationFinding(
            drone_id=report.drone_id, zone_id=report.zone_id,
            incident_time=report.incident_time, violation=True,
            kind=best_kind, detail=best_detail)
        self.ledger.adjudicate(finding)
        self._record_incident(report, finding)
        return finding

    def _record_incident(self, report: IncidentReport,
                         finding: ViolationFinding) -> None:
        self.events.record(
            report.incident_time, "incident_adjudicated",
            drone_id=report.drone_id, zone_id=report.zone_id,
            violation=finding.violation,
            violation_kind=finding.kind.value if finding.kind else None)

    def _alibi_at(self, poa: ProofOfAlibi, zone: NoFlyZone,
                  incident_time: float) -> bool:
        """Whether the PoA pair bracketing the instant clears the zone."""
        samples = [entry.sample for entry in poa]
        for a, b in zip(samples, samples[1:]):
            if a.t <= incident_time <= b.t:
                return pair_is_sufficient(a, b, [zone], self.frame,
                                          self.vmax_mps, self.verifier.method)
        return False
