"""The attack matrix: every attack class against every incursion geometry.

:func:`build_world` stands up a complete deployment around one violation
scenario — Auditor server with the zone registered, a provisioned
TrustZone device, a genuine (non-compliant) flight flown through the real
sampler/TEE stack, plus the side material a realistic adversary holds: a
previously-signed compliant PoA from the *same* device (yesterday's
flight) and an accomplice key.  :func:`run_matrix` then executes every
attack in every world, checks the outcome against the attack's declared
expectations, and folds the result into a report whose shape mirrors the
chaos harness from :mod:`repro.faults.chaos` (``config`` / ``cells`` /
``invariants`` / ``ok``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.adversary.attacks import Attack, AttackResult, builtin_attacks
from repro.core.poa import EncryptedPoaRecord, ProofOfAlibi, encrypt_poa
from repro.core.protocol import (
    DroneRegistrationRequest,
    IncidentReport,
    PoaSubmission,
    ZoneRegistrationRequest,
)
from repro.core.verification import VerificationReport, VerificationStatus
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.crypto.schemes import SCHEME_CHAIN, SCHEME_MERKLE, SCHEME_RSA
from repro.drone.kinematics import DroneKinematics, simulate_waypoint_flight
from repro.errors import ConfigurationError
from repro.server.auditor import AliDroneServer
from repro.server.violations import ViolationFinding
from repro.sim.clock import DEFAULT_EPOCH
from repro.tee.attestation import provision_device
from repro.workloads.runner import run_policy
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import build_violation_variants


@dataclass
class AttackStats:
    """Matrix counters, exportable as ``adversary.*`` metrics."""

    attacks_run: int = 0
    rejected: int = 0
    false_accepts: int = 0
    unexpected_outcomes: int = 0
    by_outcome: dict[str, int] = field(default_factory=dict)

    def record(self, result: AttackResult, expected_ok: bool) -> None:
        self.attacks_run += 1
        self.rejected += not result.false_accept
        self.false_accepts += result.false_accept
        self.unexpected_outcomes += not expected_ok
        self.by_outcome[result.outcome] = \
            self.by_outcome.get(result.outcome, 0) + 1

    def to_dict(self) -> dict:
        return {
            "attacks_run": self.attacks_run,
            "rejected": self.rejected,
            "false_accepts": self.false_accepts,
            "unexpected_outcomes": self.unexpected_outcomes,
            "by_outcome": dict(sorted(self.by_outcome.items())),
        }


@dataclass
class AttackWorld:
    """One deployment an attack executes against."""

    scenario: Scenario
    seed: int
    key_bits: int
    device: object
    operator_key: RsaPrivateKey
    accomplice_key: RsaPrivateKey
    violation_poa: ProofOfAlibi
    violation_start: float
    violation_end: float
    incursion_start: float
    incursion_end: float
    old_poa: ProofOfAlibi
    old_start: float
    old_end: float
    area_m: float
    safe_y: float
    hash_name: str = "sha1"
    #: Sample-authentication scheme the genuine flights were flown under.
    scheme: str = SCHEME_RSA
    _identities: int = 0
    _chained: "tuple[ProofOfAlibi, float, float] | None" = \
        field(default=None, repr=False)
    _merkle: "tuple[ProofOfAlibi, float, float] | None" = \
        field(default=None, repr=False)
    server: AliDroneServer = field(init=False)
    zone_id: str = field(init=False)

    def __post_init__(self) -> None:
        self.fresh_identity()

    @property
    def frame(self):
        return self.scenario.frame

    @property
    def zone(self):
        return self.scenario.zones[0]

    @property
    def zone_center_xy(self) -> tuple[float, float]:
        return self.frame.to_local(self.zone.center)

    @property
    def incident_time(self) -> float:
        """Mid-incursion: when the Zone Owner spotted the drone."""
        return 0.5 * (self.incursion_start + self.incursion_end)

    def fresh_identity(self) -> str:
        """Stand up a pristine Auditor and register the accused drone.

        The drone database refuses to bind one TEE key to two identities,
        and each cell must adjudicate against only its own submissions —
        so isolation is per-server: every cell gets a fresh Auditor with
        the zone registered and no retained evidence from other cells.
        """
        self._identities += 1
        self.server = AliDroneServer(
            self.frame,
            rng=random.Random(self.seed * 1_000 + self._identities),
            encryption_key_bits=self.key_bits)
        self.zone_id = self.server.register_zone(ZoneRegistrationRequest(
            zone=self.zone, proof_of_ownership="deed-adversary",
            owner_name="zone-owner"))
        return self.server.register_drone(DroneRegistrationRequest(
            operator_public_key=self.operator_key.public_key,
            tee_public_key=self.device.tee_public_key,
            operator_name=f"adversary-{self._identities}"))

    def encrypt(self, poa: ProofOfAlibi,
                rng: random.Random | None = None) -> list[EncryptedPoaRecord]:
        """The Adapter's records for ``poa`` under this Auditor's key."""
        return encrypt_poa(poa, self.server.public_encryption_key,
                           rng=rng or random.Random(0xFEED))

    def submit(self, drone_id: str, poa: ProofOfAlibi, claimed_start: float,
               claimed_end: float, flight_id: str) -> VerificationReport:
        """Encrypt and upload a (forged) PoA through the real intake."""
        return self.submit_records(drone_id, self.encrypt(poa), poa,
                                   claimed_start, claimed_end, flight_id)

    def submit_records(self, drone_id: str,
                       records: list[EncryptedPoaRecord], poa: ProofOfAlibi,
                       claimed_start: float, claimed_end: float,
                       flight_id: str) -> VerificationReport:
        """Upload (forged) records carrying ``poa``'s scheme and finalizer."""
        submission = PoaSubmission(
            drone_id=drone_id, flight_id=flight_id, records=records,
            claimed_start=claimed_start, claimed_end=claimed_end,
            scheme=poa.scheme, finalizer=poa.finalizer)
        return self.server.receive_poa(submission, now=claimed_end)

    def adjudicate(self, drone_id: str) -> ViolationFinding:
        """The Zone Owner reports the incursion; the Auditor rules."""
        return self.server.handle_incident(IncidentReport(
            zone_id=self.zone_id, drone_id=drone_id,
            incident_time=self.incident_time))

    def chained_violation(self) -> "tuple[ProofOfAlibi, float, float]":
        """The violation flight authenticated under the hash-chain scheme.

        Chain-structural attacks need chained material regardless of the
        matrix's scheme.  When this world already flies chained, the
        genuine evidence serves; otherwise the scenario is re-flown once
        on a twin device (same serial and provisioning randomness, hence
        the same registered ``T+``) with ``scheme="hash-chain"``.
        """
        if self.scheme == SCHEME_CHAIN:
            return (self.violation_poa, self.violation_start,
                    self.violation_end)
        if self._chained is None:
            twin = provision_device(
                f"adv-dev-{self.key_bits}-{self.seed}",
                key_bits=self.key_bits,
                rng=random.Random(self.seed ^ 0x5EED))
            run = run_policy(self.scenario, "adaptive",
                             key_bits=self.key_bits, seed=self.seed,
                             device=twin, scheme=SCHEME_CHAIN)
            stats = run.result.stats
            self._chained = (run.result.poa, stats.start_time,
                             stats.end_time)
        return self._chained

    def merkle_violation(self) -> "tuple[ProofOfAlibi, float, float]":
        """The violation flight committed under the Merkle scheme.

        Disclosure-structural attacks need a Merkle-committed trace
        regardless of the matrix's scheme; mirrors
        :meth:`chained_violation` (twin device, same registered ``T+``).
        """
        if self.scheme == SCHEME_MERKLE:
            return (self.violation_poa, self.violation_start,
                    self.violation_end)
        if self._merkle is None:
            twin = provision_device(
                f"adv-dev-{self.key_bits}-{self.seed}",
                key_bits=self.key_bits,
                rng=random.Random(self.seed ^ 0x5EED))
            run = run_policy(self.scenario, "adaptive",
                             key_bits=self.key_bits, seed=self.seed,
                             device=twin, scheme=SCHEME_MERKLE)
            stats = run.result.stats
            self._merkle = (run.result.poa, stats.start_time,
                            stats.end_time)
        return self._merkle


def _incursion_interval(scenario: Scenario) -> tuple[float, float]:
    """When the true flight path is inside the zone, by direct scan."""
    frame = scenario.frame
    zone = scenario.zones[0]
    cx, cy = frame.to_local(zone.center)
    inside: list[float] = []
    t = scenario.t_start
    while t <= scenario.t_end:
        x, y = scenario.source.position_at(t)
        if (x - cx) ** 2 + (y - cy) ** 2 <= zone.radius_m ** 2:
            inside.append(t)
        t += 0.5
    if not inside:
        raise ConfigurationError(
            f"scenario {scenario.name!r} never enters its zone")
    return inside[0], inside[-1]


def _compliant_scenario(area_m: float, zone, frame) -> Scenario:
    """Yesterday's honest flight: skirts the zone with wide clearance."""
    safe_y = area_m / 2.0 + zone.radius_m + 250.0
    source = simulate_waypoint_flight(
        [(0.0, safe_y), (area_m, safe_y)], DEFAULT_EPOCH,
        kinematics=DroneKinematics())
    return Scenario(
        name="compliant-detour",
        description="compliant flight past the zone, one day earlier",
        frame=frame, zones=[zone], source=source,
        t_start=DEFAULT_EPOCH, t_end=DEFAULT_EPOCH + source.duration,
        gps_noise_std_m=1.0)


def build_world(scenario: Scenario, old_run, seed: int = 0,
                key_bits: int = 512,
                scheme: str = SCHEME_RSA) -> AttackWorld:
    """A full deployment with the violation flown and evidence in hand."""
    rng = random.Random(seed)
    run = run_policy(scenario, "adaptive", key_bits=key_bits, seed=seed,
                     device=provision_device(
                         f"adv-dev-{key_bits}-{seed}", key_bits=key_bits,
                         rng=random.Random(seed ^ 0x5EED)),
                     scheme=scheme)
    incursion = _incursion_interval(scenario)
    stats = run.result.stats
    old_stats = old_run.result.stats
    return AttackWorld(
        scenario=scenario,
        seed=seed,
        key_bits=key_bits,
        device=run.device,
        operator_key=generate_rsa_keypair(key_bits, rng=rng),
        accomplice_key=generate_rsa_keypair(key_bits, rng=rng),
        violation_poa=run.result.poa,
        violation_start=stats.start_time,
        violation_end=stats.end_time,
        incursion_start=incursion[0],
        incursion_end=incursion[1],
        old_poa=old_run.result.poa,
        old_start=old_stats.start_time,
        old_end=old_stats.end_time,
        area_m=2_000.0,
        safe_y=2_000.0 / 2.0 + scenario.zones[0].radius_m + 250.0,
        scheme=scheme)


@dataclass
class AttackCell:
    """One (attack, scenario) execution."""

    attack: str
    scenario: str
    expected: tuple[str, ...]
    result: AttackResult

    @property
    def expected_ok(self) -> bool:
        return self.result.outcome in self.expected

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "scenario": self.scenario,
            "outcome": self.result.outcome,
            "expected": sorted(self.expected),
            "expected_ok": self.expected_ok,
            "accepted": self.result.accepted,
            "cleared": self.result.cleared,
            "false_accept": self.result.false_accept,
            "detail": self.result.detail,
        }


@dataclass
class AttackReport:
    """The matrix verdict, shaped like the chaos harness report."""

    config: dict
    cells: list[AttackCell]
    controls: list[dict]
    stats: AttackStats

    @property
    def invariants(self) -> dict:
        return {
            "false_accepts": [
                f"{c.attack}/{c.scenario}" for c in self.cells
                if c.result.false_accept],
            "unexpected_outcomes": [
                {"cell": f"{c.attack}/{c.scenario}",
                 "outcome": c.result.outcome,
                 "expected": sorted(c.expected)}
                for c in self.cells if not c.expected_ok],
            "control_failures": [
                c["name"] for c in self.controls if not c["ok"]],
        }

    @property
    def ok(self) -> bool:
        inv = self.invariants
        return not (inv["false_accepts"] or inv["unexpected_outcomes"]
                    or inv["control_failures"])

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "cells": [c.to_dict() for c in self.cells],
            "controls": self.controls,
            "stats": self.stats.to_dict(),
            "invariants": self.invariants,
            "ok": self.ok,
        }


def _controls(world: AttackWorld) -> list[dict]:
    """Honest submissions proving the matrix is not vacuously rejecting.

    The genuine compliant PoA must be ACCEPTED outright, and the genuine
    violation PoA must be flagged at adjudication — if either fails, every
    cell verdict in this world is suspect.
    """
    compliant_id = world.fresh_identity()
    compliant = world.submit(compliant_id, world.old_poa, world.old_start,
                             world.old_end, flight_id="control-compliant")
    violating_id = world.fresh_identity()
    violating = world.submit(violating_id, world.violation_poa,
                             world.violation_start, world.violation_end,
                             flight_id="control-violation")
    finding = world.adjudicate(violating_id)
    return [
        {"name": f"compliant-accepted/{world.scenario.name}",
         "ok": compliant.status is VerificationStatus.ACCEPTED,
         "status": compliant.status.value},
        {"name": f"violation-flagged/{world.scenario.name}",
         "ok": bool(finding.violation),
         "status": violating.status.value,
         "kind": finding.kind.value if finding.kind else None},
    ]


def record_cell_telemetry(hub, cell: AttackCell, *, now: float) -> None:
    """Feed one finished attack cell into a streaming telemetry hub.

    Each attack execution counts as one ``audit.attacks`` event with
    per-outcome (``audit.attacks.<outcome>``) breakdown; an unexpected
    outcome marks ``audit.attacks.unexpected``, and a false accept —
    the harness knows ground truth — marks ``audit.false_accepts``,
    which the built-in page rule latches on.
    """
    hub.mark("audit.attacks", now=now)
    hub.mark(f"audit.attacks.{cell.result.outcome}", now=now)
    if not cell.expected_ok:
        hub.mark("audit.attacks.unexpected", now=now)
    if cell.result.false_accept:
        hub.mark("audit.false_accepts", now=now)


def run_matrix(scenarios: Sequence[Scenario] | None = None,
               attacks: Sequence[Attack] | None = None,
               seed: int = 0, key_bits: int = 512,
               stats: AttackStats | None = None,
               scheme: str = SCHEME_RSA,
               on_cell=None) -> AttackReport:
    """Execute every attack against every scenario world.

    ``on_cell`` is an optional callback invoked with each finished
    :class:`AttackCell` — the hook the live telemetry session uses to
    tick per completed cell.
    """
    attacks = list(attacks) if attacks is not None else builtin_attacks()
    scenarios = list(scenarios) if scenarios is not None \
        else build_violation_variants(seed)
    stats = stats if stats is not None else AttackStats()

    first = scenarios[0]
    old_scenario = _compliant_scenario(2_000.0, first.zones[0], first.frame)
    old_run = run_policy(old_scenario, "adaptive", key_bits=key_bits,
                         seed=seed,
                         device=provision_device(
                             f"adv-dev-{key_bits}-{seed}",
                             key_bits=key_bits,
                             rng=random.Random(seed ^ 0x5EED)),
                         scheme=scheme)

    cells: list[AttackCell] = []
    controls: list[dict] = []
    for scenario in scenarios:
        world = build_world(scenario, old_run, seed=seed,
                            key_bits=key_bits, scheme=scheme)
        controls.extend(_controls(world))
        for attack in attacks:
            rng = random.Random(f"{seed}/{attack.name}/{scenario.name}")
            cell = AttackCell(attack=attack.name, scenario=scenario.name,
                              expected=tuple(attack.expected_for(scheme)),
                              result=attack.execute(world, rng))
            stats.record(cell.result, cell.expected_ok)
            cells.append(cell)
            if on_cell is not None:
                on_cell(cell)

    return AttackReport(
        config={
            "seed": seed,
            "key_bits": key_bits,
            "scheme": scheme,
            "attacks": [a.name for a in attacks],
            "scenarios": [s.name for s in scenarios],
        },
        cells=cells,
        controls=controls,
        stats=stats)
