"""Poisson fleet arrivals: sustained submission traffic for the service.

The field-study scenarios model *one* flight in detail; the auditor
service needs the opposite — many drones, each contributing small honest
flights, arriving as a memoryless stream.  This module builds that
workload deterministically:

* :func:`provision_fleet` — generate per-drone TEE/operator keypairs and
  register them against any auditor (a callback, so the same fleet drives
  :class:`repro.server.service.AuditorService`,
  :class:`repro.server.auditor.AliDroneServer`, or a bare key table).
* :func:`build_flight_submission` — one signed, encrypted PoA submission
  for a drone: a short straight traverse well clear of the zone set, so
  every honest submission verifies ACCEPTED.
* :func:`poisson_arrivals` — exponential inter-arrival times at a target
  rate over a duration, drones drawn uniformly, flight ids unique per
  (drone, flight) so re-used trace records stay distinct submissions.

Everything derives from explicit seeds; two calls with the same
parameters produce byte-identical submissions and identical arrival
instants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.poa import ProofOfAlibi, SignedSample, encrypt_poa
from repro.core.protocol import PoaSubmission
from repro.core.samples import GpsSample
from repro.crypto.envelope import RECORD_MODE_ENVELOPE
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair
from repro.crypto.schemes import SCHEME_RSA, authenticate_payloads
from repro.geo.geodesy import LocalFrame
from repro.sim.clock import DEFAULT_EPOCH

#: Fleet traces start this far east of the frame origin — far outside the
#: default 50 m zone disk at the origin, so honest flights stay honest.
TRACE_OFFSET_M = 300.0


@dataclass(frozen=True)
class FleetDrone:
    """One provisioned fleet member."""

    drone_id: str
    tee_key: RsaPrivateKey
    operator_key: RsaPrivateKey
    region: str


@dataclass(frozen=True)
class FleetArrival:
    """One Poisson arrival: a submission hitting intake at ``at``."""

    at: float
    submission: PoaSubmission
    region: str


def provision_fleet(register: Callable[[RsaPublicKey, RsaPublicKey, str], str],
                    *, drones: int, key_bits: int = 512, seed: int = 0,
                    regions: int = 4) -> list[FleetDrone]:
    """Generate and register a fleet; returns the provisioned members.

    ``register(operator_public, tee_public, name) -> drone_id`` abstracts
    the auditor: wrap whichever registration API the target exposes.
    Drones are spread round-robin over ``regions`` zone-regions named
    ``region-<i>`` (the shard layer's primary partition key).
    """
    fleet = []
    for i in range(drones):
        tee_key = generate_rsa_keypair(key_bits,
                                       rng=random.Random(seed * 100_003 + i))
        operator_key = generate_rsa_keypair(
            key_bits, rng=random.Random(seed * 100_003 + 50_000 + i))
        drone_id = register(operator_key.public_key, tee_key.public_key,
                            f"fleet-op-{i}")
        fleet.append(FleetDrone(drone_id=drone_id, tee_key=tee_key,
                                operator_key=operator_key,
                                region=f"region-{i % max(1, regions)}"))
    return fleet


def build_flight_submission(drone: FleetDrone,
                            encryption_public_key: RsaPublicKey, *,
                            frame: LocalFrame, flight_index: int,
                            samples: int, start: float,
                            rng: random.Random,
                            hash_name: str = "sha1",
                            scheme: str = SCHEME_RSA,
                            record_mode: str = RECORD_MODE_ENVELOPE,
                            ) -> PoaSubmission:
    """One honest signed + encrypted submission for a fleet drone.

    The trace is a 1 Hz straight traverse starting ``TRACE_OFFSET_M``
    east of the frame origin, jittered per flight; with the default zone
    layouts (a disk at the origin) it verifies ACCEPTED.  ``scheme``
    selects the sample-authentication backend, so the same fleet can
    exercise per-sample RSA, batch, chained, or Merkle intake;
    ``record_mode`` picks the record encryption (see :func:`encrypt_poa`).
    """
    payloads = []
    y0 = rng.uniform(-40.0, 40.0)
    for k in range(samples):
        point = frame.to_geo(TRACE_OFFSET_M + 15.0 * k
                             + rng.uniform(0.0, 4.0), y0)
        sample = GpsSample(lat=point.lat, lon=point.lon, t=start + k)
        payloads.append(sample.to_signed_payload())
    blobs, finalizer = authenticate_payloads(drone.tee_key, payloads,
                                             scheme, hash_name=hash_name,
                                             rng=rng)
    poa = ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=scheme)
         for payload, blob in zip(payloads, blobs)),
        scheme=scheme, finalizer=finalizer)
    records = encrypt_poa(poa, encryption_public_key, rng=rng,
                          record_mode=record_mode)
    return PoaSubmission(
        drone_id=drone.drone_id,
        flight_id=f"flight-{drone.drone_id}-{flight_index}",
        records=records, claimed_start=start,
        claimed_end=start + max(samples - 1, 0),
        scheme=scheme, finalizer=finalizer)


def build_violation_submission(drone: FleetDrone,
                               encryption_public_key: RsaPublicKey, *,
                               frame: LocalFrame, flight_index: int,
                               samples: int, start: float,
                               rng: random.Random,
                               hash_name: str = "sha1",
                               scheme: str = SCHEME_RSA) -> PoaSubmission:
    """A *genuinely violating* signed + encrypted submission.

    The trace is a truthfully-signed 1 Hz traverse straight through the
    frame origin — i.e. through the default zone disk — so the TEE
    attests exactly what the drone flew and the drone flew through the
    NFZ.  Accepting this submission as a clean alibi would be a false
    accept: the fleet invariant suite uses it as the ground-truth
    "incursion" attack class (the auditor must return anything *but*
    ACCEPTED — with full coverage the verdict is an infeasible/violation
    rejection, and never a clean alibi).
    """
    payloads = []
    y0 = rng.uniform(-10.0, 10.0)
    half = max(samples - 1, 1) / 2.0
    for k in range(samples):
        # Walk east through the origin: x sweeps roughly [-15*half, 15*half].
        point = frame.to_geo(15.0 * (k - half) + rng.uniform(0.0, 4.0), y0)
        sample = GpsSample(lat=point.lat, lon=point.lon, t=start + k)
        payloads.append(sample.to_signed_payload())
    blobs, finalizer = authenticate_payloads(drone.tee_key, payloads,
                                             scheme, hash_name=hash_name,
                                             rng=rng)
    poa = ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=scheme)
         for payload, blob in zip(payloads, blobs)),
        scheme=scheme, finalizer=finalizer)
    records = encrypt_poa(poa, encryption_public_key, rng=rng)
    return PoaSubmission(
        drone_id=drone.drone_id,
        flight_id=f"flight-{drone.drone_id}-{flight_index}",
        records=records, claimed_start=start,
        claimed_end=start + max(samples - 1, 0),
        scheme=scheme, finalizer=finalizer)


def poisson_arrivals(fleet: Sequence[FleetDrone],
                     encryption_public_key: RsaPublicKey, *,
                     frame: LocalFrame, seed: int = 0,
                     rate_hz: float = 2.0, duration_s: float = 60.0,
                     samples: int = 6, t0: float = DEFAULT_EPOCH,
                     hash_name: str = "sha1",
                     scheme: str = SCHEME_RSA) -> list[FleetArrival]:
    """A Poisson stream of fleet submissions over ``[t0, t0 + duration_s)``.

    Inter-arrival gaps are exponential with mean ``1 / rate_hz``; the
    submitting drone is drawn uniformly per arrival; each drone's flights
    are numbered in its own arrival order.  The flight itself is stamped
    to *end* at the arrival instant (a drone uploads right after
    landing), so ``claimed_end <= at`` always holds.
    """
    if not fleet:
        return []
    rng = random.Random(seed * 0x5EED + 1)
    arrivals: list[FleetArrival] = []
    flight_counts = {drone.drone_id: 0 for drone in fleet}
    t = t0
    while True:
        t += rng.expovariate(rate_hz)
        if t >= t0 + duration_s:
            break
        drone = fleet[rng.randrange(len(fleet))]
        index = flight_counts[drone.drone_id]
        flight_counts[drone.drone_id] = index + 1
        submission = build_flight_submission(
            drone, encryption_public_key, frame=frame, flight_index=index,
            samples=samples, start=t - samples, rng=rng,
            hash_name=hash_name, scheme=scheme)
        arrivals.append(FleetArrival(at=t, submission=submission,
                                     region=drone.region))
    return arrivals
