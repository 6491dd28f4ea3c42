"""The benchmark's three workloads: inputs built from a seed, never seen.

Every workload provisions a fleet, registers it into a fresh on-disk
:class:`repro.server.store.FlightStore`, and builds drone-signed,
auditor-encrypted submissions.  The program under test receives only
these inputs.

A run is a fixed number of *cycles*, spread over its ``--seconds``.  Each
cycle builds its own fresh flights, runs a short open loop on them, then
drains a fresh backlog (see ``harness.py``).  Spreading every kind of
measurement over the whole run, instead of building everything first and
timing each phase once, keeps a few seconds of load from other processes
on the machine from moving a whole metric.  The cycle count depends only
on ``--seconds``, so a seed fixes every input and every due instant.

Why each workload, and the layer it is there to expose:

``fleet-cold``
    Honest fleet, every submission fresh; ``rsa-v15``, ``hash-chain``
    and ``merkle-disclosure`` round-robin over the drones; 1024-bit
    auditor and TEE keys, 20 samples per flight, one 50 m zone, no
    admission guard; open loop at 6 submissions/s, about a quarter of the
    drain capacity.  This is the cold audit path the hybrid-envelope, pool
    and cache items target: per-record PKCS#1 decrypt dominates the audit,
    the pipeline is a few percent and admission does nothing.
``corridor-dense``
    Long compliant flights along ``repro.workloads.national``'s corridor
    (5 km, 1000 packed zones, one fixed map) flown through the real drone
    path: a 5 Hz receiver, the adaptive sampler and the TEE behind the
    Adapter, one provisioned device and seed per drone; ``rsa-v15``,
    512-bit keys, 8 flights/s.  The drone layer does most of the work here
    and none of ``fleet-cold``'s; on the auditor side the pipeline's share
    is largest, so geometry and zone-index changes show here, not on a
    single zone.
``hostile-flood``
    ``repro.fleetsim.traffic`` classes: honest Poisson at 40/s (512-bit
    keys, 4 samples, the same three-scheme round-robin), adversary shapes
    at 2/s, and two flooders bursting 700 submissions in one storm second
    per cycle, alternating byte-identical re-uploads with undecryptable
    junk; fair-share admission as ``benchmarks/bench_fleet.py`` configures
    it, bounded queue.  Most events end at admission and a few on the
    store's dedup path, so an admission or intake change shows here, and a
    store change that helps fresh inserts but costs duplicate probes (or
    the reverse) shows against ``fleet-cold``.

Predicted layer -> end-to-end metric -> workload map (what an
optimisation of each layer should move, and where):

=================================  =================================  ==============
per-layer metric                   end-to-end metric                  workload
=================================  =================================  ==============
drone.sample_ms                    drone_ms_per_flight                corridor-dense
drone.tee_sign_ms (per scheme)     drone_ms_per_flight                all
drone.encrypt_ms                   drone_ms_per_flight,               all
                                   uplink_bytes_per_flight
drone.auth_samples_per_flight      uplink_bytes_per_flight,           all
                                   audit_throughput_sps
drone.keygen_s                     setup_s                            all
admission (per-call us, shares)    verdict_p50_ms                     hostile-flood
admission.denied_ratio.<class>     accepted_ratio                     hostile-flood
service.queue_wait_*_ms            verdict_tail_ms                    fleet-cold,
                                                                      hostile-flood
service.drain_batch_size           audit_throughput_sps               all
store.put_ms, store.dedup_ratio    verdict_p50_ms                     hostile-flood
store.verdict_ms                   audit_throughput_sps               fleet-cold
engine.decrypt_ms/_ops             audit_throughput_sps,              fleet-cold
                                   verdict_p50_ms
engine.authenticate_ms (scheme)    same                               fleet-cold
engine.payload_cache_hit_ratio     nothing (fresh inputs)             all
engine.decrypt_failed              (junk accounting)                  hostile-flood
pipeline.<stage>_ms                audit_throughput_sps               corridor-dense
pipeline.rejections.<reason>       (verdict accounting)               hostile-flood
engine.zone_index_builds           setup-like, once per zone set      all
=================================  =================================  ==============

Seed-state prediction to check against the first traced run: engine
decrypt is the largest auditor-side self time on ``fleet-cold`` at 80% or
more, and ``corridor-dense`` has the largest pipeline share of the three.
"""

from __future__ import annotations

import gc
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Callable

import repro.fleetsim.traffic as traffic

from repro.core.nfz import NoFlyZone
from repro.core.poa import encrypt_poa
from repro.core.protocol import PoaSubmission
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.fleetsim.traffic import (CLASS_HONEST, adversary_stream,
                                    flood_stream, honest_stream,
                                    merge_streams)
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.server.admission import AdmissionScheduler, build_scheduler
from repro.server.store import FlightStore
from repro.sim.clock import DEFAULT_EPOCH
from repro.tee.attestation import provision_device
from repro.workloads.fleet import provision_fleet
from repro.workloads.national import build_national_scenario
from repro.workloads.runner import run_policy

from ledger import swap

#: Virtual instant of the first cycle's start; admission sees event instants
#: on this clock, which advances by one cycle span per cycle.
T0 = DEFAULT_EPOCH
#: Schemes assigned round-robin over an honest fleet.
SCHEMES = ("rsa-v15", "hash-chain", "merkle-disclosure")
FRAME_ORIGIN = GeoPoint(40.1000, -88.2200)
#: Zone-field seed of ``corridor-dense``'s national map.
CORRIDOR_MAP_SEED = 0


@dataclass(frozen=True)
class Shape:
    """One workload's cycle: arrival rate, phase lengths, expected wall time.

    A cycle's open loop covers ``open_s`` seconds of arrivals at
    ``rate_hz`` honest submissions per second; its backlog is the next
    ``backlog_s`` seconds of honest arrivals, submitted at once.
    ``cycle_s`` is the wall time a cycle takes (building, open loop,
    draining) on a 2-core x86 host while other tenants slow it down, which
    sets how many cycles fit in a run; on a quiet host a run ends early.
    """

    rate_hz: float
    open_s: float
    backlog_s: float
    cycle_s: float

    @property
    def span_s(self) -> float:
        """Virtual seconds one cycle's arrivals cover."""
        return self.open_s + self.backlog_s


SHAPES = {
    # 6/s is about a quarter of the 23-32/s drain capacity, so the median
    # latency is mostly service time, not queueing; ~5 backlog flights.
    "fleet-cold": Shape(rate_hz=6.0, open_s=1.0, backlog_s=0.85,
                        cycle_s=1.9),
    # Each flight costs 0.15-0.25 s to build, which bounds the flights a
    # cycle can hold: ~8 in the open loop (a quarter of the drain
    # capacity) and ~4 in the backlog.
    "corridor-dense": Shape(rate_hz=8.0, open_s=1.0, backlog_s=0.5,
                            cycle_s=4.0),
    # One 700-submission storm second per open loop; ~100 backlog flights,
    # which fit the bounded queue.
    "hostile-flood": Shape(rate_hz=40.0, open_s=2.5, backlog_s=2.5,
                           cycle_s=3.6),
}


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles in a run of ``seconds``: a function of the duration only."""
    return max(2, round(seconds / SHAPES[workload].cycle_s))


def _cycle_seed(seed: int, index: int) -> int:
    """Stream seed of cycle ``index``: distinct per (seed, cycle) pair."""
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class Event:
    """One submission ``due`` seconds after its cycle's open loop starts."""

    due: float
    #: Virtual instant the admission scheduler sees as ``now``.
    at: float
    submission: PoaSubmission
    region: str = ""
    traffic_class: str = CLASS_HONEST
    #: Ground truth: ACCEPTING this submission would be a false accept.
    must_reject: bool = False


@dataclass
class Cycle:
    """One cycle's inputs and what building them cost."""

    #: Virtual instant of the cycle's start.
    t0: float
    #: Length of the open loop's arrival window, seconds.
    open_s: float
    open_loop: list[Event]
    #: Fresh submissions submitted at once after the open loop, then
    #: drained by one ``drain`` call.
    backlog: list[Event]
    #: Scheme and wall time of each honest flight build (sample, sign,
    #: encrypt).
    flight_s: list[tuple[str, float]]

    @property
    def events(self) -> list[Event]:
        """Open-loop events, then the backlog."""
        return self.open_loop + self.backlog


@dataclass
class Workload:
    """Everything one workload hands the program, plus build accounting."""

    frame: LocalFrame
    zones: list[NoFlyZone]
    encryption_key: RsaPrivateKey
    #: Closed store file holding the registered fleet; each service opens a
    #: copy of it.
    store_template: pathlib.Path
    admission: Callable[[], AdmissionScheduler | None]
    queue_capacity: int
    keygen_s: float
    cycles: int
    #: Cycle index -> that cycle's inputs, built on demand.
    build_cycle: Callable[[int], Cycle]
    #: The payload cache must never hit (``fleet-cold``'s guard).
    cold_cache: bool = False


def _register_into(store: FlightStore):
    def register(operator_public, tee_public, name: str) -> str:
        return store.register_drone(operator_public, tee_public,
                                    operator_name=name)
    return register


def _origin_zone(frame: LocalFrame) -> list[NoFlyZone]:
    center = frame.to_geo(0.0, 0.0)
    return [NoFlyZone(center.lat, center.lon, 50.0)]


def _split(events, t0: float,
           open_s: float) -> tuple[list[Event], list[Event]]:
    """Events due in the cycle's open loop, and the backlog after it."""
    converted = [Event(due=e.at - t0, at=e.at, submission=e.submission,
                       region=e.region, traffic_class=e.traffic_class,
                       must_reject=e.must_reject)
                 for e in events]
    return ([e for e in converted if e.due < open_s],
            [e for e in converted if e.due >= open_s])


def _timing_flights(durations: list[tuple[str, float]]):
    """Time each flight the fleetsim generators build in this scope."""
    inner = traffic.build_flight_submission

    def timed(*args, **kwargs):
        start = time.perf_counter()
        submission = inner(*args, **kwargs)
        durations.append((submission.scheme, time.perf_counter() - start))
        return submission

    return swap(traffic, "build_flight_submission", timed)


def build_fleet_cold(seed: int, seconds: float,
                     workdir: pathlib.Path) -> Workload:
    shape = SHAPES["fleet-cold"]
    frame = LocalFrame(FRAME_ORIGIN)
    store_path = workdir / "template.sqlite"
    with FlightStore(store_path) as store:
        start = time.perf_counter()
        encryption_key = generate_rsa_keypair(1024,
                                              rng=random.Random(seed))
        fleet = provision_fleet(_register_into(store), drones=6,
                                key_bits=1024, seed=seed)
        keygen_s = time.perf_counter() - start
    scheme_of = {drone.drone_id: SCHEMES[i % len(SCHEMES)]
                 for i, drone in enumerate(fleet)}

    def build_cycle(index: int) -> Cycle:
        t0 = T0 + index * shape.span_s
        flight_s: list[tuple[str, float]] = []
        with _timing_flights(flight_s):
            stream = honest_stream(
                fleet, encryption_key.public_key, frame=frame,
                seed=_cycle_seed(seed, index), rate_hz=shape.rate_hz,
                duration_s=shape.span_s, samples=20, t0=t0,
                scheme_of=scheme_of)
        open_loop, backlog = _split(stream, t0, shape.open_s)
        return Cycle(t0=t0, open_s=shape.open_s, open_loop=open_loop,
                     backlog=backlog, flight_s=flight_s)

    return Workload(frame=frame, zones=_origin_zone(frame),
                    encryption_key=encryption_key,
                    store_template=store_path, admission=lambda: None,
                    queue_capacity=4096, keygen_s=keygen_s,
                    cycles=cycle_count("fleet-cold", seconds),
                    build_cycle=build_cycle, cold_cache=True)


def build_corridor_dense(seed: int, seconds: float, workdir: pathlib.Path,
                         ledger) -> Workload:
    shape = SHAPES["corridor-dense"]
    cycles = cycle_count("corridor-dense", seconds)
    # One fixed national map for every seed, as airspace is: the seed
    # varies the flights, not how many zones crowd the corridor.
    scenario = build_national_scenario(seed=CORRIDOR_MAP_SEED, n_zones=1000,
                                       corridor_length_m=5000.0)
    store_path = workdir / "template.sqlite"
    # Poisson arrivals conditioned on their count: every cycle flies the
    # expected number of flights at uniformly drawn instants.  A free count
    # would move the run's length and memory with the seed (each flight
    # costs 0.15-0.25 s to build and leaves ~0.5 MB resident).
    per_cycle = round(shape.rate_hz * shape.span_s)
    schedule = []  # per cycle: the due instants of its flights
    for index in range(cycles):
        rng = random.Random(_cycle_seed(seed, index) * 0x5EED + 71)
        schedule.append(sorted(rng.uniform(0.0, shape.span_s)
                               for _ in range(per_cycle)))
    # A device flies once (its GPS stays attached), so every flight gets
    # its own drone, provisioned and registered up front.
    drones = []
    with FlightStore(store_path) as store:
        start = time.perf_counter()
        encryption_key = generate_rsa_keypair(512, rng=random.Random(seed))
        vendor_key = generate_rsa_keypair(512, rng=random.Random(seed + 1))
        operator_key = generate_rsa_keypair(512,
                                            rng=random.Random(seed + 2))
        for index in range(cycles * per_cycle):
            flight_seed = seed * 100_003 + index
            device = provision_device(f"corridor-{seed}-{index}",
                                      key_bits=512,
                                      rng=random.Random(flight_seed),
                                      vendor_key=vendor_key)
            drone_id = store.register_drone(operator_key.public_key,
                                            device.tee_public_key,
                                            operator_name="corridor-op")
            drones.append((device, drone_id, flight_seed))
        keygen_s = time.perf_counter() - start

    def build_cycle(index: int) -> Cycle:
        t0 = T0 + index * shape.span_s
        first = index * per_cycle
        flight_s = []
        events = []
        for offset, due in enumerate(schedule[index]):
            device, drone_id, flight_seed = drones[first + offset]
            # A flown device keeps its receiver, and with it the whole trace.
            drones[first + offset] = None
            start = time.perf_counter()
            submission = ledger.call(
                "drone.flight", _fly_corridor, scenario, device, drone_id,
                first + offset, flight_seed, encryption_key, ledger)
            flight_s.append((submission.scheme, time.perf_counter() - start))
            events.append(Event(due=due, at=t0 + due, submission=submission))
            # A flight leaves megabytes of cyclic garbage (receiver trace,
            # sampler state); collecting it here keeps the peak memory from
            # depending on when the collector happens to run.
            gc.collect()
        return Cycle(t0=t0, open_s=shape.open_s,
                     open_loop=[e for e in events if e.due < shape.open_s],
                     backlog=[e for e in events if e.due >= shape.open_s],
                     flight_s=flight_s)

    return Workload(frame=scenario.frame, zones=list(scenario.zones),
                    encryption_key=encryption_key,
                    store_template=store_path, admission=lambda: None,
                    queue_capacity=4096, keygen_s=keygen_s, cycles=cycles,
                    build_cycle=build_cycle)


def _fly_corridor(scenario, device, drone_id: str, index: int,
                  flight_seed: int, encryption_key: RsaPrivateKey,
                  ledger) -> PoaSubmission:
    run = run_policy(scenario, "adaptive", update_rate_hz=5.0, key_bits=512,
                     seed=flight_seed, device=device)
    poa = run.result.poa
    records = ledger.call("drone.encrypt", encrypt_poa, poa,
                          encryption_key.public_key,
                          rng=random.Random(flight_seed))
    return PoaSubmission(drone_id=drone_id, flight_id=f"corridor-{index}",
                         records=records, claimed_start=poa[0].sample.t,
                         claimed_end=poa[len(poa) - 1].sample.t,
                         scheme=poa.scheme, finalizer=poa.finalizer)


def build_hostile_flood(seed: int, seconds: float,
                        workdir: pathlib.Path) -> Workload:
    shape = SHAPES["hostile-flood"]
    frame = LocalFrame(FRAME_ORIGIN)
    store_path = workdir / "template.sqlite"
    with FlightStore(store_path) as store:
        start = time.perf_counter()
        encryption_key = generate_rsa_keypair(512, rng=random.Random(seed))
        fleet = provision_fleet(_register_into(store), drones=24,
                                key_bits=512, seed=seed)
        flooders = provision_fleet(_register_into(store), drones=2,
                                   key_bits=512, seed=seed + 424_243)
        keygen_s = time.perf_counter() - start
    public = encryption_key.public_key
    scheme_of = {drone.drone_id: SCHEMES[i % len(SCHEMES)]
                 for i, drone in enumerate(fleet)}

    def build_cycle(index: int) -> Cycle:
        t0 = T0 + index * shape.span_s
        stream_seed = _cycle_seed(seed, index)
        flight_s: list[tuple[str, float]] = []
        with _timing_flights(flight_s):
            honest = honest_stream(
                fleet, public, frame=frame, seed=stream_seed,
                rate_hz=shape.rate_hz, duration_s=shape.span_s, samples=4,
                t0=t0, scheme_of=scheme_of)
        # Adversaries and the flood only run in the open loop; its one
        # whole second after the start is a storm second.
        adversary = adversary_stream(fleet, public, frame=frame,
                                     seed=stream_seed, rate_hz=2.0,
                                     duration_s=shape.open_s, samples=4,
                                     t0=t0, scheme_of=scheme_of)
        flood = flood_stream(flooders, public, frame=frame, seed=stream_seed,
                             burst_per_s=700, storm_period_s=10.0,
                             duration_s=shape.open_s, samples=4, t0=t0)
        open_loop, backlog = _split(merge_streams(honest, adversary, flood),
                                    t0, shape.open_s)
        return Cycle(t0=t0, open_s=shape.open_s, open_loop=open_loop,
                     backlog=backlog, flight_s=flight_s)

    def admission() -> AdmissionScheduler | None:
        return build_scheduler("fair-share", rate_per_s=400.0, burst=64.0,
                               drone_rate_per_s=5.0, drone_burst=8.0)

    return Workload(frame=frame, zones=_origin_zone(frame),
                    encryption_key=encryption_key,
                    store_template=store_path, admission=admission,
                    queue_capacity=256, keygen_s=keygen_s,
                    cycles=cycle_count("hostile-flood", seconds),
                    build_cycle=build_cycle)


#: Workload name -> builder ``(seed, seconds, workdir, ledger) -> Workload``.
BUILDERS = {
    "fleet-cold": lambda seed, seconds, workdir, ledger:
        build_fleet_cold(seed, seconds, workdir),
    "corridor-dense": build_corridor_dense,
    "hostile-flood": lambda seed, seconds, workdir, ledger:
        build_hostile_flood(seed, seconds, workdir),
}
