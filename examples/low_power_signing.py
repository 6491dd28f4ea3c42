#!/usr/bin/env python3
"""The two §VII-A1 answers to the RSA bottleneck, end to end.

Table II shows a 2048-bit TEE key cannot keep up with 5 Hz sampling on the
Pi.  The paper sketches two remedies; this example runs both through the
real TEE and compares them with the baseline:

  (a) **symmetric signing** — a per-flight key agreed between the TEE and
      the Auditor via Diffie-Hellman (the operator only relays public
      values), samples authenticated with HMAC-SHA256;
  (b) **sign-all-at-once** — the ``rsa-batch`` scheme: the GPS Sampler TA
      keeps the flight's payloads in secure memory and signs the whole
      trace once at flight end; the Auditor's pipeline verifies it.

Run:  python examples/low_power_signing.py
"""

import random
import time

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.verification import PoaVerifier
from repro.extensions import (
    CMD_GET_GPS_AUTH_SYM,
    CMD_INIT_FLIGHT_KEY,
    AuditorFlightKey,
    SymmetricGpsSamplerTA,
    SymmetricSignedSample,
    install_extension_ta,
)
from repro.crypto.rsa import generate_rsa_keypair
from repro.crypto.schemes import SCHEME_BATCH
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.perf.costs import RASPBERRY_PI_3
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.tee.attestation import provision_device
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)

T0 = DEFAULT_EPOCH
N_SAMPLES = 60  # a 1 Hz minute of flight


def build_device(vendor_key, frame, seed):
    device = provision_device(f"lp-drone-{seed}", key_bits=1024,
                              rng=random.Random(seed),
                              vendor_key=vendor_key)
    source = WaypointSource([(T0, 0.0, 0.0), (T0 + 120.0, 600.0, 0.0)])
    clock = SimClock(T0)
    receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                    start_time=T0, seed=seed)
    device.attach_gps(receiver, clock)
    return device, clock


def main() -> None:
    frame = LocalFrame(GeoPoint(40.1000, -88.2200))
    vendor = generate_rsa_keypair(1024, rng=random.Random(1))
    far = frame.to_geo(0.0, 30_000.0)
    zones = [NoFlyZone(far.lat, far.lon, 100.0)]

    # --- baseline: one RSA signature per sample ---------------------------
    device, clock = build_device(vendor, frame, seed=11)
    sid = device.client.open_session(GPS_SAMPLER_UUID)
    start = time.perf_counter()
    for _ in range(N_SAMPLES):
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
    baseline_s = time.perf_counter() - start
    baseline_signs = device.core.op_counters["rsa_sign_1024"]

    # --- (a) symmetric: DH flight key inside the TEE, HMAC per sample -----
    device, clock = build_device(vendor, frame, seed=12)
    install_extension_ta(device, SymmetricGpsSamplerTA, vendor)
    sid = device.client.open_session(SymmetricGpsSamplerTA.UUID,
                                     {"dh_seed": 5})
    auditor = AuditorFlightKey(b"flight-sym", rng=random.Random(6))
    ta_public = device.client.invoke(sid, CMD_INIT_FLIGHT_KEY, {
        "auditor_public_value": auditor.public_value,
        "flight_id": b"flight-sym"})
    auditor.complete(ta_public)
    entries = []
    start = time.perf_counter()
    for _ in range(N_SAMPLES):
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)
        entries.append(SymmetricSignedSample(payload=out["payload"],
                                             tag=out["tag"]))
    symmetric_s = time.perf_counter() - start
    trace = auditor.verify_entries(entries)

    # --- (b) batch: buffer in secure memory, sign once --------------------
    device, clock = build_device(vendor, frame, seed=13)
    sid = device.client.open_session(GPS_SAMPLER_UUID,
                                     {"scheme": SCHEME_BATCH})
    start = time.perf_counter()
    device.client.invoke(sid, CMD_START_FLIGHT)
    batch = []
    for _ in range(N_SAMPLES):
        clock.advance(1.0)
        batch.append(SignedSample.from_ta_output(
            device.client.invoke(sid, CMD_GET_GPS_AUTH)))
    out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
    batch_s = time.perf_counter() - start
    batch_signs = device.core.op_counters["rsa_sign_1024"]
    poa = ProofOfAlibi(batch, scheme=SCHEME_BATCH, finalizer=out["finalizer"])
    report = PoaVerifier(frame).verify(poa, device.tee_public_key, zones)

    pi = RASPBERRY_PI_3
    print(f"{N_SAMPLES} samples through the real TEE, three signing modes:\n")
    print(f"  {'mode':<22} {'this machine':>13} {'modelled Pi (1024b)':>20} "
          f"{'auditor verdict':>16}")
    print(f"  {'per-sample RSA':<22} {baseline_s * 1e3:>10.1f} ms "
          f"{baseline_signs * pi.sign_cost(1024) * 1e3:>17.0f} ms "
          f"{'(baseline)':>16}")
    print(f"  {'symmetric HMAC (a)':<22} {symmetric_s * 1e3:>10.1f} ms "
          f"{'~0':>17} ms {len(trace):>12} ok")
    print(f"  {'sign-once batch (b)':<22} {batch_s * 1e3:>10.1f} ms "
          f"{batch_signs * pi.sign_cost(1024) * 1e3:>17.0f} ms "
          f"{report.status.value:>16}")
    print("\nboth remedies remove the per-sample RSA cost that produced "
          "Table II's '-' cells at 2048 bits")

    assert report.compliant and len(trace) == N_SAMPLES
    assert len(poa) == N_SAMPLES and batch_signs == 1


if __name__ == "__main__":
    main()
