"""Every registered scheme flown through the real TEE and audited.

One adaptive flight per scheme goes through the GPS Sampler TA and the
Adapter, is encrypted for the Auditor, and is audited by the durable
``AuditorService``.  The verdict must be ACCEPTED, identical to the
independent reference verifier, and the TA must have spent the scheme's
per-flight RSA budget.
"""

import random

import pytest

from repro.conformance.reference import reference_verify
from repro.core.poa import decrypt_poa, encrypt_poa
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.crypto.rsa import generate_rsa_keypair
from repro.crypto.schemes import scheme_ids
from repro.server.service import AuditorService
from repro.workloads import run_policy
from repro.workloads.synthetic import build_random_scenario
from tests.tee.test_gps_sampler import RSA_OPS_PER_FLIGHT


@pytest.fixture(scope="module")
def scenario():
    return build_random_scenario(seed=3, n_zones=2, area_m=600.0)


@pytest.fixture(scope="module")
def encryption_key():
    return generate_rsa_keypair(512, rng=random.Random(707))


@pytest.mark.parametrize("scheme", scheme_ids())
def test_tee_flown_flight_is_accepted(scenario, encryption_key, make_device,
                                      other_key, scheme):
    device = make_device(seed=11)
    run = run_policy(scenario, "adaptive", key_bits=512, seed=11,
                     device=device, scheme=scheme)
    poa = run.result.poa
    assert poa.scheme == scheme and len(poa) >= 2
    assert (device.core.op_counters["rsa_sign_512"]
            == RSA_OPS_PER_FLIGHT[scheme](len(poa)))

    service = AuditorService(scenario.frame, encryption_key=encryption_key)
    for zone in scenario.zones:
        service.register_zone(zone)
    drone_id = service.register_drone(DroneRegistrationRequest(
        operator_public_key=other_key.public_key,
        tee_public_key=device.tee_public_key))
    records = encrypt_poa(poa, service.public_encryption_key,
                          rng=random.Random(12))
    submission = PoaSubmission(
        drone_id=drone_id, flight_id=f"flight-{scheme}", records=records,
        claimed_start=poa[0].sample.t, claimed_end=poa[len(poa) - 1].sample.t,
        scheme=poa.scheme, finalizer=poa.finalizer)
    service.submit(submission, now=submission.claimed_end)
    service.drain(now=submission.claimed_end + 1.0)

    ((stored, verdict),) = service.audited_submissions()
    assert verdict.status == "accepted"
    decrypted = decrypt_poa(stored.submission.records, encryption_key,
                            scheme=stored.submission.scheme,
                            finalizer=stored.submission.finalizer)
    assert verdict.to_report() == reference_verify(
        decrypted, device.tee_public_key, scenario.zones, scenario.frame)
    service.close()
