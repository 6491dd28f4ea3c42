"""AliDroneServer as a façade over one AuditorService.

Both front doors share one registry, one zone database, one engine and
one registration policy, and every verdict the server issues is
persisted in the service's store.
"""

import random

import pytest

from repro.conformance.reference import reference_verify
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample, decrypt_poa, encrypt_poa
from repro.core.protocol import (
    DroneRegistrationRequest,
    PoaSubmission,
    ZoneRegistrationRequest,
)
from repro.core.samples import GpsSample
from repro.core.verification import VerificationStatus
from repro.crypto.schemes import authenticate_payloads, scheme_ids
from repro.errors import RegistrationError
from repro.server.auditor import AliDroneServer
from repro.server.service import AuditorService
from repro.sim.clock import DEFAULT_EPOCH
from repro.tee.attestation import DeviceQuote

T0 = DEFAULT_EPOCH

#: Local ``(x, y, t)`` tracks, one per expected verdict.
TRACKS = {
    "accepted": [(200.0 + 20.0 * i, 0.0, float(i)) for i in range(8)],
    "infeasible": [(200.0, 0.0, 0.0), (220.0, 0.0, 1.0),
                   (2000.0, 0.0, 2.0), (2020.0, 0.0, 3.0)],
    "insufficient": [(-300.0, 60.0, 0.0), (300.0, 60.0, 20.0)],
}


def flight(frame, key, scheme, track, offset, rng) -> ProofOfAlibi:
    payloads = []
    for x, y, t in track:
        point = frame.to_geo(x, y)
        payloads.append(GpsSample(lat=point.lat, lon=point.lon,
                                  t=T0 + offset + t).to_signed_payload())
    blobs, finalizer = authenticate_payloads(key, payloads, scheme, rng=rng)
    return ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=scheme)
         for payload, blob in zip(payloads, blobs)),
        scheme=scheme, finalizer=finalizer)


def submit_form(server, drone_id, poa, flight_id, offset, rng):
    return PoaSubmission(
        drone_id=drone_id, flight_id=flight_id,
        records=encrypt_poa(poa, server.public_encryption_key, rng=rng),
        claimed_start=T0 + offset, claimed_end=T0 + offset + 30.0,
        scheme=poa.scheme, finalizer=poa.finalizer)


@pytest.fixture()
def server(frame):
    server = AliDroneServer(frame, rng=random.Random(41),
                            encryption_key_bits=512)
    center = frame.to_geo(0.0, 0.0)
    server.register_zone(ZoneRegistrationRequest(
        zone=NoFlyZone(center.lat, center.lon, 50.0),
        proof_of_ownership="deed"))
    return server


@pytest.fixture()
def drone_id(server, signing_key, other_key):
    return server.register_drone(DroneRegistrationRequest(
        operator_public_key=other_key.public_key,
        tee_public_key=signing_key.public_key))


def honest_submissions(server, frame, signing_key, drone_id, count):
    rng = random.Random(42)
    return [submit_form(server, drone_id,
                        flight(frame, signing_key, "rsa-v15",
                               TRACKS["accepted"], 100.0 * i, rng),
                        f"f-{i}", 100.0 * i, rng)
            for i in range(count)]


@pytest.mark.parametrize("scheme", scheme_ids())
def test_verdicts_match_reference_and_are_stored(server, frame, drone_id,
                                                 signing_key, other_key,
                                                 scheme):
    rng = random.Random(43)
    # The last flight is signed by a key other than the registered T+.
    signers = [(signing_key, track) for track in TRACKS.values()]
    signers.append((other_key, TRACKS["accepted"]))
    submissions = [
        submit_form(server, drone_id,
                    flight(frame, key, scheme, track, 100.0 * i, rng),
                    f"f-{i}", 100.0 * i, rng)
        for i, (key, track) in enumerate(signers)]

    result = server.receive_poa_batch(submissions, now=T0 + 1000.0)

    zones = [record.zone for record in server.zones.all_zones()]
    got = [outcome.report for outcome in result.outcomes]
    want = [reference_verify(
        decrypt_poa(s.records, server.service._encryption_key,
                    scheme=s.scheme, finalizer=s.finalizer),
        signing_key.public_key, zones, frame) for s in submissions]
    assert got == want
    assert [r.status for r in got] == [
        VerificationStatus.ACCEPTED, VerificationStatus.REJECTED_INFEASIBLE,
        VerificationStatus.INSUFFICIENT,
        VerificationStatus.REJECTED_BAD_SIGNATURE]
    stored = list(server.service.store.audited())
    assert [row.submission for row, _ in stored] == submissions
    assert [verdict.to_report() for _, verdict in stored] == got


class TestServiceRegistrationPolicy:
    @pytest.fixture()
    def service(self, frame, vendor_key):
        with AuditorService(frame, encryption_key=vendor_key) as service:
            service.require_attestation = True
            service.trust_manufacturer(vendor_key.public_key)
            yield service

    def test_quoted_registration_accepted(self, service, make_device,
                                          other_key):
        device = make_device(seed=51)
        drone_id = service.register_drone(DroneRegistrationRequest(
            operator_public_key=other_key.public_key,
            tee_public_key=device.tee_public_key, quote=device.quote))
        (event,) = service.events.of_kind("drone_registered")
        assert event.detail["drone_id"] == drone_id
        assert event.detail["attested"] is True

    def test_missing_quote_refused(self, service, make_device, other_key):
        device = make_device(seed=52)
        with pytest.raises(RegistrationError):
            service.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=device.tee_public_key))

    def test_quote_for_other_key_refused(self, service, make_device,
                                         other_key, signing_key):
        device = make_device(seed=53)
        with pytest.raises(RegistrationError):
            service.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=signing_key.public_key, quote=device.quote))

    def test_untrusted_signer_refused(self, service, other_key, signing_key):
        forged = DeviceQuote.issue("evil-dev", signing_key.public_key,
                                   b"\x00" * 32, manufacturer_key=other_key)
        with pytest.raises(RegistrationError):
            service.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=signing_key.public_key, quote=forged))
        assert service.store.drone_count() == 0


def test_batch_larger_than_queue_bound_is_fully_audited(server, frame,
                                                         drone_id,
                                                         signing_key):
    server.service.queue_capacity = 2
    submissions = honest_submissions(server, frame, signing_key, drone_id, 5)
    result = server.receive_poa_batch(submissions, now=T0 + 1000.0)
    assert [o.report.status for o in result.outcomes] == (
        [VerificationStatus.ACCEPTED] * 5)
    assert server.service.stats.shed == 0
    assert server.service.store.verdict_count() == 5
    assert len(server.retained_for(drone_id)) == 5


def test_identical_resubmission_gets_stored_verdict_once(server, frame,
                                                         drone_id,
                                                         signing_key):
    (submission,) = honest_submissions(server, frame, signing_key,
                                       drone_id, 1)
    first = server.receive_poa(submission)
    again = server.receive_poa(submission)
    batch = server.receive_poa_batch([submission, submission])
    assert again == first
    assert batch.reports == [first, first]
    assert first.status is VerificationStatus.ACCEPTED
    assert len(server.retained_for(drone_id)) == 1
    assert server.service.store.submission_count() == 1

    stranger = PoaSubmission(
        drone_id="drone-999999", flight_id="f-x",
        records=submission.records, claimed_start=submission.claimed_start,
        claimed_end=submission.claimed_end)
    for _ in range(2):
        with pytest.raises(RegistrationError):
            server.receive_poa(stranger)
