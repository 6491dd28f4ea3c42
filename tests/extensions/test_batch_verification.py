"""Auditor-side verification of rsa-batch PoAs (§VII-A1b end to end).

A batch-signed flight goes through the same staged pipeline as every other
scheme: the signature stage checks the one flight-end signature, the rest
of the stages are unchanged.
"""

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier, VerificationStatus
from repro.crypto.schemes import SCHEME_BATCH, authenticate_payloads
from repro.sim.clock import DEFAULT_EPOCH
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)

T0 = DEFAULT_EPOCH


def batch_poa(payloads, finalizer):
    return ProofOfAlibi((SignedSample(p, b"", SCHEME_BATCH) for p in payloads),
                        scheme=SCHEME_BATCH, finalizer=finalizer)


def make_batch(key, frame, positions_and_times):
    payloads = []
    for x, t in positions_and_times:
        point = frame.to_geo(x, 0.0)
        payloads.append(GpsSample(lat=point.lat, lon=point.lon,
                                  t=T0 + t).to_signed_payload())
    _blobs, finalizer = authenticate_payloads(key, payloads, SCHEME_BATCH)
    return batch_poa(payloads, finalizer)


def verify(poa, key, zones, frame):
    return PoaVerifier(frame).verify(poa, key.public_key, zones)


@pytest.fixture()
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


class TestVerifyBatchPoa:
    def test_good_batch_accepted(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame,
                           [(200.0 + 20 * i, float(i)) for i in range(8)])
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.ACCEPTED
        assert report.sample_count == 8

    def test_empty_batch(self, signing_key, frame, zone):
        batch = batch_poa((), b"")
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_EMPTY

    def test_wrong_key_rejected(self, signing_key, other_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (220.0, 1.0)])
        report = verify(batch, other_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_tampered_payload_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (220.0, 1.0)])
        first, second = (entry.payload for entry in batch)
        tampered = batch_poa((first, second[:-1] + bytes([second[-1] ^ 1])),
                             batch.finalizer)
        report = verify(tampered, signing_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_out_of_order_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 5.0), (220.0, 1.0)])
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_MALFORMED

    def test_infeasible_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0),
                                                (20_200.0, 1.0)])
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_INFEASIBLE

    def test_insufficient_gap_detected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (260.0, 60.0)])
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.INSUFFICIENT

    def test_single_sample_with_zone_insufficient(self, signing_key, frame,
                                                  zone):
        batch = make_batch(signing_key, frame, [(500.0, 0.0)])
        report = verify(batch, signing_key, [zone], frame)
        assert report.status is VerificationStatus.INSUFFICIENT

    def test_full_ta_round_trip(self, make_platform, frame):
        """A batch flown through the real TA verifies on the Auditor path."""
        device, receiver, clock = make_platform(seed=41)
        sid = device.client.open_session(GPS_SAMPLER_UUID,
                                         {"scheme": SCHEME_BATCH})
        device.client.invoke(sid, CMD_START_FLIGHT)
        entries = []
        for _ in range(6):
            clock.advance(1.0)
            entries.append(SignedSample.from_ta_output(
                device.client.invoke(sid, CMD_GET_GPS_AUTH)))
        out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        batch = ProofOfAlibi(entries, scheme=SCHEME_BATCH,
                             finalizer=out["finalizer"])
        far_center = frame.to_geo(0.0, 50_000.0)
        far_zone = NoFlyZone(far_center.lat, far_center.lon, 100.0)
        report = PoaVerifier(frame).verify(batch, device.tee_public_key,
                                           [far_zone])
        assert report.status is VerificationStatus.ACCEPTED
