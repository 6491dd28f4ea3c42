"""Tests for sign-all-at-once batching (the GPS Sampler TA under
``rsa-batch``) and the symmetric-key extension TA."""

import random

import pytest

from repro.core.poa import ProofOfAlibi, SignedSample
from repro.crypto.digest import framed_sha256
from repro.crypto.schemes import SCHEME_BATCH, get_scheme
from repro.errors import TrustedAppError, VerificationError
from repro.extensions import install_extension_ta
from repro.extensions.symmetric import (
    CMD_GET_GPS_AUTH_SYM,
    CMD_INIT_FLIGHT_KEY,
    AuditorFlightKey,
    SymmetricGpsSamplerTA,
    SymmetricSignedSample,
)
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)


@pytest.fixture()
def batch_platform(make_platform):
    device, receiver, clock = make_platform()
    sid = device.client.open_session(GPS_SAMPLER_UUID,
                                     {"scheme": SCHEME_BATCH})
    device.client.invoke(sid, CMD_START_FLIGHT)
    return device, clock, sid


@pytest.fixture()
def sym_platform(make_platform, vendor_key):
    device, receiver, clock = make_platform()
    install_extension_ta(device, SymmetricGpsSamplerTA, vendor_key)
    sid = device.client.open_session(SymmetricGpsSamplerTA.UUID,
                                     {"dh_seed": 1234})
    return device, clock, sid


def record(device, clock, sid, samples, step=1.0):
    """Take ``samples`` fixes; returns their ``(payload, blob)`` entries."""
    entries = []
    for _ in range(samples):
        clock.advance(step)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        entries.append((out["payload"], out["signature"]))
    return entries


def batch_verifies(device, entries, finalizer):
    return get_scheme(SCHEME_BATCH).verify(device.tee_public_key, entries,
                                           finalizer) == []


class TestBatchSigning:
    def test_record_and_finalize(self, batch_platform):
        device, clock, sid = batch_platform
        entries = record(device, clock, sid, 4)
        assert all(blob == b"" for _payload, blob in entries)
        out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        poa = ProofOfAlibi(
            (SignedSample(payload, blob, SCHEME_BATCH)
             for payload, blob in entries),
            scheme=SCHEME_BATCH, finalizer=out["finalizer"])
        assert len(poa) == 4
        assert batch_verifies(device, entries, poa.finalizer)
        trace = poa.trace()
        assert trace.duration == pytest.approx(3.0, abs=0.05)

    def test_single_signature_for_whole_flight(self, batch_platform):
        device, clock, sid = batch_platform
        record(device, clock, sid, 10, step=0.5)
        device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        assert device.core.op_counters["rsa_sign_512"] == 1
        assert device.core.op_counters["gps_auth_samples"] == 10

    def test_tampered_payload_fails(self, batch_platform):
        device, clock, sid = batch_platform
        entries = record(device, clock, sid, 1)
        out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        payload, blob = entries[0]
        entries[0] = (payload[:-1] + bytes([payload[-1] ^ 1]), blob)
        assert not batch_verifies(device, entries, out["finalizer"])

    def test_dropped_payload_fails(self, batch_platform):
        device, clock, sid = batch_platform
        entries = record(device, clock, sid, 3)
        out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        assert not batch_verifies(device, entries[:-1], out["finalizer"])

    def test_buffer_resets_between_flights(self, batch_platform):
        device, clock, sid = batch_platform
        record(device, clock, sid, 1)
        device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        device.client.invoke(sid, CMD_START_FLIGHT)
        second = record(device, clock, sid, 1)
        out = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        # The second finalizer covers the second flight's sample alone.
        assert batch_verifies(device, second, out["finalizer"])

    def test_digest_length_framing(self):
        """Adjacent payloads cannot be re-split without detection."""
        assert (framed_sha256((b"ab", b"c"))
                != framed_sha256((b"a", b"bc")))


class TestSymmetricSigning:
    def _handshake(self, device, sid, flight=b"flight-7"):
        auditor = AuditorFlightKey(flight, rng=random.Random(5))
        ta_public = device.client.invoke(sid, CMD_INIT_FLIGHT_KEY, {
            "auditor_public_value": auditor.public_value,
            "flight_id": flight})
        auditor.complete(ta_public)
        return auditor

    def test_handshake_and_verified_samples(self, sym_platform):
        device, clock, sid = sym_platform
        auditor = self._handshake(device, sid)
        entries = []
        for _ in range(5):
            clock.advance(1.0)
            out = device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)
            entries.append(SymmetricSignedSample(payload=out["payload"],
                                                 tag=out["tag"]))
        trace = auditor.verify_entries(entries)
        assert len(trace) == 5

    def test_tampered_payload_rejected(self, sym_platform):
        device, clock, sid = sym_platform
        auditor = self._handshake(device, sid)
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)
        bad = SymmetricSignedSample(
            payload=out["payload"][:-1] + bytes([out["payload"][-1] ^ 1]),
            tag=out["tag"])
        with pytest.raises(VerificationError):
            auditor.verify_entries([bad])

    def test_sampling_before_handshake_rejected(self, sym_platform):
        device, clock, sid = sym_platform
        clock.advance(1.0)
        with pytest.raises(TrustedAppError):
            device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)

    def test_wrong_flight_key_rejected(self, sym_platform):
        device, clock, sid = sym_platform
        self._handshake(device, sid, flight=b"flight-A")
        # A different auditor exchange (never completed with this TA).
        stranger = AuditorFlightKey(b"flight-B", rng=random.Random(6))
        stranger.complete(AuditorFlightKey(b"x",
                                           rng=random.Random(7)).public_value)
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)
        entry = SymmetricSignedSample(payload=out["payload"], tag=out["tag"])
        with pytest.raises(VerificationError):
            stranger.verify_entries([entry])

    def test_incomplete_exchange_rejected(self):
        auditor = AuditorFlightKey(b"f", rng=random.Random(1))
        with pytest.raises(VerificationError):
            auditor.verify_entries([])

    def test_missing_peer_value_rejected(self, sym_platform):
        device, _, sid = sym_platform
        with pytest.raises(TrustedAppError):
            device.client.invoke(sid, CMD_INIT_FLIGHT_KEY, {})

    def test_hmac_counter_tracked(self, sym_platform):
        device, clock, sid = sym_platform
        self._handshake(device, sid)
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH_SYM)
        assert device.core.op_counters["hmac_sign"] == 1
        assert device.core.op_counters["dh_exchanges"] == 1

    def test_unsigned_vendor_extension_rejected(self, make_platform,
                                                other_key):
        """Only the manufacturer can install extension TAs."""
        device, _, _ = make_platform()
        install_extension_ta(device, SymmetricGpsSamplerTA, other_key)
        with pytest.raises(TrustedAppError):
            device.client.open_session(SymmetricGpsSamplerTA.UUID)
