"""The GPS Sampler TA under ``merkle-disclosure``: empty blobs in flight,
one commitment out."""

from __future__ import annotations

import pytest

from repro.crypto.schemes import (
    SCHEME_MERKLE,
    MerkleFinalizer,
    get_scheme,
)
from repro.errors import TrustedAppError
from repro.privacy.merkle import MerkleTree
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)


@pytest.fixture()
def platform(make_platform):
    return make_platform()


def _open(device):
    return device.client.open_session(GPS_SAMPLER_UUID,
                                      {"hash_name": "sha1",
                                       "scheme": SCHEME_MERKLE})


def _fly(device, clock, samples=5):
    sid = _open(device)
    start = device.client.invoke(sid, CMD_START_FLIGHT)
    entries = []
    for _ in range(samples):
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        entries.append((out["payload"], out["signature"]))
    final = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
    device.client.close_session(sid)
    return start, entries, final


class TestMerkleSamplerTA:
    def test_installed_at_provisioning(self, platform):
        device, _, _ = platform
        sid = _open(device)
        device.client.close_session(sid)

    def test_auth_before_start_flight_rejected(self, platform):
        device, _, clock = platform
        sid = _open(device)
        clock.advance(1.0)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_GET_GPS_AUTH)
        device.client.close_session(sid)

    def test_finalize_before_start_rejected(self, platform):
        device, _, _ = platform
        sid = _open(device)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        device.client.close_session(sid)

    def test_in_flight_blobs_are_empty(self, platform):
        device, _, clock = platform
        start, entries, _ = _fly(device, clock, samples=4)
        assert start["scheme"] == SCHEME_MERKLE
        assert all(blob == b"" for _payload, blob in entries)

    def test_flight_verifies_under_merkle_scheme(self, platform):
        device, _, clock = platform
        _, entries, final = _fly(device, clock, samples=6)
        assert final["scheme"] == SCHEME_MERKLE
        fin = MerkleFinalizer.from_bytes(final["finalizer"])
        assert fin.count == 6
        assert fin.root == MerkleTree(
            [payload for payload, _blob in entries]).root
        assert get_scheme(SCHEME_MERKLE).verify(
            device.tee_public_key, entries, final["finalizer"]) == []

    def test_one_commitment_per_flight(self, platform):
        device, _, clock = platform
        sid = _open(device)
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
        device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        device.client.close_session(sid)

    def test_single_rsa_op_regardless_of_samples(self, platform):
        device, _, clock = platform
        _fly(device, clock, samples=9)
        counters = device.core.op_counters
        assert counters["flights_started"] == 1
        assert counters["gps_auth_samples"] == 9
        assert counters["flights_finalized"] == 1
        assert counters["rsa_sign_512"] == 1
