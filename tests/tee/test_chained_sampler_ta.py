"""The GPS Sampler TA under ``hash-chain``: commitment, links, closure."""

from __future__ import annotations

import pytest

from repro.crypto.pkcs1 import verify_pkcs1_v15
from repro.crypto.schemes import (
    SCHEME_CHAIN,
    ChainFinalizer,
    chain_anchor,
    chain_commit_payload,
    get_scheme,
)
from repro.errors import TrustedAppError
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)


@pytest.fixture()
def platform(make_platform):
    return make_platform()


def _open(device, chain_seed=99):
    return device.client.open_session(
        GPS_SAMPLER_UUID, {"hash_name": "sha1", "scheme": SCHEME_CHAIN,
                           "chain_seed": chain_seed})


def _fly(device, clock, samples=5, session=None):
    sid = session if session is not None else _open(device)
    start = device.client.invoke(sid, CMD_START_FLIGHT)
    entries = []
    for _ in range(samples):
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        entries.append((out["payload"], out["signature"]))
    final = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
    device.client.close_session(sid)
    return start, entries, final


class TestChainedSamplerTA:
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

    def test_commitment_verifies_under_t_plus(self, platform):
        device, _, clock = platform
        start, _, final = _fly(device, clock)
        assert start["scheme"] == SCHEME_CHAIN
        fin = ChainFinalizer.from_bytes(final["finalizer"])
        assert verify_pkcs1_v15(device.tee_public_key,
                                chain_commit_payload(fin.anchor),
                                fin.commitment_signature)

    def test_flight_verifies_under_chain_scheme(self, platform):
        device, _, clock = platform
        start, entries, final = _fly(device, clock, samples=6)
        assert final["scheme"] == SCHEME_CHAIN
        fin = ChainFinalizer.from_bytes(final["finalizer"])
        assert fin.count == 6
        assert fin.anchor == chain_anchor(fin.chain_key)
        assert get_scheme(SCHEME_CHAIN).verify(
            device.tee_public_key, entries, final["finalizer"]) == []

    def test_samples_carry_scheme_tag(self, platform):
        device, _, clock = platform
        sid = _open(device)
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        assert out["scheme"] == SCHEME_CHAIN
        assert len(out["signature"]) == 32  # an HMAC link, not an RSA sig
        device.client.close_session(sid)

    def test_finalize_retires_the_chain(self, platform):
        device, _, clock = platform
        sid = _open(device)
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
        device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        device.client.close_session(sid)

    def test_rsa_ops_amortized_to_two_per_flight(self, platform):
        device, _, clock = platform
        counters = device.core.op_counters
        before = {k: v for k, v in counters.items()
                  if k.startswith("rsa_sign_")}
        _fly(device, clock, samples=8)
        after = {k: v for k, v in counters.items()
                 if k.startswith("rsa_sign_")}
        assert sum(after.values()) - sum(before.values()) == 2
        assert counters["gps_auth_samples"] == 8
        assert counters["flights_started"] == 1
        assert counters["flights_finalized"] == 1

    def test_seeded_chain_is_deterministic(self, make_platform):
        def one_flight():
            device, _, clock = make_platform()
            _, entries, final = _fly(device, clock, samples=4)
            return entries, final["finalizer"]

        assert one_flight() == one_flight()
