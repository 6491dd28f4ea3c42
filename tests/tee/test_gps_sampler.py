"""Tests for the GPS driver, GPS Sampler TA, and device provisioning."""

import hashlib
import random

import pytest

from repro.core.samples import GpsSample
from repro.crypto.keys import public_key_from_bytes
from repro.crypto.schemes import (
    SCHEME_BATCH,
    SCHEME_CHAIN,
    SCHEME_MERKLE,
    SCHEME_RSA,
    get_scheme,
    scheme_ids,
)
from repro.errors import (
    NoFixError,
    TrustedAppError,
    WorldIsolationError,
)
from repro.gps.replay import WaypointSource
from repro.obs.trace import Tracer, use_tracer
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.tee.attestation import provision_device
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_GET_PUBLIC_KEY,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
    SIGN_KEY_ENTRY,
    GpsSamplerTA,
)
from repro.tee.optee import _ta_code_bytes

T0 = DEFAULT_EPOCH


@pytest.fixture()
def platform(make_platform):
    return make_platform()


class TestProvisioning:
    def test_public_key_exported(self, platform):
        device, _, _ = platform
        assert device.tee_public_key.bits >= 512

    def test_sign_key_sealed_not_readable(self, platform):
        device, _, _ = platform
        assert device.sealed_storage.contains(SIGN_KEY_ENTRY)
        with pytest.raises(WorldIsolationError):
            device.sealed_storage.unseal(SIGN_KEY_ENTRY)

    def test_sealed_blob_does_not_contain_key_material(self, platform,
                                                       vendor_key):
        device, _, _ = platform
        blob = device.sealed_storage.raw_blobs()[SIGN_KEY_ENTRY]
        # The public modulus is visible in T+; the sealed blob must not
        # expose it (it is encrypted, so no structured content leaks).
        n_bytes = device.tee_public_key.n.to_bytes(
            (device.tee_public_key.n.bit_length() + 7) // 8, "big")
        assert n_bytes not in blob

    def test_deterministic_provisioning(self, vendor_key):
        a = provision_device("d", key_bits=512, rng=random.Random(5),
                             vendor_key=vendor_key)
        b = provision_device("d", key_bits=512, rng=random.Random(5),
                             vendor_key=vendor_key)
        assert a.tee_public_key == b.tee_public_key

    def test_double_gps_attach_rejected(self, make_platform, frame):
        device, receiver, clock = make_platform()
        from repro.errors import TeeError
        with pytest.raises(TeeError):
            device.attach_gps(receiver, clock)


class TestGpsDriver:
    def test_driver_read_faults_from_normal_world(self, platform):
        device, _, clock = platform
        clock.advance(1.0)
        with pytest.raises(WorldIsolationError):
            device.gps_driver.get_gps()

    def test_driver_reads_latest_fix(self, platform):
        device, _, clock = platform
        clock.advance(1.05)
        fix = device.monitor.secure_boot_call(device.gps_driver.get_gps)
        assert fix.time == pytest.approx(T0 + 1.0, abs=0.011)

    def test_no_fix_raises(self, make_device, frame):
        """Reading the driver before the receiver's first update fails."""
        from repro.gps.receiver import SimulatedGpsReceiver
        source = WaypointSource([(T0, 0, 0), (T0 + 10.0, 10, 0)])
        clock = SimClock(T0)
        receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                        start_time=T0 + 100.0, seed=2)
        device = make_device(seed=2)
        device.attach_gps(receiver, clock)
        with pytest.raises(NoFixError):
            device.monitor.secure_boot_call(device.gps_driver.get_gps)
        assert not device.monitor.secure_boot_call(device.gps_driver.has_fix)


class TestGpsSamplerTA:
    def test_get_gps_auth_round_trip(self, platform):
        device, _, clock = platform
        clock.advance(2.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        sample = GpsSample.from_signed_payload(out["payload"])
        assert sample.t == pytest.approx(T0 + 2.0, abs=0.011)
        from repro.crypto.pkcs1 import verify_pkcs1_v15
        assert verify_pkcs1_v15(device.tee_public_key, out["payload"],
                                out["signature"], "sha1")

    def test_public_key_command_matches_provisioned(self, platform):
        device, _, clock = platform
        clock.advance(1.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        pub = public_key_from_bytes(device.client.invoke(sid,
                                                         CMD_GET_PUBLIC_KEY))
        assert pub == device.tee_public_key

    def test_sha256_session(self, platform):
        device, _, clock = platform
        clock.advance(1.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID,
                                         {"hash_name": "sha256"})
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        from repro.crypto.pkcs1 import verify_pkcs1_v15
        assert verify_pkcs1_v15(device.tee_public_key, out["payload"],
                                out["signature"], "sha256")
        assert not verify_pkcs1_v15(device.tee_public_key, out["payload"],
                                    out["signature"], "sha1")

    def test_bad_hash_rejected_at_open(self, platform):
        device, _, _ = platform
        with pytest.raises(TrustedAppError):
            device.client.open_session(GPS_SAMPLER_UUID, {"hash_name": "md5"})

    def test_unknown_command_rejected(self, platform):
        device, _, clock = platform
        clock.advance(1.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        with pytest.raises(TrustedAppError):
            device.client.invoke(sid, "ExfiltrateKey")

    def test_op_counters_track_signatures(self, platform):
        device, _, clock = platform
        clock.advance(1.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        for _ in range(3):
            clock.advance(1.0)
            device.client.invoke(sid, CMD_GET_GPS_AUTH)
        assert device.core.op_counters["gps_auth_samples"] == 3
        assert device.core.op_counters["rsa_sign_512"] == 3

    def test_sample_quantization_is_lossless_for_protocol(self, platform):
        device, _, clock = platform
        clock.advance(3.0)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        sample = GpsSample.from_signed_payload(out["payload"])
        # Re-encoding the decoded sample reproduces the signed payload
        # exactly (the Auditor relies on this).
        assert sample.to_signed_payload() == out["payload"]

    def test_tampered_sealed_key_bricks_sampler(self, platform):
        """Corrupting the sealed sign key must fail closed, not sign junk."""
        device, _, clock = platform
        clock.advance(1.0)
        blob = bytearray(device.sealed_storage.raw_blobs()[SIGN_KEY_ENTRY])
        blob[10] ^= 0xFF
        device.sealed_storage.tamper(SIGN_KEY_ENTRY, bytes(blob))
        from repro.errors import TeeStorageError
        with pytest.raises(TeeStorageError):
            device.client.open_session(GPS_SAMPLER_UUID)


#: Schemes whose samples only authenticate together with a finalizer.
FLIGHT_SCHEMES = [s for s in scheme_ids() if not get_scheme(s).per_sample]

#: Per-flight RSA private-key operations, as a function of sample count.
RSA_OPS_PER_FLIGHT = {SCHEME_RSA: lambda n: n, SCHEME_BATCH: lambda n: 1,
                      SCHEME_CHAIN: lambda n: 2, SCHEME_MERKLE: lambda n: 1}


def open_sampler(device, scheme, chain_seed=99):
    return device.client.open_session(
        GPS_SAMPLER_UUID, {"scheme": scheme, "chain_seed": chain_seed})


def fly(device, clock, scheme, samples=5):
    """One flight through the TA: ``(entries, FinalizeFlight output)``."""
    sid = open_sampler(device, scheme)
    assert device.client.invoke(sid, CMD_START_FLIGHT) == {"scheme": scheme}
    entries = []
    for _ in range(samples):
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        assert out["scheme"] == scheme
        entries.append((out["payload"], out["signature"]))
    final = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
    device.client.close_session(sid)
    return entries, final


class TestOneSamplerImage:
    def test_only_the_gps_sampler_is_installed(self, make_device):
        device = make_device(seed=7)
        assert set(device.core.ta_store._images) == {GPS_SAMPLER_UUID}

    def test_quote_measures_the_installed_image(self, make_device):
        device = make_device(seed=7)
        image = device.core.ta_store.lookup(GPS_SAMPLER_UUID)
        assert image.factory is GpsSamplerTA
        assert device.quote.ta_measurement == hashlib.sha256(
            _ta_code_bytes(image.factory, image.ta_uuid)).digest()

    def test_unknown_scheme_rejected_at_open(self, platform):
        device, _, _ = platform
        with pytest.raises(TrustedAppError, match="scheme"):
            open_sampler(device, "rsa-v2")


class TestEverySchemeThroughTheSampler:
    @pytest.mark.parametrize("scheme", FLIGHT_SCHEMES)
    def test_start_flight_required(self, platform, scheme):
        device, _, clock = platform
        sid = open_sampler(device, scheme)
        clock.advance(1.0)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_GET_GPS_AUTH)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_FINALIZE_FLIGHT)

    @pytest.mark.parametrize("scheme", FLIGHT_SCHEMES)
    def test_finalize_retires_the_signer(self, platform, scheme):
        device, _, clock = platform
        sid = open_sampler(device, scheme)
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
        device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_GET_GPS_AUTH)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_FINALIZE_FLIGHT)

    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_blob_shape(self, platform, scheme):
        device, _, clock = platform
        entries, final = fly(device, clock, scheme, samples=3)
        lengths = {len(blob) for _payload, blob in entries}
        expected = {SCHEME_RSA: {device.tee_public_key.byte_length},
                    SCHEME_BATCH: {0}, SCHEME_CHAIN: {32},
                    SCHEME_MERKLE: {0}}[scheme]
        assert lengths == expected
        assert (final["finalizer"] == b"") == (scheme == SCHEME_RSA)

    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_rsa_ops_per_flight(self, platform, scheme):
        device, _, clock = platform
        fly(device, clock, scheme, samples=7)
        counters = device.core.op_counters
        assert counters["rsa_sign_512"] == RSA_OPS_PER_FLIGHT[scheme](7)
        assert counters["gps_auth_samples"] == 7
        assert counters["flights_started"] == 1
        assert counters["flights_finalized"] == 1

    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_finalizer_verifies_under_scheme(self, platform, scheme):
        device, _, clock = platform
        entries, final = fly(device, clock, scheme, samples=6)
        assert final["scheme"] == scheme
        assert get_scheme(scheme).verify(
            device.tee_public_key, entries, final["finalizer"]) == []

    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_seeded_flight_is_deterministic(self, make_platform, scheme):
        def one_flight():
            device, _, clock = make_platform()
            return fly(device, clock, scheme, samples=4)

        assert one_flight() == one_flight()

    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_sign_span_per_sample_carries_scheme(self, platform, scheme):
        device, _, clock = platform
        with use_tracer(Tracer()) as tracer:
            fly(device, clock, scheme, samples=3)
        fixes = [s for s in tracer.spans if s.name == "gps.receiver.get_fix"]
        signs = [s for s in tracer.spans
                 if s.name == "tee.gps_sampler_ta.sign"]
        assert len(fixes) == len(signs) == 3
        assert {s.attributes["scheme"] for s in signs} == {scheme}
