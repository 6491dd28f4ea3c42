"""The GPS Sampler Trusted Application (paper §IV-C2, §V-B).

A normal (non-privileged, dynamically loaded) TA.  Its one job: produce
*authenticated* GPS samples.  ``GetGPSAuth`` reads the latest measurement
from the secure-world GPS driver, encodes it as the canonical signed
payload, and authenticates it under the TEE sign key ``T-`` unsealed from
secure storage — the key never leaves the secure world.

The session's ``scheme`` parameter picks the sample-authentication scheme
(:mod:`repro.crypto.schemes`); the TA holds that scheme's flight signer.
A session runs ``StartFlight`` → ``GetGPSAuth``* → ``FinalizeFlight``.
The paper's per-sample RSA scheme (the default) needs no flight boundary,
so under it ``GetGPSAuth`` works right after the session opens.

The prototype signs with ``TEE_ALG_RSASSA_PKCS1_V1_5_SHA1``; the hash is
selectable at session-open for the modern-deployment variant.  The
optional ``chain_seed`` session parameter seeds the signer's randomness
(the hash-chain key) — test/benchmark plumbing only; a real device always
draws from the secure RNG.
"""

from __future__ import annotations

import random
import uuid as uuid_module
from typing import Any

from repro.core.samples import GpsSample
from repro.crypto.keys import private_key_from_bytes, public_key_to_bytes
from repro.crypto.schemes import SCHEME_RSA, SampleSigner, get_scheme
from repro.errors import SchemeError, TrustedAppError
from repro.obs.trace import get_tracer
from repro.tee.gps_driver import SecureGpsDriver
from repro.tee.trusted_app import TrustedApplication
from repro.tee.worlds import SecureKeyHandle

#: Command: sample the GPS and return
#: ``{"payload": bytes, "signature": bytes, "scheme": str}``.
CMD_GET_GPS_AUTH = "GetGPSAuth"
#: Command: return the TEE verification key ``T+`` (public, freely shareable).
CMD_GET_PUBLIC_KEY = "GetPublicKey"
#: Command: begin a flight — a fresh signer for the session's scheme.
CMD_START_FLIGHT = "StartFlight"
#: Command: end the flight and return ``{"finalizer": bytes, "scheme": str}``.
CMD_FINALIZE_FLIGHT = "FinalizeFlight"

#: Sealed-storage entry name for the TEE sign key.
SIGN_KEY_ENTRY = "tee-sign-key"

GPS_SAMPLER_UUID = uuid_module.UUID("8aaaf200-2450-11e4-abe2-0002a5d5c51b")


class GpsSamplerTA(TrustedApplication):
    """Authenticated GPS sampling behind the ``GetGPSAuth`` interface."""

    UUID = GPS_SAMPLER_UUID

    def __init__(self) -> None:
        super().__init__()
        self._sign_key: SecureKeyHandle | None = None
        self._hash_name = "sha1"
        self._scheme = get_scheme(SCHEME_RSA)
        self._rng: random.Random | None = None
        self._signer: SampleSigner | None = None
        self._rsa_counted = 0
        self.samples_signed = 0

    def open_session(self, params: dict[str, Any]) -> None:
        """Unseal the sign key; runs in the secure world at session open."""
        hash_name = params.get("hash_name", "sha1")
        if hash_name not in ("sha1", "sha256"):
            raise TrustedAppError(f"unsupported signing hash: {hash_name!r}")
        try:
            self._scheme = get_scheme(params.get("scheme", SCHEME_RSA))
        except SchemeError as exc:
            raise TrustedAppError(str(exc)) from exc
        self._hash_name = hash_name
        seed = params.get("chain_seed")
        self._rng = None if seed is None else random.Random(seed)
        storage = self.core.sealed_storage
        if storage is None:
            raise TrustedAppError("device has no sealed storage provisioned")
        key_bytes = storage.unseal(SIGN_KEY_ENTRY)
        key = private_key_from_bytes(key_bytes)
        self._sign_key = SecureKeyHandle(key, self.core.monitor.state,
                                         "TEE sign key T-")
        self._signer = None

    def close_session(self) -> None:
        self._signer = None
        self._rng = None
        self._sign_key = None

    def _driver(self) -> SecureGpsDriver:
        return self.kernel_service(SecureGpsDriver.SERVICE_NAME)

    def _consult_spoof_detector(self, fix) -> None:
        """Decline to sign in a suspicious GPS environment (§VII-A2)."""
        from repro.errors import TeeError
        from repro.tee.spoof_detector import GpsSpoofingDetector

        try:
            detector = self.kernel_service(GpsSpoofingDetector.SERVICE_NAME)
        except TeeError:
            return  # detector not provisioned on this device
        verdict = detector.observe(fix)
        if verdict.suspicious:
            self.core.op_counters["spoof_declines"] += 1
            raise TrustedAppError(
                f"GPS environment suspicious ({verdict.reason}); "
                "declining to provide authenticity services")

    def invoke_command(self, command: str, params: dict[str, Any]) -> Any:
        if self._sign_key is None:
            raise TrustedAppError("GPS Sampler session not opened")
        if command == CMD_GET_GPS_AUTH:
            return self._get_gps_auth()
        if command == CMD_START_FLIGHT:
            return self._start_flight()
        if command == CMD_FINALIZE_FLIGHT:
            return self._finalize_flight()
        if command == CMD_GET_PUBLIC_KEY:
            key = self._sign_key.reveal()
            return public_key_to_bytes(key.public_key)
        raise TrustedAppError(f"GPS Sampler: unknown command {command!r}")

    def _active_signer(self) -> SampleSigner:
        if self._signer is None:
            if not self._scheme.per_sample:
                raise TrustedAppError(
                    f"GPS Sampler ({self._scheme.id}): no flight started "
                    "(StartFlight first)")
            self._start_flight()  # the paper's interface: no flight boundary
        return self._signer

    def _charge_rsa_ops(self, signer: SampleSigner, key_bits: int) -> None:
        """Add the signer's new private-key operations to the counters."""
        spent = signer.rsa_signatures - self._rsa_counted
        if spent:
            self.core.op_counters[f"rsa_sign_{key_bits}"] += spent
            self._rsa_counted = signer.rsa_signatures

    def _start_flight(self) -> dict[str, str]:
        key = self._sign_key.reveal()
        with get_tracer().span("tee.gps_sampler_ta.start_flight",
                               scheme=self._scheme.id, key_bits=key.bits):
            signer = self._scheme.new_signer(key, self._hash_name, self._rng)
        self._signer, self._rsa_counted = signer, 0
        self._charge_rsa_ops(signer, key.bits)
        self.core.op_counters["flights_started"] += 1
        return {"scheme": self._scheme.id}

    def _get_gps_auth(self) -> dict[str, Any]:
        signer = self._active_signer()
        tracer = get_tracer()
        with tracer.span("gps.receiver.get_fix"):
            fix = self._driver().get_gps()
        self._consult_spoof_detector(fix)
        sample = GpsSample(lat=fix.lat, lon=fix.lon, t=fix.time,
                           alt=fix.altitude_m)
        payload = sample.to_signed_payload()
        key = self._sign_key.reveal()
        with tracer.span("tee.gps_sampler_ta.sign", key_bits=key.bits,
                         hash=self._hash_name, scheme=self._scheme.id,
                         t=sample.t):
            blob = signer.sign_sample(payload)
        self.samples_signed += 1
        self._charge_rsa_ops(signer, key.bits)
        self.core.op_counters["gps_auth_samples"] += 1
        return {"payload": payload, "signature": blob,
                "scheme": self._scheme.id}

    def _finalize_flight(self) -> dict[str, Any]:
        signer = self._active_signer()
        key = self._sign_key.reveal()
        with get_tracer().span("tee.gps_sampler_ta.finalize_flight",
                               scheme=self._scheme.id, key_bits=key.bits):
            finalizer = signer.finalize_flight()
        self._signer = None  # one finalizer per flight; signer retired
        self._charge_rsa_ops(signer, key.bits)
        self.core.op_counters["flights_finalized"] += 1
        return {"finalizer": finalizer, "scheme": self._scheme.id}
