"""The Adapter: AliDrone's normal-world daemon (paper §IV-C2, §V-C).

The Adapter owns the sampling loop.  It reads the GPS receiver directly
(cheap, unauthenticated) to run the adaptive-sampling decision, calls the
GPS Sampler TA's ``GetGPSAuth`` through the TEE Client API when a signed
sample is needed, and encrypts the resulting PoA under the Auditor's
public key before persisting it.

It implements :class:`repro.core.sampling.SamplingHarness`, so either
sampling policy can drive it.
"""

from __future__ import annotations

import random

from repro.core.poa import EncryptedPoaRecord, ProofOfAlibi, SignedSample, encrypt_poa
from repro.core.samples import GpsSample
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.schemes import SCHEME_RSA, get_scheme
from repro.errors import ConfigurationError, SchemeError, TeeError
from repro.faults.retry import RetryPolicy, RetryStats, execute_with_retry
from repro.gps.receiver import SimulatedGpsReceiver
from repro.obs.trace import get_tracer
from repro.sim.clock import SimClock
from repro.tee.attestation import TrustZoneDevice
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)


class Adapter:
    """Normal-world daemon wiring receiver, TEE client, and virtual clock.

    ``scheme`` selects the sample-authentication scheme the GPS Sampler
    TA session signs under (per-sample RSA by default).  :meth:`start`
    opens the session and sends ``StartFlight``; each
    :meth:`get_gps_auth` is one ``GetGPSAuth``; :meth:`finalize_flight`
    sends ``FinalizeFlight`` and returns the scheme's finalizer blob
    (empty for per-sample RSA).
    """

    def __init__(self, device: TrustZoneDevice, receiver: SimulatedGpsReceiver,
                 clock: SimClock, hash_name: str = "sha1",
                 retry_policy: RetryPolicy | None = None,
                 retry_rng: random.Random | None = None,
                 retry_stats: RetryStats | None = None,
                 scheme: str = SCHEME_RSA,
                 chain_seed: int | None = None):
        try:
            get_scheme(scheme)
        except SchemeError as exc:
            raise ConfigurationError(str(exc)) from exc
        self.device = device
        self.receiver = receiver
        self.clock = clock
        self.hash_name = hash_name
        self.scheme = scheme
        self.chain_seed = chain_seed
        #: Retry discipline for transient TEE entry failures (busy secure
        #: world); None = single attempt, the historical behaviour.  Each
        #: failed attempt consumes virtual time, so the retried sample is
        #: taken at a (slightly) later instant — exactly what real
        #: hardware would produce.
        self.retry_policy = retry_policy
        self.retry_stats = retry_stats
        self._retry_rng = retry_rng if retry_rng is not None else random.Random(0)
        self._session_id: int | None = None

    # --- TEE session management ------------------------------------------

    def _invoke(self, command: str, operation: str):
        """One TA command, retried under :attr:`retry_policy`."""
        return execute_with_retry(
            lambda: self.device.client.invoke(self._session_id, command),
            clock=self.clock, policy=self.retry_policy,
            rng=self._retry_rng, stats=self.retry_stats,
            operation=operation)

    def start(self) -> None:
        """Open the GPS Sampler session and start a flight (idempotent)."""
        if self._session_id is not None:
            return
        self._session_id = self.device.client.open_session(
            GPS_SAMPLER_UUID, {"hash_name": self.hash_name,
                               "scheme": self.scheme,
                               "chain_seed": self.chain_seed})
        self._invoke(CMD_START_FLIGHT, "start_flight")

    def finalize_flight(self) -> bytes:
        """Close out the flight and return the scheme's finalizer blob."""
        if self._session_id is None:
            raise TeeError("Adapter not started: no TA session open")
        return bytes(self._invoke(CMD_FINALIZE_FLIGHT,
                                  "finalize_flight")["finalizer"])

    def stop(self) -> None:
        """Close the TA session."""
        if self._session_id is not None:
            self.device.client.close_session(self._session_id)
            self._session_id = None

    # --- SamplingHarness -----------------------------------------------------

    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    def advance_to(self, t: float) -> None:
        """Sleep until virtual time ``t``."""
        self.clock.advance_to(t)

    def read_gps(self) -> GpsSample | None:
        """``ReadGPS()``: latest receiver measurement, normal world, unsigned."""
        fix = self.receiver.fix_at(self.clock.now)
        if fix is None:
            return None
        return GpsSample(lat=fix.lat, lon=fix.lon, t=fix.time,
                         alt=fix.altitude_m)

    def next_update_after(self, t: float) -> float:
        """Next receiver update slot after ``t`` (missed slots included)."""
        return self.receiver.next_update_after(t)

    def next_fix_time_after(self, t: float) -> float:
        """Next surviving receiver update after ``t``."""
        return self.receiver.next_fix_after(t).time

    def get_gps_auth(self) -> SignedSample:
        """``GetGPSAuth()``: an authenticated sample from the secure world."""
        if self._session_id is None:
            raise TeeError("Adapter not started: no TA session open")
        with get_tracer().span("drone.adapter.get_gps_auth"):
            output = self._invoke(CMD_GET_GPS_AUTH, "get_gps_auth")
        return SignedSample.from_ta_output(output)

    # --- PoA persistence -------------------------------------------------------

    def encrypt_for_auditor(self, poa: ProofOfAlibi,
                            auditor_public_key: RsaPublicKey,
                            rng: random.Random | None = None,
                            ) -> list[EncryptedPoaRecord]:
        """Encrypt each sample payload under the Auditor's key (§V-C)."""
        return encrypt_poa(poa, auditor_public_key, rng=rng)
