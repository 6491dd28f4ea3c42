"""Extensions from the paper's discussion section (§VII).

* 3-D physical model (ellipsoid vs cylinder NFZs) — §VII-B1
* Arbitrary polygon NFZs via smallest enclosing circle — §VII-B2
* Privacy-preserving verification with one-time keys — §VII-B3
* Symmetric (HMAC) signing with an ephemeral TEE-Auditor key — §VII-A1(a)

Sign-all-traces-at-once batching (§VII-A1(b)) is the ``rsa-batch`` scheme
in :mod:`repro.crypto.schemes`: the GPS Sampler TA signs under it when a
session opens with ``scheme="rsa-batch"``, and the verification pipeline
audits it like any other scheme.
"""

import uuid as _uuid

from repro.crypto.rsa import RsaPrivateKey
from repro.tee.attestation import TrustZoneDevice
from repro.tee.optee import sign_trusted_app

from repro.extensions.threed import (
    pair_is_sufficient_3d,
    alibi_is_sufficient_3d,
    travel_ellipsoid,
)
from repro.extensions.arbitrary_zones import (
    register_polygon_zone,
    overapproximation_ratio,
)
from repro.extensions.privacy import (
    PrivatePoa,
    build_private_poa,
    keys_for_incident,
    verify_private_disclosure,
)
from repro.extensions.symmetric import (
    SymmetricGpsSamplerTA,
    SymmetricSignedSample,
    AuditorFlightKey,
    CMD_INIT_FLIGHT_KEY,
    CMD_GET_GPS_AUTH_SYM,
)


def install_extension_ta(device: TrustZoneDevice, ta_factory,
                         vendor_key: RsaPrivateKey) -> _uuid.UUID:
    """Sign an extension TA with the vendor key and install it.

    Only the manufacturer (holder of the vendor signing key used at
    :func:`repro.tee.provision_device` time) can do this — the core rejects
    images signed with any other key.
    """
    image = sign_trusted_app(ta_factory, ta_factory.UUID, vendor_key)
    device.core.ta_store.install(image)
    return ta_factory.UUID


__all__ = [
    "pair_is_sufficient_3d",
    "alibi_is_sufficient_3d",
    "travel_ellipsoid",
    "register_polygon_zone",
    "overapproximation_ratio",
    "PrivatePoa",
    "build_private_poa",
    "keys_for_incident",
    "verify_private_disclosure",
    "SymmetricGpsSamplerTA",
    "SymmetricSignedSample",
    "AuditorFlightKey",
    "CMD_INIT_FLIGHT_KEY",
    "CMD_GET_GPS_AUTH_SYM",
    "install_extension_ta",
]
