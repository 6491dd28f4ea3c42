"""Per-flight hybrid record envelope: one RSA private-key operation per flight.

The paper's Adapter encrypts every sample payload under the Auditor's key
with RSAES-PKCS1-v1_5 (§V-C), so the Auditor pays one private-key decrypt
per record.  The envelope instead draws a 32-byte *flight key* ``K``,
wraps it once with the same RSAES-PKCS1-v1_5, and seals every record with
a stdlib-only encrypt-then-MAC construction keyed from ``K``.  The Auditor
unwraps ``K`` once per flight; every record then opens with two SHA-256
calls and one HMAC.

Record layout (integers big-endian, ``k`` = the Auditor modulus length)::

    seal index:u16 | [index 0 only: version:u8 | RSAES(A+, K):k] | body | tag:8

    enc_key = SHA-256("ADEV-ENC\\0" | K)     mac_key = SHA-256("ADEV-MAC\\0" | K)
    body    = payload XOR SHA-256(enc_key | index:u32 | block:u32) ...
    tag     = HMAC-SHA256(mac_key, header | body)[:8]

where ``header`` is everything before ``body``.  The TEE authenticator
stays the integrity root over every plaintext; the tag gives a fast typed
rejection and keeps counter-mode malleability from becoming a verdict
oracle.  Eight tag bytes (a CCM_8-style trade for a constrained uplink)
keep a 4-sample 512-bit flight smaller than its paper-mode form.

**Detection.**  A paper-mode record is always exactly ``k`` bytes; a flight
with any record of another length is an envelope flight (its index-0
record is always longer than ``k``).  :func:`open_records` dispatches on
that rule, so stored paper-mode rows keep opening unchanged.

**Independence.**  Once the first index-0 record's key is unwrapped, every
record opens on its own: a subset, a reordering or a duplicate of an
envelope flight's records opens to the same payloads the paper mode would
give, and the verification pipeline judges them exactly as before.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
from typing import Callable, Sequence

from repro.crypto.pkcs1 import decrypt_pkcs1_v15, encrypt_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import EncryptionError

#: ``encrypt_poa`` record modes: the per-flight envelope (default) and the
#: paper's per-record RSAES-PKCS1-v1_5 (§V-C, Table II).
RECORD_MODE_ENVELOPE = "envelope"
RECORD_MODE_RSAES = "rsaes"

ENVELOPE_VERSION = 1
FLIGHT_KEY_BYTES = 32
TAG_BYTES = 8
#: Largest record count the u16 seal index can number.
MAX_RECORDS = 1 << 16

_INDEX = struct.Struct(">H")
_BLOCK = struct.Struct(">II")
_ENC_LABEL = b"ADEV-ENC\x00"
_MAC_LABEL = b"ADEV-MAC\x00"

#: ``unwrap(private_key, wrapped) -> plaintext``: the RSAES decrypt the
#: opener calls.  Callers pass their own reference so instrumentation that
#: patches a module-level name sees the call.
Unwrap = Callable[[RsaPrivateKey, bytes], bytes]


def is_envelope_flight(ciphertexts: Sequence[bytes], modulus_len: int) -> bool:
    """The detection rule: any record not exactly ``modulus_len`` bytes."""
    return any(len(c) != modulus_len for c in ciphertexts)


class FlightKey:
    """The record-sealing subkeys derived from one flight key ``K``."""

    __slots__ = ("enc_key", "mac_key")

    def __init__(self, flight_key: bytes):
        if len(flight_key) != FLIGHT_KEY_BYTES:
            raise EncryptionError(
                f"flight key must be {FLIGHT_KEY_BYTES} bytes, "
                f"got {len(flight_key)}")
        self.enc_key = hashlib.sha256(_ENC_LABEL + flight_key).digest()
        self.mac_key = hashlib.sha256(_MAC_LABEL + flight_key).digest()

    def _keystream_xor(self, index: int, data: bytes) -> bytes:
        if not data:
            return b""
        stream = b"".join(
            hashlib.sha256(self.enc_key + _BLOCK.pack(index, block)).digest()
            for block in range((len(data) + 31) // 32))
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream[:len(data)], "big")
                ).to_bytes(len(data), "big")

    def _tag(self, header: bytes, body: bytes) -> bytes:
        return hmac.digest(self.mac_key, header + body, "sha256")[:TAG_BYTES]

    def seal(self, header: bytes, index: int, payload: bytes) -> bytes:
        """``header | body | tag`` for one record."""
        body = self._keystream_xor(index, payload)
        return header + body + self._tag(header, body)

    def open(self, record: "EnvelopeRecord") -> bytes:
        """The payload of one parsed record; raises on a bad tag."""
        if not hmac.compare_digest(self._tag(record.header, record.body),
                                   record.tag):
            raise EncryptionError(
                f"envelope record {record.index}: authentication tag mismatch")
        return self._keystream_xor(record.index, record.body)


class EnvelopeRecord:
    """One envelope record split into its fields (no crypto checked yet)."""

    __slots__ = ("index", "header", "wrapped_key", "body", "tag")

    def __init__(self, ciphertext: bytes, modulus_len: int):
        if len(ciphertext) < _INDEX.size + TAG_BYTES:
            raise EncryptionError("envelope record shorter than its framing")
        (self.index,) = _INDEX.unpack_from(ciphertext)
        header_len = _INDEX.size
        self.wrapped_key: bytes | None = None
        if self.index == 0:
            header_len += 1 + modulus_len
            if len(ciphertext) < header_len + TAG_BYTES:
                raise EncryptionError("envelope key record truncated")
            version = ciphertext[_INDEX.size]
            if version != ENVELOPE_VERSION:
                raise EncryptionError(
                    f"unsupported envelope version {version}")
            self.wrapped_key = ciphertext[_INDEX.size + 1:header_len]
        self.header = ciphertext[:header_len]
        self.body = ciphertext[header_len:-TAG_BYTES]
        self.tag = ciphertext[-TAG_BYTES:]


def seal_records(auditor_public_key: RsaPublicKey,
                 payloads: Sequence[bytes],
                 rng: random.Random | None = None) -> list[bytes]:
    """Seal one flight's payloads under a fresh, once-wrapped flight key.

    ``K`` is drawn from ``rng`` (``SystemRandom`` when None, as
    :func:`repro.crypto.pkcs1.encrypt_pkcs1_v15` does) and wrapped with
    RSAES-PKCS1-v1_5 into the index-0 record's header.
    """
    if len(payloads) > MAX_RECORDS:
        raise EncryptionError(
            f"envelope numbers at most {MAX_RECORDS} records per flight")
    if not payloads:
        return []
    rng = rng or random.SystemRandom()
    flight_key = rng.getrandbits(8 * FLIGHT_KEY_BYTES).to_bytes(
        FLIGHT_KEY_BYTES, "big")
    wrapped = encrypt_pkcs1_v15(auditor_public_key, flight_key, rng=rng)
    keys = FlightKey(flight_key)
    records = [keys.seal(_INDEX.pack(0) + bytes([ENVELOPE_VERSION]) + wrapped,
                         0, payloads[0])]
    records += [keys.seal(_INDEX.pack(index), index, payload)
                for index, payload in enumerate(payloads[1:], start=1)]
    return records


def unwrap_flight_key(private_key: RsaPrivateKey,
                      records: Sequence[EnvelopeRecord],
                      unwrap: Unwrap = decrypt_pkcs1_v15) -> FlightKey:
    """Unwrap ``K`` from the first index-0 record: one RSA operation."""
    for record in records:
        if record.wrapped_key is not None:
            return FlightKey(unwrap(private_key, record.wrapped_key))
    raise EncryptionError("envelope flight has no index-0 key record")


def flight_binding(ciphertexts: Sequence[bytes],
                   modulus_len: int) -> bytes | None:
    """What a record's payload depends on besides its own bytes.

    ``b""`` for a paper-mode flight (each record stands alone); for an
    envelope flight, a 16-byte digest of the first index-0 record's
    wrapped key — records only open the same way under the same ``K``.
    None when an envelope flight has no well-formed key record (it cannot
    open at all).  Payload caches key on ``(binding, ciphertext)``.
    """
    if not is_envelope_flight(ciphertexts, modulus_len):
        return b""
    for ciphertext in ciphertexts:
        if ciphertext[:_INDEX.size] == b"\x00\x00":
            try:
                record = EnvelopeRecord(ciphertext, modulus_len)
            except EncryptionError:
                return None
            return hashlib.sha256(record.wrapped_key).digest()[:16]
    return None


def open_records(private_key: RsaPrivateKey, ciphertexts: Sequence[bytes],
                 unwrap: Unwrap = decrypt_pkcs1_v15,
                 select: Sequence[int] | None = None) -> list[bytes]:
    """Open a flight's records in either mode (the one dispatch).

    Paper-mode flights cost one ``unwrap`` per opened record; envelope
    flights cost one ``unwrap`` in total.  ``select`` limits which records
    are opened (all by default); the result follows its order.

    Raises:
        EncryptionError: any malformed record, bad tag or bad padding.
    """
    if select is None:
        select = range(len(ciphertexts))
    k = private_key.byte_length
    if not is_envelope_flight(ciphertexts, k):
        return [unwrap(private_key, ciphertexts[i]) for i in select]
    records = [EnvelopeRecord(c, k) for c in ciphertexts]
    keys = unwrap_flight_key(private_key, records, unwrap)
    return [keys.open(records[i]) for i in select]


class StreamOpener:
    """Opens one flight's records incrementally, as they arrive.

    The first record fixes the mode: exactly ``k`` bytes is a paper-mode
    flight (each record decrypts on arrival); anything else is an envelope
    flight, whose records wait until the index-0 record arrives and its
    key is unwrapped — once.  :meth:`push` returns the payloads the
    record released, in arrival order.
    """

    def __init__(self, private_key: RsaPrivateKey,
                 unwrap: Unwrap = decrypt_pkcs1_v15):
        self._private_key = private_key
        self._unwrap = unwrap
        self._envelope: bool | None = None
        self._keys: FlightKey | None = None
        self._held: list[EnvelopeRecord] = []

    def push(self, ciphertext: bytes) -> list[bytes]:
        """Take one record; raises :class:`EncryptionError` if malformed."""
        k = self._private_key.byte_length
        if self._envelope is None:
            self._envelope = len(ciphertext) != k
        if not self._envelope:
            return [self._unwrap(self._private_key, ciphertext)]
        record = EnvelopeRecord(ciphertext, k)
        if self._keys is None:
            self._held.append(record)
            if record.wrapped_key is None:
                return []
            self._keys = unwrap_flight_key(self._private_key, [record],
                                           self._unwrap)
            released, self._held = self._held, []
            return [self._keys.open(r) for r in released]
        return [self._keys.open(record)]
