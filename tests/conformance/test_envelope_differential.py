"""Differential conformance of the record layer: engine vs reference opener.

For each input the audit engine (through ``AuditEngine.audit_batch``, with
its payload cache warm from earlier flights) and the independent
``reference_open_records`` must open identical payloads, or both fail with
a typed error — the engine's ``DECRYPT_FAILED`` verdict, the reference's
:class:`EncryptionError`.  ``decrypt_poa`` is held to the same answer.
"""

from __future__ import annotations

import random

import pytest

from repro.conformance import reference_open_records
from repro.core.nfz import NoFlyZone
from repro.core.poa import (
    EncryptedPoaRecord,
    ProofOfAlibi,
    SignedSample,
    decrypt_poa,
    encrypt_poa,
)
from repro.core.protocol import PoaSubmission
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier, RejectionReason
from repro.crypto.envelope import RECORD_MODE_RSAES
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.errors import EncryptionError
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


def honest_poa(frame, key, n: int, offset: float) -> ProofOfAlibi:
    entries = []
    for i in range(n):
        point = frame.to_geo(400.0 + offset + 15.0 * i, 60.0)
        payload = GpsSample(point.lat, point.lon, T0 + i).to_signed_payload()
        entries.append(SignedSample(payload, sign_pkcs1_v15(key, payload)))
    return ProofOfAlibi(entries)


def flip(blob: bytes, position: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ 0x40]) + blob[position + 1:]


def with_ciphertexts(records, ciphertexts):
    return [EncryptedPoaRecord(c, r.signature)
            for c, r in zip(ciphertexts, records)]


def flights(frame, signing_key, encryption_key):
    """Named record lists: honest flights first, then the hostile ones."""
    public = encryption_key.public_key
    k = encryption_key.byte_length
    a = encrypt_poa(honest_poa(frame, signing_key, 5, 0.0), public,
                    rng=random.Random(1))
    b = encrypt_poa(honest_poa(frame, signing_key, 5, 0.0), public,
                    rng=random.Random(2))
    c = encrypt_poa(honest_poa(frame, signing_key, 3, 300.0), public,
                    rng=random.Random(3))
    paper = encrypt_poa(honest_poa(frame, signing_key, 4, 600.0), public,
                        rng=random.Random(4), record_mode=RECORD_MODE_RSAES)
    cts = [r.ciphertext for r in a]
    key_record = cts[0]
    cases = {
        "honest_a": a,
        "honest_b": b,
        "honest_c": c,
        "paper": paper,
        "tag_tamper": with_ciphertexts(
            a, cts[:2] + [flip(cts[2], len(cts[2]) - 1)] + cts[3:]),
        "body_tamper": with_ciphertexts(
            a, cts[:1] + [flip(cts[1], 5)] + cts[2:]),
        "key_record_body_tamper": with_ciphertexts(
            a, [flip(key_record, 3 + k + 2)] + cts[1:]),
        "wrapped_key_tamper": with_ciphertexts(
            a, [flip(key_record, 3 + k // 2)] + cts[1:]),
        "wrapped_key_swap": with_ciphertexts(
            a, [key_record[:3] + b[0].ciphertext[3:3 + k]
                + key_record[3 + k:]] + cts[1:]),
        "cross_flight_splice": a[:2] + [b[2]] + a[3:],
        "foreign_key_record": [b[0]] + a[1:],
        "truncated_tail": a[:3],
        "key_record_only": a[:1],
        "missing_key_record": a[1:],
        "reordered": a[::-1],
        "rotated": a[2:] + a[:2],
        "duplicated": a + a[1:2],
        "paper_reordered": paper[::-1],
        "paper_tamper": with_ciphertexts(
            paper, [flip(paper[0].ciphertext, 9)]
            + [r.ciphertext for r in paper[1:]]),
        "paper_truncated": paper[:2],
        "mixed_modes": paper[:2] + a[:2],
        "truncated_record": with_ciphertexts(
            a, cts[:1] + [cts[1][:5]] + cts[2:]),
        "empty_records": with_ciphertexts(a[:2], [b"", b""]),
    }
    return cases


@pytest.fixture(scope="module")
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


def test_engine_and_reference_open_identically(frame, signing_key, other_key,
                                               zone):
    from repro.server.engine import AuditEngine

    encryption_key = other_key
    engine = AuditEngine(PoaVerifier(frame),
                         tee_key_lookup=lambda d: signing_key.public_key,
                         encryption_key=encryption_key,
                         zones_provider=lambda: [zone])
    cases = flights(frame, signing_key, encryption_key)
    # Twice through one engine: the second pass runs on a warm payload
    # cache, which must not open anything the reference refuses.
    for round_ in range(2):
        submissions = [
            PoaSubmission(drone_id="drone-1", flight_id=f"{name}-{round_}",
                          records=records, claimed_start=T0,
                          claimed_end=T0 + 10.0)
            for name, records in cases.items()]
        outcomes = engine.audit_batch(submissions).outcomes
        for (name, records), outcome in zip(cases.items(), outcomes):
            ciphertexts = [r.ciphertext for r in records]
            try:
                want = reference_open_records(encryption_key, ciphertexts)
            except EncryptionError:
                want = None
            if want is None:
                assert outcome.report.reason is \
                    RejectionReason.DECRYPT_FAILED, name
                with pytest.raises(EncryptionError):
                    decrypt_poa(records, encryption_key)
            else:
                assert outcome.poa is not None, (name, outcome.report)
                assert [e.payload for e in outcome.poa] == want, name
                assert [e.payload for e in
                        decrypt_poa(records, encryption_key)] == want, name


def test_hostile_cases_are_refused_by_the_reference(frame, signing_key,
                                                    other_key):
    """The differential above must not pass vacuously: the hostile inputs
    the reference refuses are exactly the ones meant to fail."""
    cases = flights(frame, signing_key, other_key)
    refused = set()
    for name, records in cases.items():
        try:
            reference_open_records(other_key,
                                   [r.ciphertext for r in records])
        except EncryptionError:
            refused.add(name)
    assert refused == {
        "tag_tamper", "body_tamper", "key_record_body_tamper",
        "wrapped_key_tamper", "wrapped_key_swap", "cross_flight_splice",
        "foreign_key_record", "missing_key_record", "paper_tamper",
        "mixed_modes", "truncated_record", "empty_records"}
