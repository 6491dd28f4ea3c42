"""Hostile bytes at the record-envelope boundary end in a typed rejection.

Arbitrary and mutated envelope records go through ``decrypt_poa`` and
through the durable ``AuditorService.submit`` + ``drain`` path.  The only
failure either may show is :class:`EncryptionError` (``decrypt_poa``) or
a ``decrypt_failed`` verdict (the service) — never another exception —
and whenever the independent reference opener does open the records,
both paths open exactly its payloads.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import reference_open_records
from repro.core.nfz import NoFlyZone
from repro.core.poa import (
    EncryptedPoaRecord,
    ProofOfAlibi,
    SignedSample,
    decrypt_poa,
    encrypt_poa,
)
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.samples import GpsSample
from repro.core.verification import RejectionReason
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.errors import EncryptionError
from repro.server.service import OUTCOME_ACCEPTED, AuditorService
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH
_flight_ids = itertools.count()


@pytest.fixture(scope="module")
def honest(frame, signing_key, other_key):
    entries = []
    for i in range(4):
        point = frame.to_geo(300.0 + 15.0 * i, 80.0)
        payload = GpsSample(point.lat, point.lon, T0 + i).to_signed_payload()
        entries.append(SignedSample(payload, sign_pkcs1_v15(signing_key,
                                                            payload)))
    return encrypt_poa(ProofOfAlibi(entries), other_key.public_key,
                       rng=random.Random(77))


@pytest.fixture(scope="module")
def service(frame, signing_key, other_key, vendor_key):
    service = AuditorService(frame, encryption_key=other_key)
    center = frame.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
    service.drone_id = service.register_drone(DroneRegistrationRequest(
        operator_public_key=vendor_key.public_key,
        tee_public_key=signing_key.public_key), now=T0)
    yield service
    service.close()


def reference(key, records):
    try:
        return reference_open_records(key, [r.ciphertext for r in records])
    except EncryptionError:
        return None


def check_decrypt_poa(key, records):
    want = reference(key, records)
    try:
        got = [entry.payload for entry in decrypt_poa(records, key)]
    except EncryptionError:
        got = None
    assert got == want


def check_service(service, records):
    want = reference(service._encryption_key, records)
    decision = service.submit(PoaSubmission(
        drone_id=service.drone_id, flight_id=f"fuzz-{next(_flight_ids)}",
        records=records, claimed_start=T0, claimed_end=T0 + 3.0), now=T0)
    assert decision.outcome == OUTCOME_ACCEPTED
    (audited,) = service.drain(now=T0)
    outcome = audited.outcome
    assert outcome.report is not None, outcome.error
    if want is None:
        assert outcome.report.reason is RejectionReason.DECRYPT_FAILED
    else:
        assert [entry.payload for entry in outcome.poa] == want


ciphertexts = st.lists(st.binary(max_size=160), max_size=5)
signatures = st.binary(max_size=80)


@st.composite
def mutated(draw, records):
    """An honest envelope flight after one to three hostile edits."""
    cts = [r.ciphertext for r in records]
    sigs = [r.signature for r in records]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(
            ["flip", "truncate", "extend", "drop", "duplicate", "swap",
             "replace", "set_index"]))
        if not cts:
            break
        i = draw(st.integers(0, len(cts) - 1))
        if edit == "flip" and cts[i]:
            pos = draw(st.integers(0, len(cts[i]) - 1))
            value = draw(st.integers(1, 255))
            cts[i] = cts[i][:pos] + bytes([cts[i][pos] ^ value]) \
                + cts[i][pos + 1:]
        elif edit == "truncate":
            cts[i] = cts[i][:draw(st.integers(0, len(cts[i])))]
        elif edit == "extend":
            cts[i] = cts[i] + draw(st.binary(min_size=1, max_size=16))
        elif edit == "drop":
            del cts[i], sigs[i]
        elif edit == "duplicate":
            cts.append(cts[i])
            sigs.append(sigs[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(cts) - 1))
            cts[i], cts[j] = cts[j], cts[i]
        elif edit == "replace":
            cts[i] = draw(st.binary(max_size=160))
        elif edit == "set_index":
            cts[i] = draw(st.binary(min_size=2, max_size=2)) + cts[i][2:]
    return [EncryptedPoaRecord(c, s) for c, s in zip(cts, sigs)]


class TestArbitraryRecords:
    @given(cts=ciphertexts, sig=signatures)
    @settings(max_examples=150, deadline=None)
    def test_decrypt_poa_only_raises_encryption_error(self, other_key, cts,
                                                      sig):
        check_decrypt_poa(other_key,
                          [EncryptedPoaRecord(c, sig) for c in cts])

    @given(cts=ciphertexts, sig=signatures)
    @settings(max_examples=60, deadline=None)
    def test_service_verdicts_decrypt_failed(self, service, cts, sig):
        check_service(service, [EncryptedPoaRecord(c, sig) for c in cts])


class TestMutatedEnvelopes:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_decrypt_poa_matches_reference(self, other_key, honest, data):
        check_decrypt_poa(other_key, data.draw(mutated(honest)))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_service_matches_reference(self, service, honest, data):
        check_service(service, data.draw(mutated(honest)))

    def test_honest_flight_opens(self, service, other_key, honest):
        assert reference(other_key, honest) is not None
        check_decrypt_poa(other_key, honest)
        check_service(service, honest)
