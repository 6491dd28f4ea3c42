"""The per-flight hybrid record envelope (``repro.crypto.envelope``)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.poa import (
    ProofOfAlibi,
    SignedSample,
    decrypt_poa,
    encrypt_poa,
)
from repro.crypto.envelope import (
    ENVELOPE_VERSION,
    MAX_RECORDS,
    RECORD_MODE_RSAES,
    TAG_BYTES,
    StreamOpener,
    is_envelope_flight,
    open_records,
    seal_records,
)
from repro.crypto.pkcs1 import decrypt_pkcs1_v15
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import ConfigurationError, EncryptionError

PAYLOADS = [bytes([i]) * 36 for i in range(5)]


@pytest.fixture(scope="module")
def keys_by_bits(other_key):
    return {512: other_key,
            1024: generate_rsa_keypair(1024, rng=random.Random(1024)),
            2048: generate_rsa_keypair(2048, rng=random.Random(2048))}


def counting_unwrap(calls):
    def unwrap(key, ciphertext):
        calls.append(len(ciphertext))
        return decrypt_pkcs1_v15(key, ciphertext)
    return unwrap


def flip(blob: bytes, position: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ 0x01]) + blob[position + 1:]


class TestLayout:
    def test_key_record_carries_version_and_wrapped_key(self, other_key):
        k = other_key.byte_length
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(1))
        assert len(records[0]) == 2 + 1 + k + 36 + TAG_BYTES
        assert records[0][:3] == b"\x00\x00" + bytes([ENVELOPE_VERSION])
        for index, record in enumerate(records[1:], start=1):
            assert len(record) == 2 + 36 + TAG_BYTES
            assert record[:2] == index.to_bytes(2, "big")

    def test_detection_rule(self, other_key):
        k = other_key.byte_length
        envelope = seal_records(other_key.public_key, PAYLOADS,
                                rng=random.Random(1))
        poa = ProofOfAlibi(SignedSample(p, b"") for p in PAYLOADS)
        paper = [r.ciphertext for r in encrypt_poa(
            poa, other_key.public_key, rng=random.Random(1),
            record_mode=RECORD_MODE_RSAES)]
        assert all(len(c) == k for c in paper)
        assert not is_envelope_flight(paper, k)
        assert is_envelope_flight(envelope, k)
        assert not is_envelope_flight([], k)

    def test_smaller_than_paper_mode_for_a_short_512_bit_flight(self,
                                                                other_key):
        records = seal_records(other_key.public_key, PAYLOADS[:4],
                               rng=random.Random(1))
        assert sum(map(len, records)) < 4 * other_key.byte_length

    def test_unknown_record_mode_is_refused(self, other_key):
        with pytest.raises(ConfigurationError):
            encrypt_poa(ProofOfAlibi(), other_key.public_key,
                        record_mode="rot13")

    def test_record_count_bound(self, other_key):
        with pytest.raises(EncryptionError):
            seal_records(other_key.public_key, [b""] * (MAX_RECORDS + 1))

    def test_system_randomness_by_default(self, other_key):
        a = seal_records(other_key.public_key, PAYLOADS)
        b = seal_records(other_key.public_key, PAYLOADS)
        assert a != b
        assert open_records(other_key, a) == open_records(other_key, b)


class TestOpening:
    def test_one_unwrap_per_envelope_flight(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(2))
        calls = []
        assert open_records(other_key, records,
                            unwrap=counting_unwrap(calls)) == PAYLOADS
        assert len(calls) == 1

    def test_paper_mode_unwraps_every_record(self, other_key):
        poa = ProofOfAlibi(SignedSample(p, b"") for p in PAYLOADS)
        records = [r.ciphertext for r in encrypt_poa(
            poa, other_key.public_key, rng=random.Random(2),
            record_mode=RECORD_MODE_RSAES)]
        calls = []
        assert open_records(other_key, records,
                            unwrap=counting_unwrap(calls)) == PAYLOADS
        assert len(calls) == len(PAYLOADS)

    def test_records_open_independently(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(3))
        assert open_records(other_key, records[::-1]) == PAYLOADS[::-1]
        assert open_records(other_key, records[:1]) == PAYLOADS[:1]
        assert open_records(other_key, [records[3], records[0]]) == \
            [PAYLOADS[3], PAYLOADS[0]]
        assert open_records(other_key, records + records[2:3]) == \
            PAYLOADS + PAYLOADS[2:3]

    def test_select_opens_a_subset(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(3))
        assert open_records(other_key, records, select=[4, 1]) == \
            [PAYLOADS[4], PAYLOADS[1]]

    def test_missing_key_record_fails(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(4))
        with pytest.raises(EncryptionError, match="key record"):
            open_records(other_key, records[1:])

    def test_unknown_version_fails(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(4))
        records[0] = records[0][:2] + b"\x09" + records[0][3:]
        with pytest.raises(EncryptionError, match="version"):
            open_records(other_key, records)

    def test_every_single_byte_flip_fails(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS[:3],
                               rng=random.Random(5))
        for which, record in enumerate(records):
            for position in range(len(record)):
                mutated = list(records)
                mutated[which] = flip(record, position)
                with pytest.raises(EncryptionError):
                    open_records(other_key, mutated)

    def test_wrong_auditor_key_fails(self, other_key, signing_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(6))
        with pytest.raises(EncryptionError):
            open_records(signing_key, records)

    def test_decrypt_poa_opens_both_modes(self, other_key):
        poa = ProofOfAlibi(SignedSample(p, bytes([i]))
                           for i, p in enumerate(PAYLOADS))
        for mode in ("envelope", RECORD_MODE_RSAES):
            records = encrypt_poa(poa, other_key.public_key,
                                  rng=random.Random(7), record_mode=mode)
            restored = decrypt_poa(records, other_key)
            assert restored.entries == poa.entries


class TestStreamOpener:
    def test_in_order_stream_opens_each_record_on_arrival(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(8))
        calls = []
        opener = StreamOpener(other_key, unwrap=counting_unwrap(calls))
        assert [opener.push(r) for r in records] == [[p] for p in PAYLOADS]
        assert len(calls) == 1

    def test_records_before_the_key_record_are_held(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(9))
        opener = StreamOpener(other_key)
        assert opener.push(records[2]) == []
        assert opener.push(records[1]) == []
        assert opener.push(records[0]) == [PAYLOADS[2], PAYLOADS[1],
                                           PAYLOADS[0]]
        assert opener.push(records[3]) == [PAYLOADS[3]]

    def test_paper_mode_stream(self, other_key):
        poa = ProofOfAlibi(SignedSample(p, b"") for p in PAYLOADS)
        records = encrypt_poa(poa, other_key.public_key,
                              rng=random.Random(10),
                              record_mode=RECORD_MODE_RSAES)
        opener = StreamOpener(other_key)
        assert [opener.push(r.ciphertext) for r in records] == \
            [[p] for p in PAYLOADS]

    def test_tampered_record_fails_typed(self, other_key):
        records = seal_records(other_key.public_key, PAYLOADS,
                               rng=random.Random(11))
        opener = StreamOpener(other_key)
        opener.push(records[0])
        with pytest.raises(EncryptionError):
            opener.push(flip(records[1], len(records[1]) - 1))


class TestRoundTripProperty:
    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    @given(payloads=st.lists(st.binary(max_size=100), max_size=8),
           seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_seal_then_open(self, keys_by_bits, bits, payloads, seed):
        key = keys_by_bits[bits]
        records = seal_records(key.public_key, payloads,
                               rng=random.Random(seed))
        assert open_records(key, records) == payloads
        opener = StreamOpener(key)
        streamed = [p for r in records for p in opener.push(r)]
        assert streamed == payloads
