"""Micro-benchmarks of the Auditor-side verification pipeline."""

from __future__ import annotations

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample, decrypt_poa, encrypt_poa
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier
from repro.crypto.envelope import RECORD_MODE_ENVELOPE, RECORD_MODE_RSAES
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.crypto.rsa import generate_rsa_keypair
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH
FRAME = LocalFrame(GeoPoint(40.1, -88.22))


@pytest.fixture(scope="module")
def poa_and_zone(rsa_1024):
    center = FRAME.to_geo(0.0, 0.0)
    zone = NoFlyZone(center.lat, center.lon, 50.0)
    entries = []
    for i in range(100):
        point = FRAME.to_geo(300.0 + 10.0 * i, 0.0)
        sample = GpsSample(lat=point.lat, lon=point.lon, t=T0 + i)
        payload = sample.to_signed_payload()
        entries.append(SignedSample(
            payload=payload, signature=sign_pkcs1_v15(rsa_1024, payload)))
    return ProofOfAlibi(entries), zone


def test_verify_100_sample_poa(benchmark, poa_and_zone, rsa_1024):
    """Full pipeline: 100 signatures + feasibility + sufficiency."""
    poa, zone = poa_and_zone
    verifier = PoaVerifier(FRAME)
    report = benchmark(verifier.verify, poa, rsa_1024.public_key, [zone])
    assert report.compliant


def test_signature_stage_only(benchmark, poa_and_zone, rsa_1024):
    poa, _ = poa_and_zone
    verifier = PoaVerifier(FRAME)
    assert benchmark(verifier.check_signatures, poa,
                     rsa_1024.public_key) == []


@pytest.fixture(scope="module")
def encryption_keys(rsa_1024, rsa_2048):
    return {512: generate_rsa_keypair(512, rng=random.Random(5)),
            1024: rsa_1024, 2048: rsa_2048}


@pytest.mark.parametrize("bits", [512, 1024, 2048])
@pytest.mark.parametrize("record_mode", [RECORD_MODE_ENVELOPE,
                                         RECORD_MODE_RSAES])
def test_poa_decrypt_stage(benchmark, poa_and_zone, encryption_keys, bits,
                           record_mode):
    """Server-side decryption of a 100-record submission: the per-flight
    envelope (one RSA unwrap) against the paper's per-record RSAES."""
    poa, _ = poa_and_zone
    key = encryption_keys[bits]
    records = encrypt_poa(poa, key.public_key, rng=random.Random(1),
                          record_mode=record_mode)
    restored = benchmark.pedantic(decrypt_poa, args=(records, key),
                                  rounds=3, iterations=1)
    assert restored.entries == poa.entries


def test_poa_serialization(benchmark, poa_and_zone):
    poa, _ = poa_and_zone
    data = poa.to_bytes()
    benchmark(ProofOfAlibi.from_bytes, data)
