"""Ablation: per-sample RSA vs sign-all-at-once vs symmetric HMAC (§VII-A1).

The paper proposes two remedies for the RSA bottleneck: flight-scoped
symmetric keys, and buffering the trace in secure memory to sign once.
This bench replays the residential adaptive sample schedule under all
three schemes and compares signing work, modelled Pi CPU, and the batch
scheme's secure-memory cost.
"""

from __future__ import annotations

import random
import time

from repro.crypto.hmac_sign import generate_hmac_key, hmac_sign
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.crypto.schemes import SCHEME_BATCH, authenticate_payloads
from repro.perf.costs import RASPBERRY_PI_3
from repro.perf.cpu import CpuUtilizationModel
from repro.perf.memory import RASPBERRY_PI_MEMORY
from repro.workloads import run_policy


def test_signing_scheme_ablation(benchmark, residential_scenario, emit,
                                 rsa_1024):
    scenario = residential_scenario
    run = run_policy(scenario, "adaptive", key_bits=512, seed=0)
    payloads = [entry.payload for entry in run.result.poa]
    hmac_key = generate_hmac_key(random.Random(5))

    def per_sample_rsa():
        for payload in payloads:
            sign_pkcs1_v15(rsa_1024, payload)

    def batch_rsa():
        authenticate_payloads(rsa_1024, payloads, SCHEME_BATCH)

    def per_sample_hmac():
        for payload in payloads:
            hmac_sign(hmac_key, payload)

    timings = {}
    for name, fn in [("per-sample RSA", per_sample_rsa),
                     ("batch RSA", batch_rsa),
                     ("per-sample HMAC", per_sample_hmac)]:
        start = time.perf_counter()
        fn()
        timings[name] = time.perf_counter() - start

    benchmark.pedantic(per_sample_hmac, rounds=3, iterations=1)

    model = CpuUtilizationModel(RASPBERRY_PI_3)
    pi_cpu_per_sample = model.mean_utilization_fraction(
        len(payloads), 1024, scenario.duration) * 100.0
    pi_cpu_batch = model.mean_utilization_fraction(
        1, 1024, scenario.duration) * 100.0
    batch_memory = RASPBERRY_PI_MEMORY.resident_mb(
        buffered_samples=len(payloads))

    emit("Ablation — signing schemes over the residential adaptive schedule\n"
         f"  samples signed         : {len(payloads)}\n"
         f"  per-sample RSA-1024    : {timings['per-sample RSA'] * 1e3:8.1f} ms"
         f"  (modelled Pi CPU {pi_cpu_per_sample:.2f}%)\n"
         f"  sign-all-at-once RSA   : {timings['batch RSA'] * 1e3:8.1f} ms"
         f"  (modelled Pi CPU {pi_cpu_batch:.3f}%, secure buffer "
         f"{batch_memory:.2f} MB)\n"
         f"  per-sample HMAC-SHA256 : {timings['per-sample HMAC'] * 1e3:8.2f} ms"
         f"  ({timings['per-sample RSA'] / max(timings['per-sample HMAC'], 1e-9):,.0f}x "
         f"cheaper than RSA)")

    assert timings["batch RSA"] < timings["per-sample RSA"]
    assert timings["per-sample HMAC"] < timings["per-sample RSA"] / 50.0
