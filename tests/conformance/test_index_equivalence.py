"""Decision equivalence: zone-indexed paths vs. exhaustive scans.

PR 3 introduced :class:`ZoneProximityIndex` as a pure accelerator — it
must never change a verdict.  These tests pin that down on both sides of
the system: the verification pipeline (indexed vs. linear sufficiency
scan) and the adaptive on-drone sampler (indexed vs. exhaustive zone
distance queries).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.conformance import run_sampler_equivalence
from repro.conformance.harness import (
    _poa_digest,
    random_honest_poa,
    random_zones,
)
from repro.core.verification import PoaVerifier
from repro.gps.receiver import SimulatedGpsReceiver
from repro.workloads import run_policy
from repro.workloads.national import build_national_scenario
from repro.workloads.scenario import Scenario


@pytest.fixture(scope="module")
def verifier(frame) -> PoaVerifier:
    return PoaVerifier(frame)


@pytest.mark.parametrize("seed", range(6))
def test_pipeline_reports_identical_with_and_without_index(
        verifier, frame, signing_key, seed):
    rng = random.Random(seed)
    # Enough zones that the index path actually engages its grid, not a
    # degenerate one-zone shortcut.
    zones = random_zones(rng, frame, 8 + rng.randint(0, 6))
    poa = random_honest_poa(rng, frame, signing_key, max_samples=8)

    default = verifier.verify(poa, signing_key.public_key, zones)
    with_index = verifier.pipeline().run(
        verifier.context(poa, signing_key.public_key, zones,
                         use_zone_index=True))
    without_index = verifier.pipeline().run(
        verifier.context(poa, signing_key.public_key, zones,
                         use_zone_index=False))

    assert with_index == without_index
    assert default == without_index


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_adaptive_sampler_is_index_invariant(seed):
    result = run_sampler_equivalence(seed=seed)
    assert result["sample_times_equal"] is True
    assert result["poa_digest_equal"] is True
    # The run must be non-trivial for the equality to mean anything.
    assert result["samples_with_index"] > 2
    assert result["samples_with_index"] == result["samples_without_index"]


@dataclasses.dataclass
class JitteredScenario(Scenario):
    """A scenario whose receiver also jitters its update instants."""

    jitter_std_s: float = 0.05

    def make_receiver(self, update_rate_hz: float = 5.0, seed: int = 0,
                      injector=None) -> SimulatedGpsReceiver:
        return SimulatedGpsReceiver(
            source=self.source, frame=self.frame,
            update_rate_hz=update_rate_hz, start_time=self.t_start,
            noise_std_m=self.gps_noise_std_m,
            miss_probability=self.gps_miss_probability,
            jitter_std_s=self.jitter_std_s, seed=seed, injector=injector)


@pytest.mark.parametrize("seed", [0, 7])
def test_national_corridor_sampler_is_index_invariant(seed):
    """A dense national corridor (many zones per ring, many cell changes,
    revisited cells) through a jittered, lossy receiver: the memoised
    index path and the exhaustive scan sample at the same instants and
    sign the same bytes."""
    base = build_national_scenario(seed=seed, n_zones=240,
                                   corridor_length_m=1500.0)
    scenario = JitteredScenario(
        **{f.name: getattr(base, f.name)
           for f in dataclasses.fields(Scenario)} | {
            "gps_miss_probability": 0.1})
    runs = [run_policy(scenario, "adaptive", key_bits=512, seed=seed,
                       use_index=use_index)
            for use_index in (True, False)]
    with_index, without = runs
    assert with_index.receiver.updates_missed > 0
    assert with_index.sample_count > 2
    assert with_index.sample_times == without.sample_times
    assert (_poa_digest(with_index.result.poa)
            == _poa_digest(without.result.poa))
