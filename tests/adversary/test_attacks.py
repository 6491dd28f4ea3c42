"""The adversary matrix: every attack class rejected, zero false accepts.

A full 22-attack x 3-scenario sweep runs in CI (conformance-smoke); the
tier-1 suite keeps one scenario so the matrix semantics — expected
outcomes, control flights, stats bookkeeping, JSON shape — are pinned on
every push without the CI-scale runtime.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import (
    AttackReport,
    AttackStats,
    builtin_attacks,
    run_matrix,
)
from repro.adversary.attacks import AttackResult
from repro.adversary.matrix import _incursion_interval
from repro.workloads import build_violation_variants

EXPECTED_ATTACKS = {
    "suppress_incursion", "truncate_at_incursion", "replay_previous_flight",
    "window_lie", "relay_foreign_drone", "tamper_position",
    "bitflip_signature", "timestamp_reorder", "clock_skew_forgery",
    "teleport_spoof", "chain_truncation", "chain_splice",
    "chain_mac_forgery", "merkle_omitted_leaves", "merkle_over_redaction",
    "merkle_cross_flight_splice", "merkle_forged_sibling",
    "envelope_tag_tamper", "wrapped_key_swap", "cross_flight_record_splice",
    "nonce_replay", "key_extraction",
}


@pytest.fixture(scope="module")
def report() -> AttackReport:
    return run_matrix(scenarios=build_violation_variants(0)[:1], seed=0)


class TestMatrixInvariants:
    def test_covers_every_builtin_attack(self, report):
        assert {cell.attack for cell in report.cells} == EXPECTED_ATTACKS
        assert len(builtin_attacks()) == len(EXPECTED_ATTACKS)

    def test_zero_false_accepts(self, report):
        offenders = [cell.attack for cell in report.cells
                     if cell.result.false_accept]
        assert offenders == []
        assert report.stats.false_accepts == 0

    def test_every_outcome_is_expected(self, report):
        for cell in report.cells:
            assert cell.expected_ok, (
                f"{cell.attack}: outcome {cell.result.outcome!r} "
                f"not in expected {cell.expected}")
        assert report.stats.unexpected_outcomes == 0

    def test_controls_pass(self, report):
        # Per scenario: a compliant flight must be ACCEPTED and the raw
        # violation flight must be flagged — otherwise "attack rejected"
        # could just mean "the verifier rejects everything".
        assert len(report.controls) == 2
        for control in report.controls:
            assert control["ok"], control

    def test_stats_bookkeeping(self, report):
        stats = report.stats
        assert stats.attacks_run == len(report.cells)
        assert stats.rejected == stats.attacks_run
        assert sum(stats.by_outcome.values()) == stats.attacks_run
        # Distinct rejection mechanisms must all appear — the matrix is
        # not allowed to collapse onto a single defensive layer.
        assert {"bad_signature", "no_poa", "out_of_order",
                "nonce_replayed", "world_isolation"} <= set(stats.by_outcome)

    def test_record_layer_attacks_die_at_decryption(self, report):
        outcomes = {cell.attack: cell.result.outcome for cell in report.cells
                    if cell.attack in ("envelope_tag_tamper",
                                       "wrapped_key_swap",
                                       "cross_flight_record_splice")}
        assert outcomes == {"envelope_tag_tamper": "decrypt_failed",
                            "wrapped_key_swap": "decrypt_failed",
                            "cross_flight_record_splice": "decrypt_failed"}

    def test_report_ok_and_serializable(self, report):
        assert report.ok
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["invariants"] == {"false_accepts": [],
                                         "unexpected_outcomes": [],
                                         "control_failures": []}
        json.dumps(payload)  # must be pure-JSON, no enum/dataclass leakage


class TestAttackStats:
    def test_record_tallies_outcomes(self):
        stats = AttackStats()
        stats.record(AttackResult(outcome="bad_signature", accepted=False,
                                  cleared=False, detail=""), expected_ok=True)
        stats.record(AttackResult(outcome="bad_signature", accepted=False,
                                  cleared=False, detail=""), expected_ok=True)
        stats.record(AttackResult(outcome="surprise", accepted=False,
                                  cleared=False, detail=""), expected_ok=False)
        assert stats.attacks_run == 3
        assert stats.rejected == 3
        assert stats.false_accepts == 0
        assert stats.unexpected_outcomes == 1
        assert stats.by_outcome == {"bad_signature": 2, "surprise": 1}

    def test_record_counts_false_accept(self):
        stats = AttackStats()
        stats.record(AttackResult(outcome="false_accept", accepted=True,
                                  cleared=True, detail=""), expected_ok=False)
        assert stats.false_accepts == 1
        assert stats.rejected == 0


class TestViolationVariants:
    def test_three_distinct_geometries(self):
        variants = build_violation_variants(seed=4)
        assert len(variants) == 3
        names = {scenario.name for scenario in variants}
        assert names == {"violation-straight-4", "violation-diagonal-4",
                         "violation-edge-clip-4"}

    @pytest.mark.parametrize("index", range(3))
    def test_each_variant_enters_the_zone(self, index):
        scenario = build_violation_variants(seed=1)[index]
        assert len(scenario.zones) == 1
        interval = _incursion_interval(scenario)
        assert interval is not None
        start, end = interval
        assert scenario.t_start <= start < end <= scenario.t_end

    def test_t0_is_offset_from_default_epoch(self):
        from repro.sim.clock import DEFAULT_EPOCH
        scenario = build_violation_variants(seed=0)[0]
        # A full day after the shared epoch: replayed old flights land in
        # a disjoint window yet inside the server's retention horizon.
        assert scenario.t_start == pytest.approx(DEFAULT_EPOCH + 86400.0)
