"""Tests for the behavioral-property oracles (MP, RP, winning ratios)."""

from dataclasses import dataclass

import pytest

from repro.core.properties import (
    find_mp_witness,
    responder_wins_suffix,
    responsive_processes,
    rounds_by_querier,
    winning_ratio,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FakeRound:
    querier: int
    round_id: int
    winners: frozenset


@dataclass(frozen=True)
class GraceRound(FakeRound):
    responders: tuple


def round_of(querier, round_id, winners):
    return FakeRound(querier, round_id, frozenset(winners))


class TestGrouping:
    def test_rounds_grouped_in_order(self):
        rounds = [
            round_of(1, 1, {1}),
            round_of(2, 1, {2}),
            round_of(1, 2, {1, 3}),
        ]
        grouped = rounds_by_querier(rounds)
        assert [r.round_id for r in grouped[1]] == [1, 2]
        assert [r.round_id for r in grouped[2]] == [1]


class TestSuffixWins:
    def test_wins_last_rounds(self):
        rounds = [round_of(1, i, {1, 9}) for i in range(1, 4)]
        assert responder_wins_suffix(rounds, 9, suffix=3)

    def test_early_loss_is_forgiven(self):
        rounds = [round_of(1, 1, {1})] + [round_of(1, i, {1, 9}) for i in (2, 3)]
        assert responder_wins_suffix(rounds, 9, suffix=2)
        assert not responder_wins_suffix(rounds, 9, suffix=3)

    def test_insufficient_evidence_fails(self):
        rounds = [round_of(1, 1, {1, 9})]
        assert not responder_wins_suffix(rounds, 9, suffix=2)

    def test_suffix_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            responder_wins_suffix([], 9, suffix=0)

    def test_a_late_loss_breaks_the_suffix(self):
        rounds = [round_of(1, i, {1, 9}) for i in range(1, 5)] + [round_of(1, 5, {1})]
        assert not responder_wins_suffix(rounds, 9, suffix=1)

    def test_non_strict_counts_grace_extras(self):
        # 9 responded, but only after the first-quorum winner set closed.
        rounds = [GraceRound(1, 1, frozenset({1, 2}), (1, 2, 9))]
        assert not responder_wins_suffix(rounds, 9, suffix=1)
        assert responder_wins_suffix(rounds, 9, suffix=1, strict=False)


class TestMPWitness:
    def test_witness_found_when_one_process_wins_f_plus_one_queriers(self):
        # p9 wins the (only) round of queriers 1, 2 — enough for f = 1.
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(2, 1, {2, 9}),
            round_of(3, 1, {3, 4}),
        ]
        witness = find_mp_witness(rounds, f=1, correct=[1, 2, 3, 4, 9])
        assert witness is not None
        assert witness.responder == 9
        assert witness.queriers >= frozenset({1, 2})

    def test_no_witness_when_wins_are_scattered(self):
        rounds = [
            round_of(1, 1, {1, 5}),
            round_of(2, 1, {2, 6}),
            round_of(3, 1, {3, 7}),
        ]
        # Every responder wins at most its own querier (plus queriers win
        # themselves); f = 2 needs three queriers for one responder.
        assert find_mp_witness(rounds, f=2, correct=[1, 2, 3, 5, 6, 7]) is None

    def test_crashed_candidate_is_not_a_witness(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(2, 1, {2, 9}),
        ]
        witness = find_mp_witness(rounds, f=1, correct=[1, 2])  # 9 crashed
        assert witness is None

    def test_querier_counts_toward_q_for_itself(self):
        # A process always wins its own queries, so with f = 1 a responder
        # that wins one other querier plus itself suffices.
        rounds = [
            round_of(9, 1, {9}),
            round_of(1, 1, {1, 9}),
        ]
        witness = find_mp_witness(rounds, f=1, correct=[1, 9])
        assert witness is not None
        assert witness.responder == 9

    def test_limited_scope_accepts_smaller_querier_sets(self):
        # ◇S_x style: 9 wins only one querier — not enough for f+1 = 3,
        # enough for scope 1.
        rounds = [round_of(1, 1, {1, 9}), round_of(2, 1, {2}), round_of(3, 1, {3})]
        assert find_mp_witness(rounds, f=2, correct=[1, 2, 3, 9]) is None
        witness = find_mp_witness(rounds, f=2, correct=[1, 2, 3, 9], scope=1)
        assert witness is not None
        assert witness.responder == 1  # wins its own query; smallest id

    def test_scope_larger_than_f_plus_one_strengthens(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(2, 1, {2, 9}),
            round_of(3, 1, {3}),
        ]
        assert find_mp_witness(rounds, f=1, correct=[1, 2, 3, 9]) is not None
        assert find_mp_witness(rounds, f=1, correct=[1, 2, 3, 9], scope=3) is None

    def test_scope_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            find_mp_witness([], f=1, correct=[1], scope=0)

    def test_suffix_is_checked_per_querier(self):
        # Querier 2 has too short a history to certify 9; querier 1 alone
        # is not enough for f = 1.
        rounds = [round_of(1, i, {1, 9}) for i in range(1, 5)]
        rounds += [round_of(2, 1, {2, 9})]
        assert find_mp_witness(rounds, f=1, correct=[1, 2, 9], min_suffix=3) is None
        rounds += [round_of(2, i, {2, 9}) for i in (2, 3)]
        witness = find_mp_witness(rounds, f=1, correct=[1, 2, 9], min_suffix=3)
        assert witness is not None
        assert witness.responder == 9 and witness.suffix == 3


def run_time_free(latency):
    from repro.sim import QueryPacing, SimCluster
    from repro.sim.cluster import time_free_driver_factory

    cluster = SimCluster(
        n=6,
        driver_factory=time_free_driver_factory(2, QueryPacing(grace=0.01, idle=0.05)),
        latency=latency,
        seed=3,
        start_stagger=0.05,
    )
    cluster.run(until=10.0)
    return cluster


class TestOnARecordedRun:
    """The checker applied to a simulated run's trace, as F3 uses it."""

    def test_a_fast_process_is_the_witness(self):
        from repro.sim import UniformLatency
        from repro.sim.latency import BiasedLatency

        latency = BiasedLatency(
            UniformLatency(0.001, 0.02), frozenset({1}), speedup=8.0, bidirectional=True
        )
        cluster = run_time_free(latency)
        rounds = cluster.trace.rounds
        assert len(rounds) > 50
        witness = find_mp_witness(
            rounds, f=2, correct=cluster.correct_processes(), min_suffix=5
        )
        assert witness is not None and witness.responder == 1
        assert winning_ratio(rounds, 1) == 1.0

    def test_unbiased_delays_give_no_witness(self):
        from repro.sim import UniformLatency

        cluster = run_time_free(UniformLatency(0.001, 0.02))
        witness = find_mp_witness(
            cluster.trace.rounds, f=2, correct=cluster.correct_processes(), min_suffix=5
        )
        assert witness is None


class TestResponsiveProcesses:
    def test_globally_winning_process_is_responsive(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(2, 1, {2, 9}),
            round_of(9, 1, {9}),
        ]
        assert 9 in responsive_processes(rounds, correct=[1, 2, 9])

    def test_missing_one_querier_disqualifies(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(2, 1, {2}),
        ]
        assert 9 not in responsive_processes(rounds, correct=[1, 2, 9])

    def test_empty_trace_has_no_responsive_processes(self):
        assert responsive_processes([], correct=[1, 2]) == frozenset()


class TestWinningRatio:
    def test_ratio_over_all_rounds(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(1, 2, {1}),
            round_of(2, 1, {2, 9}),
        ]
        assert winning_ratio(rounds, 9) == pytest.approx(2 / 3)

    def test_ratio_for_single_querier(self):
        rounds = [
            round_of(1, 1, {1, 9}),
            round_of(1, 2, {1}),
            round_of(2, 1, {2, 9}),
        ]
        assert winning_ratio(rounds, 9, querier=1) == pytest.approx(0.5)

    def test_empty_trace_gives_zero(self):
        assert winning_ratio([], 9) == 0.0
