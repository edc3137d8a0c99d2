"""Reservoir memory: fill phase, uniform retention, batch sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bodl.errors import ConfigError, StateError
from bodl.memory import EpisodicMemory
from bodl.streams import StreamInstance

from oracles import reservoir_final_positions


def offer_stream(mem, count, rng, dim=2):
    for i in range(count):
        mem.maybe_insert(StreamInstance(np.full(dim, float(i)), i % 2, i), rng)


def test_fill_phase_keeps_everything():
    mem = EpisodicMemory(capacity=10)
    offer_stream(mem, 10, np.random.default_rng(0))
    assert len(mem) == 10
    assert [it.position for it in mem.items] == list(range(10))
    assert mem.seen == 10


def test_capacity_never_exceeded():
    mem = EpisodicMemory(capacity=7)
    offer_stream(mem, 500, np.random.default_rng(1))
    assert len(mem) == 7
    assert mem.seen == 500


def test_positions_stay_unique():
    mem = EpisodicMemory(capacity=16)
    offer_stream(mem, 800, np.random.default_rng(2))
    positions = [it.position for it in mem.items]
    assert len(set(positions)) == len(positions)


def test_fixed_seed_reproducible():
    a = EpisodicMemory(capacity=8)
    b = EpisodicMemory(capacity=8)
    offer_stream(a, 300, np.random.default_rng(3))
    offer_stream(b, 300, np.random.default_rng(3))
    assert [it.position for it in a.items] == [it.position for it in b.items]


def test_capacity_one_retention_uniform():
    # with 5 offers, each item should survive with probability 1/5
    runs = 10000
    counts = np.zeros(5, dtype=np.int64)
    for seed in range(runs):
        mem = EpisodicMemory(capacity=1)
        offer_stream(mem, 5, np.random.default_rng(seed))
        counts[mem.items[0].position] += 1
    assert counts.sum() == runs
    assert stats.chisquare(counts).pvalue > 0.01


def test_vectorized_replay_matches_implementation():
    # the acceptance statistics lean on this replay, so it must agree with
    # the real object draw for draw
    capacity, offers = 16, 2000
    for seed in range(30):
        mem = EpisodicMemory(capacity)
        offer_stream(mem, offers, np.random.default_rng(seed))
        got = np.sort(np.array([it.position for it in mem.items]))
        assert np.array_equal(got, reservoir_final_positions(seed, capacity, offers))


def test_inclusion_uniform_across_stream_positions():
    # bin the surviving positions of repeated runs; uniform retention means
    # every segment of the stream is represented equally
    capacity, offers, reps, bins = 64, 10000, 200, 20
    binned = np.zeros(bins, dtype=np.int64)
    for seed in range(reps):
        kept = reservoir_final_positions(10_000 + seed, capacity, offers)
        binned += np.bincount(kept // (offers // bins), minlength=bins)
    assert binned.sum() == capacity * reps
    assert stats.chisquare(binned).pvalue > 0.01


@settings(max_examples=5)
@given(st.integers(1, 40))
def test_algorithm_r_keeps_each_offer_with_probability_capacity_over_n(capacity):
    # Vitter's Algorithm R: after n offers each one is in the reservoir with
    # probability capacity / n, whatever its position in the stream
    offers, seeds = 40, 2000
    kept = np.zeros(offers, dtype=np.int64)
    for seed in range(seeds):
        mem = EpisodicMemory(capacity)
        offer_stream(mem, offers, np.random.default_rng(seed))
        kept[[it.position for it in mem.items]] += 1
    q = capacity / offers
    sd = np.sqrt(seeds * q * (1.0 - q))
    assert kept.sum() == capacity * seeds
    assert np.all(np.abs(kept - seeds * q) <= 4.0 * sd)


def test_sample_batch_empty_k():
    mem = EpisodicMemory(capacity=4)
    offer_stream(mem, 4, np.random.default_rng(5))
    assert mem.sample_batch(0, np.random.default_rng(0)) == []


def test_sample_batch_single_item():
    mem = EpisodicMemory(capacity=4)
    mem.maybe_insert(StreamInstance(np.array([1.0]), 0, 0), np.random.default_rng(6))
    batch = mem.sample_batch(5, np.random.default_rng(7))
    assert len(batch) == 5
    assert all(b.position == 0 for b in batch)


def test_sample_batch_empty_memory_rejected():
    with pytest.raises(StateError):
        EpisodicMemory(capacity=4).sample_batch(3, np.random.default_rng(0))


def test_sample_batch_uniform_with_replacement():
    mem = EpisodicMemory(capacity=8)
    offer_stream(mem, 8, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    counts = np.zeros(8, dtype=np.int64)
    for b in mem.sample_batch(10000, rng):
        counts[b.position] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_sample_batch_larger_than_memory():
    mem = EpisodicMemory(capacity=3)
    offer_stream(mem, 3, np.random.default_rng(10))
    batch = mem.sample_batch(9, np.random.default_rng(11))
    assert len(batch) == 9


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigError):
        EpisodicMemory(capacity=0)

