"""Error-rate drift monitor: gating, minima tracking, reference equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodl.drift import DriftState, observe, reset
from bodl.errors import InputError

from oracles import drift_decisions


def drive(bits, state=None):
    """Feed bits, resetting on drift like the harness does; returns the verdicts."""
    state = state or DriftState()
    out = []
    for bit in bits:
        state, drifted = observe(state, bit)
        out.append(drifted)
        if drifted:
            state = reset(state)
    return out, state


def test_all_correct_never_drifts():
    statuses, state = drive([0] * 10000)
    assert not any(statuses)
    assert state.count == 10000
    assert state.error_rate == 0.0


def test_gate_blocks_early_decisions():
    # all errors, but fewer instances than the gate requires
    statuses, _ = drive([1] * 29)
    assert not any(statuses)


def test_rejects_non_binary_error():
    with pytest.raises(InputError):
        observe(DriftState(), 2)


def test_step_change_detected_within_window():
    rng = np.random.default_rng(42)
    bits = list((rng.random(500) < 0.1).astype(int)) + \
           list((rng.random(400) < 0.6).astype(int))
    statuses, _ = drive(bits)
    fire_positions = [i for i, drifted in enumerate(statuses) if drifted]
    assert fire_positions, "step change never detected"
    first = fire_positions[0]
    assert 500 <= first < 800


def test_decisions_match_scalar_reference():
    # identical verdict at every step, across regimes and resets
    rng = np.random.default_rng(7)
    bits = []
    for rate in (0.1, 0.5, 0.05, 0.7):
        bits.extend((rng.random(400) < rate).astype(int).tolist())
    statuses, _ = drive(bits)
    assert statuses == [d == "drift" for d in drift_decisions(bits)]


def test_decisions_match_reference_many_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        bits = list((rng.random(300) < 0.15).astype(int)) + \
               list((rng.random(300) < 0.55).astype(int))
        statuses, _ = drive(bits)
        assert statuses == [d == "drift" for d in drift_decisions(bits)]


def test_reset_clears_counters():
    state = DriftState()
    for bit in [0, 1, 0, 0, 1]:
        state, _ = observe(state, bit)
    state = reset(state)
    assert state.count == 0
    assert state.error_rate == 0.0
    assert state.min_rate == math.inf
    assert state.min_std == math.inf


def test_reset_keeps_settings():
    state = reset(DriftState(min_instances=50, sensitivity=2.5))
    assert state.min_instances == 50
    assert state.sensitivity == 2.5


def test_reset_reopens_the_gate():
    rng = np.random.default_rng(3)
    bits = (rng.random(200) < 0.3).astype(int)
    state = DriftState()
    for bit in bits:
        state, _ = observe(state, bit)
    state = reset(state)
    # the next min_instances-1 observations cannot signal drift
    for _ in range(state.min_instances - 1):
        state, drifted = observe(state, 1)
        assert not drifted


@settings(max_examples=200)
@given(min_instances=st.integers(1, 1000),
       sensitivity=st.floats(0.0, 1e6, exclude_min=True),
       bit=st.sampled_from([0, 1]),
       history=st.lists(st.sampled_from([0, 1]), max_size=200))
def test_first_observation_never_drifts(min_instances, sensitivity, bit, history):
    # At t = 1 the error rate p is the bit itself and s = sqrt(p(1-p)/1) = 0,
    # so p + s > p + k*0 is false for every k: the harness relies on this to
    # find the reservoir non-empty whenever a drift fires.
    state = DriftState(min_instances=min_instances, sensitivity=sensitivity)
    _, drifted = observe(state, bit)
    assert not drifted
    for b in history:
        state, _ = observe(state, b)
    _, drifted = observe(reset(state), bit)
    assert not drifted


def test_reset_then_replay_equals_fresh_detector():
    rng = np.random.default_rng(9)
    bits = (rng.random(250) < 0.25).astype(int).tolist()
    state = DriftState()
    for bit in bits:
        state, _ = observe(state, bit)
    state = reset(state)
    replay = []
    for bit in bits:
        state, drifted = observe(state, bit)
        replay.append(drifted)
    fresh = DriftState()
    expected = []
    for bit in bits:
        fresh, drifted = observe(fresh, bit)
        expected.append(drifted)
    assert replay == expected


def test_deterministic_function_of_bits():
    bits = [0, 1] * 100
    a, _ = drive(bits)
    b, _ = drive(bits)
    assert a == b


def test_minima_monotone_between_resets():
    rng = np.random.default_rng(11)
    bits = (rng.random(600) < 0.2).astype(int)
    state = DriftState()
    best = math.inf
    for bit in bits:
        state, drifted = observe(state, bit)
        if drifted:
            state = reset(state)
            best = math.inf
            continue
        level = state.min_rate + state.min_std
        assert level <= best + 1e-15
        best = level


def test_threshold_reported_for_logging():
    state = DriftState()
    for bit in [1, 0] * 40:
        state, _ = observe(state, bit)
    assert state.threshold == pytest.approx(state.min_rate + 3.0 * state.min_std)
