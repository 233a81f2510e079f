"""The vectorised samplers against per-row and per-draw references.

`circuit._readout` takes its draws in blocks of rows and counts them at the
sign changes of the Z signs; `circuit.sample_state` counts sorted draws
per outcome. Both must give exactly what drawing outcome indices one row at a
time with the reference sampler, `conftest.draw_indices`, gives, and leave
the generator in the same state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import draw_indices
from qaml import StateVector, circuit, probabilities, sample_state
from qaml.circuit import _rng
from qaml.hybrid import _readout, _z_signs

SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def probability_row(draw, dim):
    """A row of `dim` probabilities with scattered zeros, a run of zeros
    inside it and a run of zeros at its tail, summing to a total in
    [1 - 5e-10, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(dim)
    weights[rng.random(dim) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    start = draw(st.integers(0, dim - 1))
    weights[start:start + draw(st.integers(0, dim))] = 0.0
    weights[dim - draw(st.integers(0, dim - 1)):] = 0.0
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, dim - 1))] = 1.0
    return weights / weights.sum() * draw(st.floats(1.0 - 5e-10, 1.0))


@st.composite
def readout_case(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    probs = np.array([draw(probability_row(1 << n)) for _ in range(rows)])
    return n, draw(st.integers(0, n - 1)), probs


@given(readout_case(), st.integers(1, 2000), SEEDS)
def test_shot_readout_equals_per_row_draws(case, shots, seed):
    n, qubit, probs = case
    signs = _z_signs(n, qubit)
    reference_rng, rng = _rng(seed), _rng(seed)
    reference = np.array([signs[draw_indices(row, shots, reference_rng)].mean() for row in probs])
    got = _readout(probs, signs, shots, rng)
    assert got.tobytes() == reference.tobytes()
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("qubit", range(4))
def test_shot_readout_memory_follows_the_block_not_the_batch(monkeypatch, qubit):
    # 64 rows x 4096 shots fit one block at the real ceiling; at a ceiling of
    # 8192 draws they take 32 blocks of 2 rows, with the same bits
    weights = np.random.default_rng(qubit).random((64, 16))
    probs, signs = weights / weights.sum(axis=1, keepdims=True), _z_signs(4, qubit)
    whole = _readout(probs, signs, 4096, _rng(5))
    monkeypatch.setattr(circuit, "MAX_SHOTS", 8192)
    tracemalloc.start()
    try:
        blocked = _readout(probs, signs, 4096, _rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked.tobytes() == whole.tobytes()
    # one block of draws is 64 KiB; the whole batch's draws alone are 2 MiB
    assert peak < 4 * 8 * 8192


class ConstantDraws:
    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


@pytest.mark.parametrize(
    "u, probs, qubit, expected",
    [
        # the row sums to 1 - 5e-10 and u is just below 1: outcome 01, never the zero tail
        (1.0 - 1e-12, [0.3, 0.7 - 5e-10, 0.0, 0.0], 1, -1.0),
        # u = 0 lies past the zero-probability outcomes 00 and 01: outcome 10
        (0.0, [0.0, 0.0, 0.5, 0.5], 0, -1.0),
        (0.0, [0.0, 0.0, 0.5, 0.5], 1, 1.0),
    ],
)
def test_shot_readout_at_draw_extremes(u, probs, qubit, expected):
    got = _readout(np.array([probs]), _z_signs(2, qubit), 4, ConstantDraws(u))
    assert got.tolist() == [expected]


@st.composite
def sampled_state(draw):
    n = draw(st.integers(1, 10))
    return StateVector(n, np.sqrt(draw(probability_row(1 << n))))


@given(sampled_state(), st.integers(1, 5000), SEEDS)
def test_sample_state_counts_equal_bincount_of_draws(state, shots, seed):
    indices = draw_indices(probabilities(state), shots, _rng(seed))
    counts = np.bincount(indices, minlength=state.dim)
    reference = [(state.bitstring(i), int(c)) for i, c in enumerate(counts) if c > 0]
    assert list(sample_state(state, shots, seed).counts.items()) == reference


@pytest.mark.parametrize(
    "u, probs, expected",
    [
        # a draw equal to a CDF entry belongs to the next outcome
        (0.5, [0.5, 0.5], "1"),
        (0.0, [0.0, 0.0, 0.5, 0.5], "10"),
        (1.0 - 1e-12, [0.3, 0.7 - 5e-10, 0.0, 0.0], "01"),
    ],
)
def test_sample_state_at_draw_extremes(monkeypatch, u, probs, expected):
    state = StateVector(len(expected), np.sqrt(probs))
    index = draw_indices(probabilities(state), 1, ConstantDraws(u))[0]
    assert state.bitstring(int(index)) == expected
    monkeypatch.setattr(circuit, "_rng", lambda seed: ConstantDraws(u))
    assert sample_state(state, 3, 0).counts == {expected: 3}
