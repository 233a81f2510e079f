import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaml import (
    Circuit,
    CircuitOp,
    StateVector,
    apply_gate,
    diffusion,
    encode_amplitude,
    encode_basis,
    encode_superposition,
    execute,
    gate_h,
    make_basis_state,
    measure_once,
    norm_squared,
    probabilities,
)
from qaml.errors import InvalidBitstring, InvariantError, QubitCountExceeded


class TestMakeBasisState:
    def test_110_maps_to_index_6(self):
        state = make_basis_state(3, "110")
        assert state.amplitudes[6] == 1.0 + 0.0j
        assert np.count_nonzero(state.amplitudes) == 1

    def test_ground_state(self):
        assert np.array_equal(make_basis_state(1, "0").amplitudes, [1.0, 0.0])

    def test_01_maps_to_index_1(self):
        # enumerate all 2-qubit labels against the big-endian convention
        for index, bits in enumerate(["00", "01", "10", "11"]):
            state = make_basis_state(2, bits)
            assert state.amplitudes[index] == 1.0

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidBitstring):
            make_basis_state(2, "0a")

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidBitstring):
            make_basis_state(3, "01")

    def test_register_rule_comes_before_the_length(self):
        # the length test used to run first: "bitstring '00' has length 2, expected 2.5"
        with pytest.raises(InvariantError, match="n_qubits must be an integer, got 2.5"):
            make_basis_state(2.5, "00")

    def test_rejects_above_ceiling(self):
        with pytest.raises(QubitCountExceeded):
            make_basis_state(25, "0" * 25)


class TestNormSquared:
    def test_basis_state(self):
        assert norm_squared(make_basis_state(3, "110")) == 1.0

    def test_hadamard_output(self):
        inv = 1.0 / np.sqrt(2.0)
        assert norm_squared(StateVector(1, [inv, inv])) == pytest.approx(1.0, abs=1e-12)

    def test_raw_sequence(self):
        assert norm_squared([1, 1]) == 2.0


class TestProbabilities:
    def test_equal_superposition(self):
        inv = 1.0 / np.sqrt(2.0)
        assert probabilities(StateVector(1, [inv, inv])) == pytest.approx([0.5, 0.5])

    def test_basis_state(self):
        probs = probabilities(make_basis_state(3, "110"))
        assert probs[6] == 1.0
        assert probs.sum() == 1.0

    def test_amplitude_encoded_example(self):
        # oracle: squares of the raw values divided by their sum of squares
        raw = np.array([1.2, 2.7, 1.1, 0.5])
        expected = raw**2 / np.sum(raw**2)
        state = StateVector(2, raw / np.sqrt(np.sum(raw**2)))
        assert probabilities(state) == pytest.approx(expected, abs=1e-12)
        assert np.sum(raw**2) == pytest.approx(10.19)


def awkward_amplitudes(shape, rng) -> np.ndarray:
    """Random complex amplitudes with -0.0 parts and subnormal parts mixed in."""
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps.real.flat[::3] = -0.0
    amps.imag.flat[1::4] = -0.0
    amps.real.flat[2::5] = -3e-310
    amps.imag.flat[::7] = 5e-324
    return amps


def square_rule(amps) -> np.ndarray:
    """The reference |a|^2, written out independently of `probabilities`."""
    return np.ascontiguousarray(amps.real**2 + amps.imag**2)


class TestOneSquareRule:
    """`probabilities` is the package's one |a|^2: a StateVector, its raw amplitudes and
    a transposed batch-last buffer all get the bits of re**2 + im**2, C-contiguous."""

    @staticmethod
    def assert_bits(probs, expected):
        assert probs.flags.c_contiguous and probs.shape == expected.shape
        np.testing.assert_array_equal(probs.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_state_and_raw_amplitudes(self, n):
        rng = np.random.default_rng(n)
        amps = awkward_amplitudes(1 << n, rng)
        state = StateVector(n, amps / np.linalg.norm(amps))
        expected = square_rule(state.amplitudes)
        self.assert_bits(probabilities(state), expected)
        self.assert_bits(probabilities(state.amplitudes), expected)
        self.assert_bits(probabilities(amps), square_rule(amps))
        assert np.signbit(amps.real).any() and (np.abs(amps.real) < 2.2e-308).any()

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("batch", range(1, 8))
    def test_transposed_batch_buffer(self, n, batch):
        rng = np.random.default_rng(100 * n + batch)
        buffer = np.ascontiguousarray(awkward_amplitudes((1 << n, batch), rng))
        self.assert_bits(probabilities(buffer.T), square_rule(buffer.T))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_norm_squared_sums_the_same_squares(self, n):
        rng = np.random.default_rng(n)
        amps = awkward_amplitudes(1 << n, rng)
        state = StateVector(n, amps / np.linalg.norm(amps))
        for raw in (amps, state.amplitudes):
            expected = float(np.sum(raw.real**2 + raw.imag**2))
            assert np.float64(norm_squared(raw)).view(np.uint64) == np.float64(expected).view(np.uint64)
        assert norm_squared(state) == norm_squared(state.amplitudes)


class TestInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, [1.0, 1.0])

    @pytest.mark.parametrize("offset", [5e-9, -5e-9])
    def test_rejects_norm_just_past_tolerance(self, offset):
        amps = np.full(2, np.sqrt((1.0 + offset) / 2.0))
        with pytest.raises(InvariantError, match="state is not normalized"):
            StateVector(1, amps)

    @pytest.mark.parametrize("offset", [5e-10, -5e-10])
    def test_accepts_norm_within_tolerance(self, offset):
        amps = np.full(2, np.sqrt((1.0 + offset) / 2.0))
        assert abs(norm_squared(StateVector(1, amps)) - (1.0 + offset)) < 1e-15

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(1, [np.nan, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, [1.0, 0.0])

    def test_absurd_register_builds_no_n_bit_integer(self):
        # 2**(10**7) would be a 1.2 MiB integer, and its decimal form too long to print
        tracemalloc.start()
        try:
            with pytest.raises(InvariantError, match=r"^expected 2\*\*10000000 amplitudes for 10000000 qubits"):
                StateVector(10**7, [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_amplitudes_are_read_only(self):
        state = make_basis_state(1, "0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @given(st.integers(1, 6), st.data())
    def test_basis_states_are_a_bijection(self, n, data):
        bits = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
        probs = probabilities(make_basis_state(n, bits))
        assert np.count_nonzero(probs) == 1
        assert probs[int(bits, 2)] == 1.0
        assert abs(norm_squared(make_basis_state(n, bits)) - 1.0) < 1e-9


class TestOwnership:
    def test_a_view_of_the_callers_array_does_not_write_through(self):
        a = np.array([1, 0, 0, 0, 0], dtype=complex)
        state = StateVector(2, a[:4])
        a[3] = 5
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_the_callers_array_stays_writable(self):
        a = np.array([0, 1], dtype=np.complex128)
        state = StateVector(1, a)
        a[0] = 1
        assert a.flags.writeable
        np.testing.assert_array_equal(state.amplitudes, [0, 1])

    # every producer goes through the one construction path: check, then keep a C-ordered read-only copy
    PRODUCERS = {
        "execute": lambda: execute(Circuit(3, (CircuitOp("H", (0,)), CircuitOp("CX", (0, 2))))),
        "apply_gate": lambda: apply_gate(make_basis_state(2, "00"), gate_h(), [1]),
        "make_basis_state": lambda: make_basis_state(2, "01"),
        "encode_basis": lambda: encode_basis("101"),
        "encode_superposition": lambda: encode_superposition(["00", "11"]),
        "encode_amplitude": lambda: encode_amplitude([3.0, 4.0]),
        "diffusion": lambda: diffusion(make_basis_state(2, "10")),
        "measure_once": lambda: measure_once(make_basis_state(2, "10"), 7)[1],
        "list": lambda: StateVector(1, [0.6, 0.8]),
        # the checks see the caller's strided view as it is, so the skipped nan is not read
        "strided_view": lambda: StateVector(1, np.array([0.6, np.nan, 0.8j, np.nan])[::2]),
    }

    @pytest.mark.parametrize("producer", PRODUCERS)
    def test_every_producer_owns_read_only_amplitudes(self, producer):
        amps = self.PRODUCERS[producer]().amplitudes
        assert amps.flags.owndata and amps.flags.c_contiguous and not amps.flags.writeable
