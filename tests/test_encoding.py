import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaml import (
    EncodingSpec,
    encode_amplitude,
    encode_angle,
    encode_basis,
    encode_superposition,
    execute,
    norm_squared,
    probabilities,
)
from qaml.encoding import _amplitude_qubits, read_feature_rows
from qaml.errors import (
    ConfigError,
    DuplicateBasisState,
    EmptyInput,
    InvalidBitstring,
    LengthMismatch,
    NonFiniteFeature,
    ZeroVector,
)
from qaml.gates import op_matrix


class TestBasisEncoding:
    def test_110(self):
        state = encode_basis("110")
        assert state.amplitudes[6] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_bit(self):
        assert np.array_equal(encode_basis("0").amplitudes, [1.0, 0.0])

    def test_01(self):
        assert encode_basis("01").amplitudes[1] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidBitstring):
            encode_basis("")

    def test_equals_singleton_superposition(self):
        for bits in ("0", "10", "110", "0101"):
            assert np.array_equal(
                encode_basis(bits).amplitudes,
                encode_superposition([bits]).amplitudes,
            )


class TestSuperpositionEncoding:
    def test_three_state_example(self):
        state = encode_superposition(["100", "010", "001"])
        w = math.sqrt(1 / 3)
        expected = np.zeros(8)
        expected[[4, 2, 1]] = w
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_two_state_seven_qubit_example(self):
        state = encode_superposition(["1001110", "0100111"])
        w = math.sqrt(1 / 2)
        assert state.n_qubits == 7
        assert state.amplitudes[int("1001110", 2)] == pytest.approx(w, abs=1e-12)
        assert state.amplitudes[int("0100111", 2)] == pytest.approx(w, abs=1e-12)
        assert np.count_nonzero(state.amplitudes) == 2

    def test_generator_of_bitstrings(self):
        state = encode_superposition(bits for bits in ("01", "10"))
        assert np.count_nonzero(state.amplitudes) == 2

    def test_singleton(self):
        assert np.array_equal(encode_superposition(["0"]).amplitudes, [1.0, 0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateBasisState):
            encode_superposition(["01", "01"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            encode_superposition(["01", "001"])

    def test_rejects_empty_bitstring(self):
        with pytest.raises(InvalidBitstring, match="empty bitstring"):
            encode_superposition([""])

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            encode_superposition([])


class TestAngleEncoding:
    def test_half_pi_y_rotation(self):
        state = execute(encode_angle([math.pi / 2], "Y"))
        assert np.allclose(state.amplitudes, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_zero_features(self):
        state = execute(encode_angle([0.0, 0.0, 0.0], "Z"))
        assert state.amplitudes[0] == pytest.approx(1.0)

    def test_pi_x_rotation(self):
        state = execute(encode_angle([math.pi], "X"))
        assert state.amplitudes[1] == pytest.approx(-1j, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteFeature):
            encode_angle([math.inf], "Y")

    def test_separability(self, rng):
        """Executed circuit equals the tensor product of per-qubit rotations."""
        for axis in ("X", "Y", "Z"):
            for n in range(1, 6):
                features = rng.uniform(-3, 3, size=n)
                state = execute(encode_angle(features, axis))
                expected = np.array([1.0], dtype=np.complex128)
                for theta in features:
                    single = op_matrix(f"R{axis}", theta) @ np.array([1.0, 0.0])
                    expected = np.kron(expected, single)
                assert np.abs(state.amplitudes - expected).max() < 1e-12


class TestAmplitudeEncoding:
    def test_paper_example_vector(self):
        raw = [1.2, 2.7, 1.1, 0.5]
        state = encode_amplitude(raw)
        factor = math.sqrt(10.19)
        assert factor == pytest.approx(3.19218, abs=1e-5)
        assert np.allclose(state.amplitudes, np.array(raw) / factor, atol=1e-12)
        assert abs(norm_squared(state) - 1.0) < 1e-12

    @pytest.mark.parametrize("n, n_qubits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (200, 8)])
    def test_register_size(self, n, n_qubits):
        # `qaml train --encoding amplitude` builds its ansatz on the same count
        assert _amplitude_qubits(n) == n_qubits
        assert encode_amplitude(np.ones(n)).n_qubits == n_qubits

    def test_single_value(self):
        state = encode_amplitude([1])
        assert state.n_qubits == 1
        assert np.array_equal(state.amplitudes, [1.0, 0.0])

    def test_three_four_five_triangle(self):
        assert np.allclose(encode_amplitude([3, 4]).amplitudes, [0.6, 0.8], atol=1e-12)

    def test_zero_padding(self):
        state = encode_amplitude([1, 1, 1])
        w = 1 / math.sqrt(3)
        assert state.n_qubits == 2
        assert np.allclose(state.amplitudes, [w, w, w, 0.0], atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324, 1e308])
    def test_extreme_magnitudes_normalize(self, scale):
        state = encode_amplitude([scale, -scale])
        assert state.amplitudes.tolist() == [0.7071067811865475, -0.7071067811865475]

    def test_power_of_two_scaling_keeps_the_bits(self):
        raw = np.array([1.2, 2.7, 1.1, 0.5]) * 1e150
        expected = raw / np.linalg.norm(raw)
        assert encode_amplitude(raw).amplitudes.real.tobytes() == expected.tobytes()

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            encode_amplitude([0.0, 0.0])

    @given(
        st.lists(
            st.floats(-100, 100).filter(lambda v: abs(v) > 1e-6),
            min_size=1,
            max_size=16,
        )
    )
    def test_round_trip(self, values):
        state = encode_amplitude(values)
        v = np.asarray(values)
        expected = v / np.linalg.norm(v)
        assert np.abs(state.amplitudes[: v.size] - expected).max() < 1e-12
        assert np.abs(
            probabilities(state)[: v.size] - v**2 / np.sum(v**2)
        ).max() < 1e-12

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8).filter(
            lambda vs: any(abs(v) > 1e-3 for v in vs)
        ),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, values, scale):
        a = encode_amplitude(values)
        b = encode_amplitude([scale * v for v in values])
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


class TestEncodingSpec:
    def test_defaults(self):
        spec = EncodingSpec("angle")
        assert spec.axis == "Y"

    def test_axis_is_stored_upper_case(self):
        assert EncodingSpec("angle", "y").axis == "Y"

    def test_angle_encoder_checks_its_axis(self):
        with pytest.raises(ConfigError, match="rotation axis must be one of"):
            encode_angle([0.1], "w")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            EncodingSpec("fourier")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            EncodingSpec("angle", "Q")


class TestCsvIngestion:
    def test_plain_rows(self):
        rows = read_feature_rows("1.0,2.0\n3.5,-4\n")
        assert rows == [[1.0, 2.0], [3.5, -4.0]]

    def test_header_skipped(self):
        rows = read_feature_rows("f1,f2\n0.5,0.25\n")
        assert rows == [[0.5, 0.25]]

    def test_a_row_with_a_number_is_not_a_header(self):
        with pytest.raises(EmptyInput):
            read_feature_rows("0..1,0.2,1\n0.3,0.4,-1\n")

    def test_malformed_cell(self):
        with pytest.raises(EmptyInput):
            read_feature_rows("1.0,2.0\n3.0,oops\n")
