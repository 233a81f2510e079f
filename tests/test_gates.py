import math

import numpy as np
import pytest
from scipy import stats

from conftest import random_state
from test_kernel_oracle import tensordot_apply
from qaml import (
    StateVector,
    apply_gate,
    dense_unitary,
    gate_cx,
    gate_h,
    gate_rx,
    gate_ry,
    gate_rz,
    gate_x,
    gate_y,
    gate_z,
    gates,
    make_basis_state,
    norm_squared,
)
from qaml.circuit import CircuitOp
from qaml.errors import (
    ArityMismatch,
    DuplicateTarget,
    InvariantError,
    NonFiniteAngle,
    OracleSizeExceeded,
    SimulationError,
    TargetOutOfRange,
    UnknownGate,
)
from qaml.gates import GateMatrix, gate_from_name, op_matrix

SQRT2_INV = 1.0 / math.sqrt(2.0)

ALL_FIXED = [gate_h, gate_x, gate_y, gate_z, gate_cx]
ALL_ROTATIONS = [gate_rx, gate_ry, gate_rz]


def random_qubit(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return amps / np.linalg.norm(amps)


class TestFixedGateMatrices:
    def test_hadamard_entries(self):
        expected = SQRT2_INV * np.array([[1, 1], [1, -1]])
        assert np.allclose(gate_h().matrix, expected, atol=0)

    def test_pauli_entries(self):
        assert np.array_equal(gate_x().matrix, [[0, 1], [1, 0]])
        assert np.array_equal(gate_y().matrix, [[0, -1j], [1j, 0]])
        assert np.array_equal(gate_z().matrix, [[1, 0], [0, -1]])

    def test_shared_constants_are_read_only(self):
        for name, matrix in gates.FIXED_MATRICES.items():
            assert not matrix.flags.writeable, name

    def test_single_qubit_transformation_equations(self, rng):
        # equation-column oracle: closed-form output amplitudes per gate
        for _ in range(1000):
            a, b = random_qubit(rng)
            state = StateVector(1, [a, b])
            cases = {
                "H": [(a + b) * SQRT2_INV, (a - b) * SQRT2_INV],
                "X": [b, a],
                "Y": [-1j * b, 1j * a],
                "Z": [a, -b],
            }
            for name, expected in cases.items():
                out = apply_gate(state, gate_from_name(name), [0])
                assert np.allclose(out.amplitudes, expected, atol=1e-12)


class TestRotationGates:
    @pytest.mark.parametrize("theta", np.linspace(-2 * math.pi, 2 * math.pi, 100))
    def test_entries_match_axis_formulas(self, theta):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert np.allclose(gate_rx(theta).matrix, [[c, -1j * s], [-1j * s, c]], atol=1e-12)
        assert np.allclose(gate_ry(theta).matrix, [[c, -s], [s, c]], atol=1e-12)
        assert np.allclose(
            gate_rz(theta).matrix,
            [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
            atol=1e-12,
        )

    def test_rx_zero_is_identity(self):
        assert np.allclose(gate_rx(0.0).matrix, np.eye(2), atol=0)

    def test_rx_pi_is_minus_i_x(self):
        assert np.allclose(gate_rx(math.pi).matrix, [[0, -1j], [-1j, 0]], atol=1e-12)

    def test_rz_pi_global_phase_on_zero(self):
        out = apply_gate(make_basis_state(1, "0"), gate_rz(math.pi), [0])
        assert out.amplitudes[0] == pytest.approx(-1j, abs=1e-12)

    def test_angle_recorded(self):
        assert gate_ry(0.3).angle == 0.3
        assert gate_h().angle is None

    @pytest.mark.parametrize("builder", ALL_ROTATIONS)
    def test_rejects_non_finite_angle(self, builder):
        with pytest.raises(NonFiniteAngle):
            builder(float("nan"))


class TestOpRule:
    """One rule for ops and gates: the same mnemonic and angle fail with the
    same class whether a `CircuitOp` or a `GateMatrix` is built from them."""

    BUILDERS = {
        "gate_from_name": gate_from_name,
        "CircuitOp": lambda name, angle=None: CircuitOp(name, (0,), angle),
    }

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize(
        "name, angle, error, message",
        [
            ("FOO", None, UnknownGate, "unknown gate 'FOO'"),
            ("foo", 1.0, UnknownGate, "unknown gate 'FOO'"),
            ("H", 0.5, NonFiniteAngle, "H op takes neither angle nor param slot"),
            ("RX", None, NonFiniteAngle, "RX op needs exactly one of angle or param slot"),
            ("RX", "abc", NonFiniteAngle, "must be a real number, got 'abc'"),
            ("RX", True, NonFiniteAngle, "must be a real number, got True"),
            ("RX", np.bool_(False), NonFiniteAngle, "must be a real number"),
            ("RX", 1j, NonFiniteAngle, "must be a real number, got 1j"),
            ("RX", 10**400, NonFiniteAngle, "rotation angle must be finite"),
        ],
        ids=["unknown", "unknown-with-angle", "fixed-with-angle", "rotation-without-angle",
             "string", "bool", "numpy-bool", "complex", "huge-int"],
    )
    def test_same_error_at_every_entry_point(self, builder, name, angle, error, message):
        with pytest.raises(error, match=message) as info:
            self.BUILDERS[builder](name, angle)
        assert isinstance(info.value, SimulationError)

    def test_targets_may_come_from_a_generator(self):
        assert CircuitOp("CX", (q for q in (1, 0))).targets == (1, 0)

    @pytest.mark.parametrize("angle", [0.3, np.float64(0.3), np.float32(0.25), 2, np.int64(-2)])
    def test_real_angles_are_stored_as_floats(self, angle):
        for built in (gate_from_name("RY", angle), CircuitOp("RY", (0,), angle)):
            assert type(built.angle) is float and built.angle == float(angle)

    @pytest.mark.parametrize("name", ["RX", "RY", "RZ"])
    def test_infinite_angle_fails_when_the_matrix_is_built(self, name):
        assert CircuitOp(name, (0,), math.inf).angle == math.inf
        with pytest.raises(NonFiniteAngle, match="rotation angle must be finite, got inf"):
            gate_from_name(name, math.inf)


class TestGateMatrixChecks:
    def test_wrong_shape(self):
        with pytest.raises(InvariantError, match=r"gate bad: expected 2x2 matrix, got \(4, 4\)"):
            GateMatrix("bad", 1, np.eye(4))

    def test_absurd_arity_names_the_power(self):
        with pytest.raises(InvariantError, match=r"expected 2\*\*20000x2\*\*20000 matrix, got \(2, 2\)"):
            GateMatrix("H", 20000, np.eye(2))

    def test_not_unitary(self):
        with pytest.raises(InvariantError, match="gate bad is not unitary"):
            GateMatrix("bad", 1, [[1, 1], [0, 1]])

    def test_nearly_unitary(self):
        # |U^dagger U - I| is about 1e-9, on the second diagonal entry
        with pytest.raises(InvariantError, match="gate bad is not unitary"):
            GateMatrix("bad", 1, [[1, 0], [0, 1 + 5e-10]])

    @pytest.mark.parametrize("arity", [True, 1.0, "1", None])
    def test_arity_must_be_an_integer(self, arity):
        with pytest.raises(InvariantError, match=f"^arity must be an integer, got {arity!r}$"):
            GateMatrix("H", arity, np.eye(2))

    @pytest.mark.parametrize("arity", [0, -1])
    def test_arity_must_be_positive(self, arity):
        with pytest.raises(InvariantError, match=f"^gate H: arity must be >= 1, got {arity}$"):
            GateMatrix("H", arity, np.eye(1))

    def test_numpy_integer_arity(self):
        assert GateMatrix("H", np.int64(1), np.eye(2)).matrix.shape == (2, 2)

    def test_arity_is_stored_as_an_int(self):
        assert type(GateMatrix("H", np.int64(1), np.eye(2)).arity) is int

    def test_owns_its_matrix(self):
        # the caller's matrix stays writable, and a later write reaches no gate
        base = np.eye(2, dtype=np.complex128)
        gate, from_view = GateMatrix("U", 1, base), GateMatrix("U", 1, base[:])
        base[0, 0] = 7
        assert gate.matrix[0, 0] == from_view.matrix[0, 0] == 1
        assert not gate.matrix.flags.writeable and base.flags.writeable
        assert not np.shares_memory(gate.matrix, base) and not np.shares_memory(from_view.matrix, base)
        # a read-only caller's array stays read-only, and no gate shares a library constant
        frozen = np.eye(2, dtype=np.complex128)
        frozen.setflags(write=False)
        assert not np.shares_memory(GateMatrix("U", 1, frozen).matrix, frozen)
        assert not frozen.flags.writeable
        for name, constant in gates.FIXED_MATRICES.items():
            built = gate_from_name(name).matrix
            assert np.array_equal(built, constant) and not np.shares_memory(built, constant)

    def test_unknown_rotation_axis(self):
        with pytest.raises(UnknownGate, match="unknown rotation 'RW'"):
            op_matrix("RW", 0.1)


class TestCX:
    def test_basis_mappings(self):
        # enumerate |c,t> -> |c, t XOR c|
        for c in (0, 1):
            for t in (0, 1):
                src = make_basis_state(2, f"{c}{t}")
                out = apply_gate(src, gate_cx(), [0, 1])
                assert out.amplitudes[int(f"{c}{t ^ c}", 2)] == 1.0

    def test_creates_bell_state(self):
        plus = StateVector(2, [SQRT2_INV, 0, SQRT2_INV, 0])
        out = apply_gate(plus, gate_cx(), [0, 1])
        assert np.allclose(out.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12)


class TestAlgebraicIdentities:
    @pytest.mark.parametrize("builder", ALL_FIXED)
    def test_fixed_gates_unitary(self, builder):
        gate = builder()
        dim = 2**gate.arity
        assert np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(dim)).max() < 1e-12

    @pytest.mark.parametrize("builder", ALL_ROTATIONS)
    def test_rotations_unitary_on_grid(self, builder):
        for theta in np.linspace(-2 * math.pi, 2 * math.pi, 100):
            mat = builder(theta).matrix
            assert np.abs(mat.conj().T @ mat - np.eye(2)).max() < 1e-12

    def test_involutions(self):
        for builder in (gate_h, gate_x, gate_y, gate_z):
            mat = builder().matrix
            assert np.abs(mat @ mat - np.eye(2)).max() < 1e-12

    def test_hadamard_conjugation(self):
        h, x, z = gate_h().matrix, gate_x().matrix, gate_z().matrix
        assert np.abs(h @ x @ h - z).max() < 1e-12
        assert np.abs(h @ z @ h - x).max() < 1e-12

    def test_rz_additivity(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(-6, 6, size=2)
            product = gate_rz(t1).matrix @ gate_rz(t2).matrix
            assert np.abs(product - gate_rz(t1 + t2).matrix).max() < 1e-12


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(make_basis_state(1, "0"), gate_h(), [0])
        assert np.allclose(out.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-12)

    def test_x_on_third_qubit(self):
        out = apply_gate(make_basis_state(3, "110"), gate_x(), [2])
        assert out.amplitudes[int("111", 2)] == pytest.approx(1.0)

    def test_identity_rotation_is_noop(self, rng):
        state = random_state(3, rng)
        out = apply_gate(state, gate_rx(0.0), [1])
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            apply_gate(make_basis_state(2, "00"), gate_h(), [2])

    def test_duplicate_target(self):
        with pytest.raises(DuplicateTarget):
            apply_gate(make_basis_state(2, "00"), gate_cx(), [1, 1])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            apply_gate(make_basis_state(2, "00"), gate_cx(), [0])

    def test_arity_is_checked_before_the_targets(self):
        with pytest.raises(ArityMismatch):
            apply_gate(make_basis_state(2, "00"), gate_h(), [0.5, 7])


def signed_zero_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """A random state whose amplitudes include -0.0 parts and whole -0.0 amplitudes."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps.real[::3] = -0.0
    amps.imag[1::4] = -0.0
    amps[2::7] = complex(-0.0, -0.0)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


class TestApplyGateKernelPaths:
    """`apply_gate` drives the one kernel: it picks CX's row gather by the matrix's
    value, and a staged product comes back in qubit order."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_user_built_cx_is_staged_with_the_shared_cx_bits(self, n, rng, kernel_paths):
        user_cx = GateMatrix("CX", 2, gate_cx().matrix.copy())
        # below 4 qubits the copies would leave BLAS remainder columns, so CX stages
        path = "cx" if (1 << n >> 2) % 4 == 0 else "staged"
        order = tuple(range(n + 1))
        for _ in range(20):
            state = signed_zero_state(n, rng)
            targets = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            kernel_paths.clear()
            shared = apply_gate(state, gate_cx(), targets)
            user = apply_gate(state, user_cx, targets)
            assert kernel_paths == [(path, True), (path, True)]
            np.testing.assert_array_equal(
                shared.amplitudes.view(np.uint64), user.amplitudes.view(np.uint64)
            )
            # the row gather keeps the bits of the staged zgemm
            results = []
            for is_cx in (True, False):
                src = state.amplitudes.reshape(-1, 1).copy()
                out = np.empty_like(src)
                step, into_out, after = gates._bind(src, out, order, targets, is_cx)
                step(user_cx.matrix)
                product, spare = (out, src) if into_out else (src, out)
                np.copyto(*gates._relabel(product, spare, after, order))
                results.append(spare.view(np.uint64))
            np.testing.assert_array_equal(*results)
            np.testing.assert_array_equal(results[0].reshape(-1), user.amplitudes.view(np.uint64))

    # the last two qubits leave fewer than 4 columns per block, so they stage
    @pytest.mark.parametrize("n, target", [(n, q) for n in range(1, 9) for q in range(max(n - 2, 0), n)])
    def test_staged_one_qubit_gate_comes_back_in_qubit_order(self, n, target, rng, kernel_paths):
        state = random_state(n, rng)
        gate = gate_ry(0.7)
        out = apply_gate(state, gate, [target])
        assert kernel_paths == [("staged", True)]
        expected = dense_unitary(gate, [target], n) @ state.amplitudes
        assert np.abs(out.amplitudes - expected).max() < 1e-12


def signed_zero_batch(n_qubits: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """A random batch-last `(2**n, batch)` buffer with about 20 % `-0.0` real and imaginary parts."""
    shape = (1 << n_qubits, batch)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps.real[rng.random(shape) < 0.2] = -0.0
    amps.imag[rng.random(shape) < 0.2] = -0.0
    return amps


def run_step(src: np.ndarray, order: tuple, targets: tuple, name: str, matrix: np.ndarray) -> np.ndarray:
    """One bound step on `src` (consumed), its axes in `order`, relabeled back to qubit order."""
    out = np.empty_like(src)
    step, into_out, after = gates._bind(src, out, order, targets, name == "CX")
    step(matrix)
    product, spare = (out, src) if into_out else (src, out)
    np.copyto(*gates._relabel(product, spare, after, sorted(after)))
    return spare


class TestMultiQubitUnitaries:
    """A user's 2- or 3-qubit unitary (not CX) runs as one staged zgemm, and the gate keeps
    a C-ordered copy, so a Fortran-ordered matrix gives the same bits as its C form."""

    @pytest.mark.parametrize("arity, n", [(arity, n) for arity in (2, 3) for n in range(arity, 11)])
    def test_matches_the_oracle_in_either_memory_order(self, arity, n):
        rng = np.random.default_rng([arity, n])
        for _ in range(5):
            matrix = stats.unitary_group.rvs(1 << arity, random_state=rng)
            targets = tuple(range(arity))
            while targets == tuple(sorted(targets)):
                targets = tuple(int(q) for q in rng.permutation(n)[:arity])
            state = random_state(n, rng)
            gate = GateMatrix("U", arity, np.ascontiguousarray(matrix))
            fortran = GateMatrix("U", arity, np.asfortranarray(matrix))
            out = apply_gate(state, gate, targets)
            # `dense_unitary` stops at 8 qubits; above that the oracle is a tensordot
            if n <= 8:
                expected = dense_unitary(gate, targets, n) @ state.amplitudes
            else:
                expected = tensordot_apply(state.amplitudes.reshape((2,) * n), matrix, targets).reshape(-1)
            assert np.abs(out.amplitudes - expected).max() < 1e-12
            np.testing.assert_array_equal(
                apply_gate(state, fortran, targets).amplitudes.view(np.uint64), out.amplitudes.view(np.uint64)
            )
            assert fortran.matrix.flags.c_contiguous


class TestRelabel:
    """`_relabel` is the one copy between axis orders. A step's bits do not depend on
    the order its buffer starts in, which is what lets a caller relabel freely."""

    BATCHES = (1, 2, 3, 4, 5, 8, 12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_round_trip_keeps_the_bits(self, n):
        rng = np.random.default_rng(n)
        qubit_order = tuple(range(n + 1))
        for batch in self.BATCHES:
            amps = signed_zero_batch(n, batch, rng)
            order = tuple(int(axis) for axis in rng.permutation(n + 1))
            relabeled, back = np.empty_like(amps), np.empty_like(amps)
            np.copyto(*gates._relabel(amps, relabeled, qubit_order, order))
            np.copyto(*gates._relabel(relabeled, back, order, qubit_order))
            np.testing.assert_array_equal(back.view(np.uint64), amps.view(np.uint64))
            # axis k of the relabeled buffer is axis order[k] of the qubit-order one
            tensor = amps.reshape((2,) * n + (batch,)).transpose(order)
            np.testing.assert_array_equal(relabeled.reshape(tensor.shape), tensor)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_step_from_any_axis_order_keeps_the_bits(self, n, batch):
        rng = np.random.default_rng([n, batch])
        qubit_order = tuple(range(n + 1))
        for _ in range(12):
            amps = signed_zero_batch(n, batch, rng)
            name = str(rng.choice(["H", "RX", "RY", "CX"]))
            matrix = gates.op_matrix(name, None if name in ("H", "CX") else float(rng.uniform(-6, 6)))
            targets = tuple(int(q) for q in rng.choice(n, size=gates.GATE_ARITY[name], replace=False))
            order = tuple(int(axis) for axis in rng.permutation(n + 1))
            relabeled = np.empty_like(amps)
            np.copyto(*gates._relabel(amps, relabeled, qubit_order, order))
            expected = run_step(amps.copy(), qubit_order, targets, name, matrix)
            got = run_step(relabeled, order, targets, name, matrix)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestDenseUnitaryOracle:
    def test_single_qubit_full_register(self):
        assert np.allclose(dense_unitary(gate_h(), [0], 1), gate_h().matrix, atol=0)

    def test_kron_expansion_by_hand(self):
        assert np.allclose(
            dense_unitary(gate_x(), [1], 2), np.kron(np.eye(2), gate_x().matrix), atol=0
        )
        assert np.allclose(
            dense_unitary(gate_y(), [0], 2), np.kron(gate_y().matrix, np.eye(2)), atol=0
        )

    def test_cx_full_register(self):
        assert np.allclose(dense_unitary(gate_cx(), [0, 1], 2), gate_cx().matrix, atol=0)

    def test_cx_reversed_targets(self):
        # control on qubit 1: |ct> columns permute accordingly
        expected = np.zeros((4, 4))
        for c in (0, 1):
            for t in (0, 1):
                expected[int(f"{t ^ c}{c}", 2), int(f"{t}{c}", 2)] = 1.0
        assert np.allclose(dense_unitary(gate_cx(), [1, 0], 2), expected, atol=0)

    def test_size_limit(self):
        with pytest.raises(OracleSizeExceeded):
            dense_unitary(gate_h(), [0], 9)


class TestStridedVsDenseOracle:
    def test_random_trials(self, rng):
        """1000 random (state, gate, targets) trials across n <= 5."""
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            state = random_state(n, rng)
            if n >= 2 and rng.random() < 0.3:
                gate = gate_cx()
                targets = list(rng.choice(n, size=2, replace=False))
            else:
                builder = rng.choice(ALL_FIXED[:4] + ALL_ROTATIONS)
                gate = builder(rng.uniform(-6, 6)) if builder in ALL_ROTATIONS else builder()
                targets = [int(rng.integers(n))]
            fast = apply_gate(state, gate, targets)
            slow = dense_unitary(gate, targets, n) @ state.amplitudes
            assert np.abs(fast.amplitudes - slow).max() < 1e-10
            assert abs(norm_squared(fast) - norm_squared(state)) < 1e-12
