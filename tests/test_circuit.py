import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import dense_execute, draw_indices, random_state, wide_ops
from test_kernel_oracle import oracle_ansatz, oracle_execute
from qaml import (
    AnsatzOp,
    AnsatzTemplate,
    Circuit,
    CircuitOp,
    Histogram,
    StateVector,
    dsl,
    execute,
    gates,
    make_basis_state,
    measure_once,
    probabilities,
    sample,
    sample_state,
)
from qaml.circuit import _run
from qaml.errors import (
    ArityMismatch,
    ConfigError,
    DuplicateTarget,
    InvariantError,
    NonFiniteAngle,
    SimulationError,
    TargetOutOfRange,
)
from qaml.gates import apply_gate, gate_from_name
from qaml.hybrid import LossSpec, _Objective

SQRT2_INV = 1.0 / math.sqrt(2.0)

BELL = Circuit(2, (CircuitOp("H", (0,)), CircuitOp("CX", (0, 1))))

# Prefix that leaves every one of 5 qubits in a distinct complex superposition,
# so no gate applied after it acts as the identity on the state.
SPREAD_5 = tuple(
    op
    for q in range(5)
    for op in (CircuitOp("RY", (q,), 0.4 + 0.5 * q), CircuitOp("RZ", (q,), 1.3 - 0.2 * q))
)


def amplitude_encoded_example() -> StateVector:
    raw = np.array([1.2, 2.7, 1.1, 0.5])
    return StateVector(2, raw / np.linalg.norm(raw))


class TestCircuitConstruction:
    def test_lower_case_mnemonic_is_stored_upper_case(self):
        op = CircuitOp("h", (0,))
        assert op.gate_name == "H"
        np.testing.assert_allclose(execute(Circuit(1, (op,))).amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-15)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(TargetOutOfRange):
            Circuit(1, (CircuitOp("H", (1,)),))

    def test_rotation_requires_angle(self):
        with pytest.raises(NonFiniteAngle):
            CircuitOp("RX", (0,))

    def test_fixed_gate_rejects_angle(self):
        with pytest.raises(NonFiniteAngle):
            CircuitOp("H", (0,), 0.5)

    def test_rotation_rejects_angle_and_slot(self):
        with pytest.raises(NonFiniteAngle):
            CircuitOp("RY", (0,), 0.5, param=0)

    def test_fixed_gate_rejects_slot(self):
        with pytest.raises(NonFiniteAngle):
            CircuitOp("X", (0,), param=0)

    def test_rejects_unbound_param_slot(self):
        with pytest.raises(NonFiniteAngle, match="unbound parameter slot p3"):
            Circuit(2, (CircuitOp("H", (0,)), CircuitOp("RZ", (1,), param=3)))

    @pytest.mark.parametrize("target", [0.9, 1.0, True, np.bool_(False), "0", None])
    def test_rejects_non_integer_target(self, target):
        # int() would truncate 0.9 to qubit 0 and read True as qubit 1
        with pytest.raises(TargetOutOfRange, match="must be an integer"):
            CircuitOp("H", (target,))
        with pytest.raises(TargetOutOfRange, match="must be an integer"):
            CircuitOp("CX", (0, target))

    @pytest.mark.parametrize(
        "op, message",
        [
            (("H", (-1,)), "qubit index must be non-negative, got -1"),
            (("H", (5,)), "index 5 >= declared qubits \\(2\\)"),
            (("CX", (1, 1)), "control and target must differ"),
        ],
    )
    def test_target_messages_match_the_dsl(self, op, message):
        # the op is built inside `raises`: faults that need no register raise there
        with pytest.raises(SimulationError, match=message):
            Circuit(2, (CircuitOp(*op),))

    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("H", (0, 1)), ArityMismatch, "gate acts on 1 qubit(s), got targets (0, 1)"),
            (("CX", (0,)), ArityMismatch, "gate acts on 2 qubit(s), got targets (0,)"),
            (("CX", (1, 1)), DuplicateTarget, "control and target must differ"),
            (("H", (-1,)), TargetOutOfRange, "qubit index must be non-negative, got -1"),
            (("CX", (0, -2)), TargetOutOfRange, "qubit index must be non-negative, got -2"),
            (("RY", (0, 1), None, 0), ArityMismatch, "gate acts on 1 qubit(s), got targets (0, 1)"),
            (("RZ", (-3,), None, 1), TargetOutOfRange, "qubit index must be non-negative, got -3"),
        ],
    )
    @pytest.mark.parametrize("make", [CircuitOp, AnsatzOp], ids=["CircuitOp", "AnsatzOp"])
    def test_register_free_faults_raise_where_the_op_is_built(self, make, args, error, message):
        with pytest.raises(error) as info:
            make(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "ops, message",
        [
            # the first op whose targets do not fit, in program order, not the largest index
            ([("H", (0,)), ("CX", (1, 3)), ("H", (9,))], "index 3 >= declared qubits (2)"),
            ([("H", (9,)), ("CX", (1, 3)), ("H", (0,))], "index 9 >= declared qubits (2)"),
            ([("CX", (0, 1)), ("CX", (4, 2)), ("CX", (2, 4))], "index 4 >= declared qubits (2)"),
            ([("CX", (0, 1)), ("CX", (1, 5)), ("CX", (6, 0))], "index 5 >= declared qubits (2)"),
        ],
    )
    def test_containers_report_the_first_misfit_in_program_order(self, ops, message):
        ops = [CircuitOp(*op) for op in ops]  # an op alone has no register to exceed
        with pytest.raises(TargetOutOfRange) as info:
            Circuit(2, ops)
        assert str(info.value) == message
        slotted = ops + [AnsatzOp("RY", (0,), param=0)]
        with pytest.raises(TargetOutOfRange) as info:
            AnsatzTemplate(2, slotted, 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("measure_all", ["no", 1, 0, None, np.bool_(True)])
    def test_measure_all_must_be_a_bool(self, measure_all):
        # a truthy string used to print as `measure all` in `to_dsl`
        with pytest.raises(InvariantError) as info:
            Circuit(1, (), measure_all=measure_all)
        assert str(info.value) == f"measure_all must be true or false, got {measure_all!r}"
        assert Circuit(1, (), measure_all=True).measure_all is True

    @pytest.mark.parametrize("ops, bad", [(("H",), "'H'"), ([None], "None"), (5, "5")])
    def test_containers_hold_only_circuit_ops(self, ops, bad):
        # these used to raise a raw AttributeError or TypeError
        message = f"^a circuit op must be a CircuitOp, got {bad}$"
        with pytest.raises(InvariantError, match=message):
            Circuit(1, ops)
        with pytest.raises(InvariantError, match=message):
            AnsatzTemplate(1, ops, 0)

    def test_numpy_integer_targets_accepted(self):
        op = CircuitOp("CX", (np.int64(1), np.uint8(0)))
        assert op.targets == (1, 0) and all(type(t) is int for t in op.targets)


class TestExecute:
    def test_single_hadamard(self):
        circ = Circuit(1, (CircuitOp("H", (0,)),))
        assert np.allclose(execute(circ).amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-12)

    def test_bell_state_matches_dense_oracle(self):
        out = execute(BELL)
        assert np.allclose(out.amplitudes, dense_execute(BELL), atol=1e-12)
        assert np.allclose(out.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12)

    def test_empty_program(self):
        out = execute(Circuit(3, ()))
        assert np.array_equal(out.amplitudes, make_basis_state(3, "000").amplitudes)

    def test_deterministic(self):
        a = execute(BELL).amplitudes
        b = execute(BELL).amplitudes
        assert np.array_equal(a, b)

    def test_random_circuits_match_dense_oracle(self, rng):
        gates1 = ["H", "X", "Y", "Z", "RX", "RY", "RZ"]
        for _ in range(100):
            n = int(rng.integers(1, 6))
            ops = []
            for _ in range(int(rng.integers(0, 21))):
                if n >= 2 and rng.random() < 0.25:
                    c, t = rng.choice(n, size=2, replace=False)
                    ops.append(CircuitOp("CX", (int(c), int(t))))
                else:
                    name = rng.choice(gates1)
                    angle = float(rng.uniform(-6, 6)) if name.startswith("R") else None
                    ops.append(CircuitOp(name, (int(rng.integers(n)),), angle))
            circ = Circuit(n, tuple(ops))
            assert np.abs(execute(circ).amplitudes - dense_execute(circ)).max() < 1e-10

    @pytest.mark.parametrize("qubit", [0, 2, 4])
    @pytest.mark.parametrize("name", ["H", "X", "Y", "Z", "RX", "RY", "RZ"])
    def test_each_gate_at_each_position_matches_dense_oracle(self, name, qubit):
        angle = 0.9 if name.startswith("R") else None
        circ = Circuit(5, SPREAD_5 + (CircuitOp(name, (qubit,), angle),))
        assert np.abs(execute(circ).amplitudes - dense_execute(circ)).max() < 1e-12

    @pytest.mark.parametrize("control, target", [(0, 2), (2, 0), (0, 4), (4, 0), (2, 4), (4, 2)])
    def test_cx_in_both_directions_matches_dense_oracle(self, control, target):
        circ = Circuit(5, SPREAD_5 + (CircuitOp("CX", (control, target)),))
        assert np.abs(execute(circ).amplitudes - dense_execute(circ)).max() < 1e-12

    def test_peaks_under_two_and_a_half_states(self):
        # the op loop holds two buffers; the spare one is freed before the result is checked,
        # and the check's |a|^2 before the state keeps its copy. Holding the spare, or copying
        # first, peaks at 3 states. This circuit's result lands in the scratch buffer.
        circuit = Circuit(16, tuple(CircuitOp("H", (q,)) for q in range(16)) + (CircuitOp("RX", (15,), 0.3),))
        tracemalloc.start()
        try:
            state = execute(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state.amplitudes.nbytes

    @pytest.mark.parametrize("k", [0, 2])
    def test_nan_angle_names_its_op(self, k):
        ops = [CircuitOp("H", (0,)), CircuitOp("Z", (1,)), CircuitOp("RY", (1,), 0.3)]
        ops[k] = CircuitOp("RX", (0,), float("nan"))
        with pytest.raises(NonFiniteAngle) as info:
            execute(Circuit(2, tuple(ops)))
        assert info.value.op_index == k
        assert str(info.value).startswith(f"op {k} (RX): ")


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def apply_chain(state: StateVector, ops, angles) -> StateVector:
    """The ops one `apply_gate` call at a time: a fresh matrix and kernel per op."""
    for op, angle in zip(ops, angles):
        state = apply_gate(state, gate_from_name(op.gate_name, angle), op.targets)
    return state


# On 4 qubits with one column, RY on qubit 0 takes the matmul path, CX (0, 1)
# the gather path and H on qubit 3 the staged path.
PLAN_OPS = (CircuitOp("RY", (0,), 0.3), CircuitOp("CX", (0, 1)), CircuitOp("H", (3,)))


class TestOpPlan:
    """`_run` binds one kernel step per (targets, CX, source buffer, output
    buffer, axis order) in a plan table that may serve many calls, leaves a
    staged product in its staged axis order until the end of the call, and
    builds one matrix per op object within one call; none of it may change a bit."""

    @pytest.mark.parametrize(
        "ops",
        [PLAN_OPS[:count] for count in range(4)] + [(CircuitOp("H", (3,)), CircuitOp("H", (2,)))],
        ids=["0", "1", "2", "3", "two_staged"],
    )
    def test_returns_the_buffer_of_the_op_count_parity(self, ops, rng):
        # the result is whichever of the two buffers the op paths leave it in:
        # two staged ops (an even count) end in the scratch buffer
        state = random_state(4, rng)
        src = state.amplitudes.reshape(-1, 1).copy()
        scratch = np.empty_like(src)
        out = _run(src, ops, [op.angle for op in ops], scratch)
        assert out is src or out is scratch
        expected = apply_chain(state, ops, [op.angle for op in ops]).amplitudes
        np.testing.assert_array_equal(bits(out.reshape(-1)), bits(expected))

    def test_interned_ops_at_both_parities_keep_signed_zero_angles_apart(self):
        # every statement at an even and an odd index: each interned op runs from both buffers
        lines = ["rz 0 0", "rz 0 -0", "rz 0 -0", "h 0", "rz 1 0"]
        lines += ["rz 1 0", "rz 0 -0", "rz 0 0", "h 0", "rz 0 0"]
        circuit = dsl.parse("qubits 2\n" + "\n".join(lines))
        assert len({id(op) for op in circuit.ops}) == 4
        zero, negative_zero = circuit.ops[0], circuit.ops[1]
        assert zero is circuit.ops[7] is circuit.ops[9] and negative_zero is circuit.ops[2]
        assert math.copysign(1.0, negative_zero.angle) < 0 < math.copysign(1.0, zero.angle)
        start = make_basis_state(2, "00")
        expected = apply_chain(start, circuit.ops, [op.angle for op in circuit.ops]).amplitudes
        np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(expected))
        # the program tells 0.0 from -0.0: one matrix for both signs would move bits
        for angle in ("0", "-0"):
            same = [line[:5] + angle if line.startswith("rz") else line for line in lines]
            uniform = execute(dsl.parse("qubits 2\n" + "\n".join(same))).amplitudes
            assert not np.array_equal(bits(uniform), bits(expected))

    def test_bound_angles_never_reuse_a_stale_matrix(self, rng):
        slot = AnsatzOp("RY", (0,), param=0)
        template = AnsatzTemplate(2, (slot, CircuitOp("CX", (0, 1)), slot), 1)
        inputs = tuple(random_state(2, rng) for _ in range(3))
        objective = _Objective.of_loss(template, LossSpec(inputs))
        first = objective.probs([0.4, None, 0.4])
        # one op object bound to two angles in one call, then a second call
        second = objective.probs([1.1, None, -0.7])
        fresh = _Objective.of_loss(template, LossSpec(inputs)).probs([1.1, None, -0.7])
        np.testing.assert_array_equal(bits(second), bits(fresh))
        for row, state in enumerate(inputs):
            for angles, probs in (([0.4, None, 0.4], first), ([1.1, None, -0.7], second)):
                amps = apply_chain(state, template.ops, angles).amplitudes
                np.testing.assert_allclose(probs[row], np.abs(amps) ** 2, atol=1e-12)

    @pytest.mark.parametrize("bound_first", [True, False])
    def test_one_op_object_at_a_bound_angle_and_at_its_own(self, bound_first, rng):
        # a matrix is cached by op object only at the op's own angle, so the
        # bound 0.7 never serves the op's own 0.3 later in the call
        op = CircuitOp("RY", (1,), 0.3)
        angles = (0.7, op.angle) if bound_first else (op.angle, 0.7)
        state = random_state(3, rng)
        out = _run(state.amplitudes.reshape(-1, 1).copy(), (op, op), angles)
        expected = apply_chain(state, (op, op), angles).amplitudes
        np.testing.assert_array_equal(bits(out.reshape(-1)), bits(expected))

    def test_staged_products_keep_their_axis_order_on_the_wide_program(self, kernel_paths):
        # wide20's 87 ops on 20 qubits: a staged product is left in its staged
        # layout, so later gates on its qubits run as a matmul and only 6 ops
        # stage (copying each staged product back to qubit order stages 19); its
        # 25 CXs run as 2 steps, layer 1's 3 and then layer 2's 3 with the chain
        execute(Circuit(20, tuple(wide_ops(20))))
        assert len(kernel_paths) == 64
        paths = [path for path, _ in kernel_paths]
        assert paths.count("staged") == 6 and paths.count("cx") == 2

    def test_one_plan_table_serves_any_pair_of_its_buffers_in_either_order(self, rng):
        # on 3 qubits with 4 columns the three ops run as matmul, gather and matmul
        # steps; a step kept for (a, b) must not run when the table is used on (c, d),
        # nor on (b, a)
        ops = (CircuitOp("RY", (0,), 0.3), CircuitOp("CX", (0, 1)), CircuitOp("H", (2,)))
        angles = [op.angle for op in ops]
        a, b, c, d = (np.zeros((8, 4), dtype=np.complex128) for _ in range(4))
        plans = {}
        for src, scratch in ((a, b), (c, d), (b, a)):
            batch = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
            np.copyto(src, batch)
            out = _run(src, ops, angles, scratch, plans)
            np.testing.assert_array_equal(bits(out), bits(_run(batch, ops, angles)))

    @pytest.mark.parametrize("k", [3, 5])
    def test_infinite_bound_angle_after_cached_ops_names_its_op(self, k, rng):
        slot, h = AnsatzOp("RY", (1,), param=0), CircuitOp("H", (0,))
        template = AnsatzTemplate(2, (h, slot, h, slot, h, slot), 1)
        objective = _Objective.of_loss(template, LossSpec((random_state(2, rng),)))
        angles = [None, 0.2, None, 0.2, None, 0.2]
        angles[k] = math.inf
        with pytest.raises(NonFiniteAngle) as info:
            objective.probs(angles)
        assert info.value.op_index == k
        assert str(info.value).startswith(f"op {k} (RY): ")


def one_step_per_op(buf: np.ndarray, ops) -> np.ndarray:
    """`ops` on `buf` (consumed) one kernel step each, back in qubit order after each:
    a CX is its staged zgemm (a dgemm on float64), whatever its neighbours."""
    order = tuple(range(buf.shape[0].bit_length()))
    for op in ops:
        matrix = gates.op_matrix(op.gate_name, op.angle)
        matrix = np.ascontiguousarray(matrix.real) if buf.dtype == np.float64 else matrix
        out = np.empty_like(buf)
        step, into_out, after = gates._bind(buf, out, order, op.targets, False)
        step(matrix)
        product, buf = (out, buf) if into_out else (buf, out)
        np.copyto(*gates._relabel(product, buf, after, order))
    return buf


def signed_zero_columns(n: int, batch: int, dtype, rng: np.random.Generator) -> np.ndarray:
    """A `(2**n, batch)` buffer of unit columns with about a fifth of its parts `-0.0`."""
    parts = rng.normal(size=(1 << n, batch, 2 if dtype == np.complex128 else 1))
    parts[rng.random(parts.shape) < 0.2] = -0.0
    buf = parts.view(np.complex128)[..., 0] if dtype == np.complex128 else parts[..., 0]
    return np.ascontiguousarray(buf / np.linalg.norm(buf, axis=0))


def cx_runs() -> list[list[tuple[int, int]]]:
    """Runs of 1 to 12 CX ops on 5 qubits: lone, repeated, reversed, cancelling and
    swapping pairs, a chain there and back, then seeded random runs of each length."""
    rng = np.random.default_rng(31)
    runs = [[(0, 1)], [(4, 3)], [(0, 1), (0, 1)], [(2, 3)] * 3, [(0, 1), (1, 0)], [(0, 1), (1, 0), (0, 1)]]
    runs.append([(q, q + 1) for q in range(4)] + [(q + 1, q) for q in reversed(range(4))])
    for k in range(1, 13):
        runs.append([tuple(int(q) for q in rng.choice(5, size=2, replace=False)) for _ in range(k)])
    return runs


class TestCxRuns:
    """`_run` applies each maximal run of CX ops as one row gather and one zero add where
    `gates._bind`'s run rule allows, and each CX as its own staged step elsewhere; the bits
    are those of one step per op, of `apply_gate` per op and of the tensordot oracle."""

    # on 5 qubits RY on qubits 0-2 runs as a matmul; RY on qubits 3 and 4 stages a
    # one-column buffer, so a run after it gathers from axes out of qubit order
    PREFIXES = {"in_order": range(3), "staged": range(5)}

    @pytest.mark.parametrize("position", ["last", "middle"])
    @pytest.mark.parametrize("prefix", ["in_order", "staged"])
    @pytest.mark.parametrize("batch", [1, 4, 8])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_a_run_keeps_the_bits_of_one_step_per_op(self, dtype, batch, prefix, position, kernel_paths):
        rng = np.random.default_rng([batch, len(prefix), len(position)])
        head = [CircuitOp("RY", (q,), 0.4 + 0.3 * q) for q in self.PREFIXES[prefix]]
        tail = [] if position == "last" else [CircuitOp("H", (0,))]
        for run in cx_runs():
            ops = tuple(head + [CircuitOp("CX", pair) for pair in run] + tail)
            buf = signed_zero_columns(5, batch, dtype, rng)
            kernel_paths.clear()
            out = _run(buf.copy(), ops, [op.angle for op in ops])
            # the one gather starts from qubit order unless a one-column prefix staged
            assert [path for path, _ in kernel_paths].count("cx") == 1
            assert ("cx", prefix == "in_order" or batch > 1) in kernel_paths
            np.testing.assert_array_equal(bits(out), bits(one_step_per_op(buf.copy(), ops)))
            if dtype == np.complex128:
                np.testing.assert_array_equal(bits(out.T), bits(oracle_ansatz(buf.T, ops)))
            if dtype == np.complex128 and batch == 1:
                chained = apply_chain(StateVector(5, buf[:, 0]), ops, [op.angle for op in ops])
                np.testing.assert_array_equal(bits(out[:, 0]), bits(chained.amplitudes))
                circuit = Circuit(5, ops)
                np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(oracle_execute(circuit)))

    @pytest.mark.parametrize(
        "n, batch, head",
        [(3, 1, 0), (3, 3, 0), (3, 5, 0), (8, 4, 1), (8, 8, 1)],
        ids=["remainder_1", "remainder_3", "remainder_5", "batch_4_not_last", "batch_8_not_last"],
    )
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_each_cx_stages_where_a_run_cannot_gather(self, dtype, n, batch, head, kernel_paths):
        # a CX whose staged product has BLAS remainder columns, or a batch wider than 1
        # that a staged RY on the last qubit moved off the last axis, takes the staged step
        rng = np.random.default_rng([n, batch])
        ops = (CircuitOp("RY", (n - 1,), 0.8),)[:head] + tuple(
            CircuitOp("CX", pair) for pair in ((0, 1), (1, 2), (2, 0), (0, 1))
        )
        buf = signed_zero_columns(n, batch, dtype, rng)
        out = _run(buf.copy(), ops, [op.angle for op in ops])
        assert [path for path, _ in kernel_paths] == ["staged"] * len(ops)
        np.testing.assert_array_equal(bits(out), bits(one_step_per_op(buf.copy(), ops)))
        if dtype == np.complex128:
            np.testing.assert_array_equal(bits(out.T), bits(oracle_ansatz(buf.T, ops)))

    def test_a_run_step_allocates_under_a_quarter_of_its_buffer(self):
        # the gather writes `out` unbuffered from an index of O(2**(n/2)) entries: a
        # buffered `np.take` or a full 2**16 index would allocate half the buffer or more
        src = signed_zero_columns(16, 1, np.complex128, np.random.default_rng(5))
        out = np.empty_like(src)
        chain = tuple(q for c in range(15) for q in (c, c + 1))
        tracemalloc.start()
        try:
            step, into_out, _ = gates._bind(src, out, tuple(range(17)), chain, True)
            step(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert into_out and peak < src.nbytes // 4
        expected = src.copy()
        for c in range(15):
            expected = one_step_per_op(expected, [CircuitOp("CX", (c, c + 1))])
        np.testing.assert_array_equal(bits(out), bits(expected))


class TestMeasureOnce:
    def test_deterministic_state(self):
        state = make_basis_state(3, "110")
        for seed in (0, 1, 99):
            bits, collapsed = measure_once(state, seed)
            assert bits == "110"
            assert np.array_equal(collapsed.amplitudes, state.amplitudes)

    def test_same_seed_same_outcome(self):
        state = execute(BELL)
        assert measure_once(state, 42)[0] == measure_once(state, 42)[0]

    def test_collapse_idempotence(self):
        state = execute(BELL)
        for seed in range(20):
            bits, collapsed = measure_once(state, seed)
            for seed2 in range(5):
                bits2, again = measure_once(collapsed, seed2)
                assert bits2 == bits
                assert np.array_equal(again.amplitudes, collapsed.amplitudes)

    def test_superposition_frequencies(self):
        state = StateVector(1, [SQRT2_INV, SQRT2_INV])
        hist = sample_state(state, 100_000, seed=11)
        for key in ("0", "1"):
            assert 0.49 <= hist.counts[key] / 100_000 <= 0.51

    def test_zero_probability_tail_is_never_drawn(self):
        # the row sums to 1 - 5e-10, within NORM_ATOL, and u is just below 1
        class AlmostOne:
            def random(self, count):
                return np.full(count, 1.0 - 1e-12)

        a = math.sqrt(0.3)
        b = math.sqrt(0.7 - 5e-10)
        state = StateVector(2, [a, b, 0.0, 0.0])
        assert draw_indices(probabilities(state), 4, AlmostOne()).tolist() == [1, 1, 1, 1]

    def test_amplitude_encoded_frequencies(self):
        # P("01") = 2.7^2 / 10.19 per the normalization-factor oracle
        hist = sample_state(amplitude_encoded_example(), 100_000, seed=3)
        assert hist.counts["01"] / 100_000 == pytest.approx(7.29 / 10.19, abs=0.006)


class TestSample:
    def test_bell_only_correlated_outcomes(self):
        hist = sample(BELL, 10_000, seed=7)
        assert set(hist.counts) == {"00", "11"}

    def test_basis_state_all_shots(self):
        hist = sample(Circuit(3, ()), 5, seed=0)
        assert hist.counts == {"000": 5}

    def test_hadamard_frequencies(self):
        hist = sample(Circuit(1, (CircuitOp("H", (0,)),)), 100_000, seed=21)
        assert 49_000 <= hist.counts["0"] <= 51_000
        assert 49_000 <= hist.counts["1"] <= 51_000

    def test_determinism(self):
        a = sample(BELL, 1000, seed=5)
        b = sample(BELL, 1000, seed=5)
        assert a == b
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7", None])
    def test_rejects_bad_seed(self, seed):
        # not an OverflowError from Philox, and 1.5 is not truncated to 1
        with pytest.raises(ConfigError, match="seed must be"):
            sample(BELL, 3, seed)
        with pytest.raises(ConfigError, match="seed must be"):
            sample_state(make_basis_state(1, "0"), 3, seed)
        with pytest.raises(ConfigError, match="seed must be"):
            measure_once(make_basis_state(1, "0"), seed)

    def test_seed_bounds_and_numpy_integers_accepted(self):
        assert sample(BELL, 5, 2**64 - 1).shots == 5
        assert sample(BELL, 5, np.uint64(9)) == sample(BELL, 5, 9)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(BELL, 0, seed=0)

    def test_chi_square_against_exact_probabilities(self):
        """Sampled frequencies agree with the exact distribution at alpha=1e-4."""
        circuits = [
            BELL,
            Circuit(2, (CircuitOp("H", (0,)), CircuitOp("H", (1,)))),
            Circuit(2, (CircuitOp("RY", (0,), 1.0), CircuitOp("RX", (1,), 2.2),
                        CircuitOp("CX", (0, 1)))),
            Circuit(2, (CircuitOp("RY", (0,), 0.4),)),
        ]
        shots = 100_000
        for seed, circ in enumerate(circuits):
            probs = probabilities(execute(circ))
            hist = sample(circ, shots, seed=seed)
            observed = np.array(
                [hist.counts.get(format(i, "02b"), 0) for i in range(4)], dtype=float
            )
            support = probs > 1e-12
            assert observed[~support].sum() == 0
            result = stats.chisquare(observed[support], probs[support] * shots)
            assert result.pvalue > 1e-4


class TestHistogram:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            Histogram(5, {"0": 4})

    def test_numpy_shots_are_stored_as_an_int(self):
        histogram = Histogram(np.int64(2), {"0": 2})
        assert type(histogram.shots) is int
        assert json.loads(histogram.to_json()) == {"counts": {"0": 2}, "shots": 2}

    def test_copies_the_callers_counts(self):
        counts = {"0": 1}
        histogram = Histogram(1, counts)
        counts["1"] = 5
        assert histogram.to_json() == '{"counts": {"0": 1}, "shots": 1}'

    @pytest.mark.parametrize("built", ["by_hand", "sampled"])
    def test_counts_are_read_only(self, built):
        histogram = Histogram(2, {"0": 2}) if built == "by_hand" else sample(Circuit(1, []), 2, 0)
        with pytest.raises(TypeError):
            histogram.counts["0"] += 5
        with pytest.raises(TypeError):
            histogram.counts["1"] = 5
        assert histogram.to_json() == '{"counts": {"0": 2}, "shots": 2}'

    def test_a_large_histogram_is_written_as_its_plain_dict(self):
        counts = {format(i, "017b"): 1 + i % 3 for i in range(100_000)}
        histogram = Histogram(sum(counts.values()), counts)
        assert histogram.to_json() == json.dumps({"shots": histogram.shots, "counts": counts}, sort_keys=True)
        payload = histogram._payload()
        payload["counts"]["0" * 17] += 5
        payload["counts"]["extra"] = 1
        assert dict(histogram.counts) == counts

    def test_json_keys_sorted(self):
        payload = Histogram(3, {"10": 1, "01": 2}).to_json()
        assert payload == '{"counts": {"01": 2, "10": 1}, "shots": 3}'
        assert json.loads(payload)["shots"] == 3
