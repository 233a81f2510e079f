import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from qaml import (
    AnsatzOp,
    AnsatzTemplate,
    Circuit,
    CircuitOp,
    EncodingSpec,
    LossSpec,
    StateVector,
    TrainConfig,
    TrainReport,
    bind,
    diffusion,
    encode_amplitude,
    encode_angle,
    execute,
    expectation_z,
    gradient,
    hadamard_layer,
    loss_value,
    make_basis_state,
    norm_squared,
    probabilities,
    train,
)
from qaml import gates, hybrid
from qaml.cli import default_ansatz
from qaml.errors import (
    ConfigError,
    DatasetError,
    EmptyDataset,
    EmptyInput,
    InvalidBitstring,
    InvalidLabel,
    InvariantError,
    NonFiniteAngle,
    NonFiniteFeature,
    NonFiniteParam,
    ParamCountMismatch,
    QubitMismatch,
    TargetOutOfRange,
)

RY_TEMPLATE = AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 1)


def uniform_state(n):
    return StateVector(n, np.full(1 << n, 2.0 ** (-n / 2)))


def random_template(n_qubits, n_params, depth, rng):
    """Random ansatz using every gate kind; guarantees each param is used."""
    ops = []
    for j in range(n_params):
        name = rng.choice(["RX", "RY", "RZ"])
        ops.append(AnsatzOp(name, (int(rng.integers(n_qubits)),), param=j))
    for _ in range(depth):
        roll = rng.random()
        if n_qubits >= 2 and roll < 0.25:
            c, t = rng.choice(n_qubits, size=2, replace=False)
            ops.append(AnsatzOp("CX", (int(c), int(t))))
        elif roll < 0.5:
            name = rng.choice(["H", "X", "Y", "Z"])
            ops.append(AnsatzOp(name, (int(rng.integers(n_qubits)),)))
        else:
            name = rng.choice(["RX", "RY", "RZ"])
            ops.append(
                AnsatzOp(name, (int(rng.integers(n_qubits)),), param=int(rng.integers(n_params)))
            )
    rng.shuffle(ops)
    return AnsatzTemplate(n_qubits, tuple(ops), n_params)


class TestHadamardLayer:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uniform_amplitudes(self, n):
        state = execute(hadamard_layer(n))
        assert np.allclose(state.amplitudes, np.full(1 << n, 2.0 ** (-n / 2)), atol=1e-12)


class TestBind:
    def test_simple_substitution(self):
        circ = bind(RY_TEMPLATE, [math.pi / 2])
        assert circ.ops == (CircuitOp("RY", (0,), math.pi / 2),)

    def test_shared_parameter(self):
        template = AnsatzTemplate(
            1,
            (AnsatzOp("RY", (0,), param=0), AnsatzOp("RY", (0,), param=0)),
            1,
        )
        circ = bind(template, [0.7])
        assert all(op.angle == 0.7 for op in circ.ops)

    def test_rz_sequence_equals_summed_angle(self):
        template = AnsatzTemplate(
            1,
            (AnsatzOp("RZ", (0,), param=0), AnsatzOp("RZ", (0,), param=1)),
            2,
        )
        a, b = 0.8, -1.9
        two_step = execute(bind(template, [a, b]))
        one_step = execute(
            bind(AnsatzTemplate(1, (AnsatzOp("RZ", (0,), param=0),), 1), [a + b])
        )
        assert np.abs(two_step.amplitudes - one_step.amplitudes).max() < 1e-12

    def test_param_count_mismatch(self):
        with pytest.raises(ParamCountMismatch):
            bind(RY_TEMPLATE, [0.1, 0.2])

    def test_non_finite_param(self):
        with pytest.raises(NonFiniteParam):
            bind(RY_TEMPLATE, [math.nan])

    def test_unused_slot_rejected(self):
        with pytest.raises(ValueError):
            AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=0),), 2)

    @pytest.mark.parametrize("slot", [-1, 1, 5])
    def test_slot_out_of_range(self, slot):
        with pytest.raises(InvariantError, match=rf"parameter slots out of range: \[{slot}\]"):
            AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=slot),), 1)

    def test_negative_n_params(self):
        with pytest.raises(InvariantError, match="n_params must be non-negative"):
            AnsatzTemplate(1, (), -1)

    @pytest.mark.parametrize("slot", [True, False, 0.0, np.float64(0.0), "0"])
    def test_slot_must_be_an_integer(self, slot):
        # a bool or float slot used to build, then fail inside numpy at bind time
        with pytest.raises(InvariantError, match="parameter slot must be an integer"):
            AnsatzOp("RY", (0,), param=slot)

    def test_numpy_integer_slot(self):
        template = AnsatzTemplate(1, (AnsatzOp("RY", (0,), param=np.int64(0)),), 1)
        assert bind(template, [0.7]) == bind(RY_TEMPLATE, [0.7])
        loss = LossSpec((make_basis_state(1, "0"),), (1.0,))
        assert loss_value(template, [0.7], loss) == loss_value(RY_TEMPLATE, [0.7], loss)


class TestDiffusion:
    def test_amplifies_marked_state_n2(self):
        amps = np.full(4, 0.5)
        amps[3] *= -1
        out = diffusion(StateVector(2, amps))
        assert probabilities(out)[3] == pytest.approx(1.0, abs=1e-9)

    def test_amplifies_marked_state_n3(self):
        amps = np.full(8, 1 / math.sqrt(8))
        amps[7] *= -1
        out = diffusion(StateVector(3, amps))
        assert probabilities(out)[7] == pytest.approx(25 / 32, abs=1e-9)

    def test_matches_dense_reflection_operator(self, rng):
        # oracle: explicit 2|s><s| - I matrix
        for n in (1, 2, 3):
            dim = 1 << n
            s = np.full(dim, dim ** -0.5)
            operator = 2.0 * np.outer(s, s) - np.eye(dim)
            state = random_state(n, rng)
            assert np.abs(
                diffusion(state).amplitudes - operator @ state.amplitudes
            ).max() < 1e-12

    def test_uniform_state_fixed(self):
        state = uniform_state(2)
        assert np.abs(diffusion(state).amplitudes - state.amplitudes).max() < 1e-12

    def test_involution(self, rng):
        for n in (1, 2, 4):
            state = random_state(n, rng)
            twice = diffusion(diffusion(state))
            assert np.abs(twice.amplitudes - state.amplitudes).max() < 1e-12
            assert abs(norm_squared(diffusion(state)) - 1.0) < 1e-12


class TestExpectationZ:
    def test_ground_state(self):
        assert expectation_z(make_basis_state(1, "0"), 0) == 1.0

    def test_equal_superposition(self):
        assert abs(expectation_z(execute(hadamard_layer(1)), 0)) < 1e-12

    def test_ry_rotation_gives_cosine(self):
        for theta in np.linspace(-2 * math.pi, 2 * math.pi, 41):
            state = execute(bind(RY_TEMPLATE, [theta]))
            assert expectation_z(state, 0) == pytest.approx(math.cos(theta), abs=1e-9)

    def test_per_qubit_readout(self):
        state = make_basis_state(3, "010")
        assert expectation_z(state, 0) == 1.0
        assert expectation_z(state, 1) == -1.0
        assert expectation_z(state, 2) == 1.0

    def test_qubit_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            expectation_z(make_basis_state(1, "0"), 1)

    def test_bool_qubit(self):
        # True == 1, so it used to read qubit 1
        with pytest.raises(TargetOutOfRange, match="qubit index must be an integer, got True"):
            expectation_z(make_basis_state(2, "01"), True)


class TestGradient:
    def expectation_loss(self):
        return LossSpec((make_basis_state(1, "0"),), None, qubit=0)

    def test_analytic_minus_sine(self):
        loss = self.expectation_loss()
        grad = gradient(RY_TEMPLATE, [math.pi / 2], loss)
        assert grad[0] == pytest.approx(-1.0, abs=1e-9)

    def test_stationary_point(self):
        grad = gradient(RY_TEMPLATE, [0.0], self.expectation_loss())
        assert grad[0] == pytest.approx(0.0, abs=1e-9)

    def test_sine_across_grid(self):
        loss = self.expectation_loss()
        for theta in np.linspace(-3, 3, 25):
            grad = gradient(RY_TEMPLATE, [theta], loss)
            assert grad[0] == pytest.approx(-math.sin(theta), abs=1e-9)

    def test_shift_vs_finite_difference_random_trials(self, rng):
        """100 random (template, params, inputs) trials agree within 1e-4."""
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            template = random_template(n, m, depth=int(rng.integers(1, 6)), rng=rng)
            params = rng.uniform(-math.pi, math.pi, size=m)
            inputs = tuple(random_state(n, rng) for _ in range(int(rng.integers(1, 4))))
            labels = tuple(float(rng.choice([-1.0, 1.0])) for _ in inputs)
            loss = LossSpec(inputs, labels, qubit=int(rng.integers(n)))
            ps = gradient(template, params, loss, "parameter_shift")
            fd = gradient(template, params, loss, "finite_difference", fd_step=1e-5)
            assert np.abs(ps - fd).max() < 1e-4

    def test_loss_value_matches_mse_by_hand(self):
        state = make_basis_state(1, "0")
        loss = LossSpec((state, state), (1.0, -1.0))
        # predictions are both +1, so MSE = (0 + 4) / 2
        assert loss_value(RY_TEMPLATE, [0.0], loss) == pytest.approx(2.0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            gradient(RY_TEMPLATE, [0.0], self.expectation_loss(), "adjoint")

    def test_overflowing_angle_names_its_op(self):
        big = sys.float_info.max
        loss = self.expectation_loss()
        message = r"^op 0 \(RY\): rotation angle must be finite"
        with np.errstate(over="ignore"), pytest.raises(NonFiniteAngle, match=message):
            gradient(RY_TEMPLATE, [big], loss, "finite_difference", fd_step=big)


def reference_shift_gradient(template, params, features, labels):
    """Parameter shift built from `bind` + `execute` alone: every shifted
    circuit runs in full from |0...0>, behind the angle encoding of its sample,
    and is read out on qubit 0."""
    bound = bind(template, params).ops
    preps = [encode_angle(x).ops for x in features]

    def exps(ops):
        circuits = [Circuit(template.n_qubits, prep + ops) for prep in preps]
        return np.array([expectation_z(execute(c), 0) for c in circuits])

    factors = 2.0 * (exps(bound) - np.asarray(labels)) / len(labels)
    grad = np.zeros(template.n_params)
    for k, op in enumerate(template.ops):
        if op.param is None:
            continue
        plus, minus = list(bound), list(bound)
        plus[k] = replace(bound[k], angle=bound[k].angle + math.pi / 2)
        minus[k] = replace(bound[k], angle=bound[k].angle - math.pi / 2)
        grad[op.param] += 0.5 * (exps(tuple(plus)) - exps(tuple(minus))) @ factors
    return grad


def encoded(features):
    return tuple(execute(encode_angle(x)) for x in features)


_SHARED_SLOT = AnsatzOp("RY", (1,), param=0)

WALK_TEMPLATES = {
    # the first shifted pass starts at op 0: its prefix advance is empty
    "parameter_at_op_0": AnsatzTemplate(
        3,
        (
            AnsatzOp("RY", (0,), param=0),
            AnsatzOp("CX", (0, 1)),
            AnsatzOp("H", (2,)),
            AnsatzOp("RX", (1,), param=1),
            AnsatzOp("CX", (1, 2)),
        ),
        2,
    ),
    # each advance between the adjacent parameterized ops is one op long
    "adjacent_parameters": AnsatzTemplate(
        3,
        (
            AnsatzOp("H", (0,)),
            AnsatzOp("RY", (0,), param=0),
            AnsatzOp("RZ", (0,), param=1),
            AnsatzOp("RX", (2,), param=2),
            AnsatzOp("CX", (0, 2)),
        ),
        3,
    ),
    # every suffix runs the fixed tail
    "fixed_ops_after_the_last_parameter": AnsatzTemplate(
        3,
        (
            AnsatzOp("H", (1,)),
            AnsatzOp("RX", (1,), param=0),
            AnsatzOp("CX", (1, 0)),
            AnsatzOp("Y", (2,)),
            AnsatzOp("RZ", (2,), param=1),
            AnsatzOp("H", (0,)),
            AnsatzOp("CX", (2, 0)),
            AnsatzOp("X", (1,)),
            AnsatzOp("Z", (0,)),
        ),
        2,
    ),
    # slot 0 on two ops, one op object twice: each occurrence shifts alone
    "one_slot_on_two_ops": AnsatzTemplate(
        3,
        (
            AnsatzOp("RY", (0,), param=0),
            _SHARED_SLOT,
            AnsatzOp("CX", (0, 1)),
            _SHARED_SLOT,
            AnsatzOp("RX", (2,), param=1),
            AnsatzOp("CX", (1, 2)),
        ),
        2,
    ),
    "no_parameters": AnsatzTemplate(3, (AnsatzOp("H", (0,)), AnsatzOp("CX", (0, 2))), 0),
}


class TestShiftWalk:
    """Parameter shift walks the template with one running prefix buffer; it
    must match full shifted circuits run by `execute`, and keep the bits of
    full shifted passes through the batch."""

    FEATURES = ([0.3, 1.2, -0.8], [2.1, -0.4, 0.9], [-1.5, 0.6, 2.7])
    LABELS = (1.0, -1.0, 1.0)

    def loss(self):
        return LossSpec(encoded(self.FEATURES), self.LABELS)

    @pytest.mark.parametrize("name", list(WALK_TEMPLATES))
    def test_matches_full_shifted_circuits(self, name, rng):
        template = WALK_TEMPLATES[name]
        params = rng.uniform(-math.pi, math.pi, size=template.n_params)
        objective = hybrid._Objective.of_loss(template, self.loss())
        before = objective.tensor.copy()
        angles = hybrid._bound_angles(template, params)
        got = objective.shift_gradient(angles, objective.loss(objective.probs(angles))[1])
        # the walk copies the stacked batch and never consumes it
        np.testing.assert_array_equal(objective.tensor.view(np.uint64), before.view(np.uint64))
        assert got.shape == (template.n_params,)
        expected = reference_shift_gradient(template, params, self.FEATURES, self.LABELS)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        public = gradient(template, params, self.loss())
        np.testing.assert_array_equal(public.view(np.uint64), got.view(np.uint64))

    @pytest.mark.parametrize(
        "template, batch",
        [(t, 3) for t in WALK_TEMPLATES.values()] + [(default_ansatz(6), 40)],
        ids=[*WALK_TEMPLATES, "default_ansatz_6"],
    )
    def test_keeps_the_bits_of_full_shifted_passes(self, template, batch, rng):
        inputs = tuple(random_state(template.n_qubits, rng) for _ in range(batch))
        labels = tuple(rng.choice([-1.0, 1.0], batch))
        objective = hybrid._Objective.of_loss(template, LossSpec(inputs, labels))
        angles = hybrid._bound_angles(template, rng.uniform(-3, 3, size=template.n_params))
        factors = objective.loss(objective.probs(angles))[1]
        d_exps = np.zeros((template.n_params, batch))
        for k, op in enumerate(template.ops):
            if op.param is None:
                continue
            for delta, sign in ((math.pi / 2, 0.5), (-math.pi / 2, -0.5)):
                shifted = list(angles)
                shifted[k] += delta
                exps = hybrid._readout(objective.probs(shifted), objective.signs)
                d_exps[op.param] += sign * exps
        got = objective.shift_gradient(angles, factors)
        np.testing.assert_array_equal(got.view(np.uint64), (d_exps @ factors).view(np.uint64))

    def test_random_templates_match_full_shifted_circuits(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            template = random_template(3, m, depth=int(rng.integers(1, 8)), rng=rng)
            params = rng.uniform(-math.pi, math.pi, size=m)
            expected = reference_shift_gradient(template, params, self.FEATURES, self.LABELS)
            got = gradient(template, params, self.loss())
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestPassCount:
    """Each training iteration reads the unshifted pass twice (the loss, then
    the gradient's loss factors) and one shifted pass per parameterized op and
    sign, and the shifted passes rerun only the ops from their parameter on."""

    DATA = [([0.4, 1.1, -0.2], 1), ([2.5, -0.3, 0.8], -1), ([0.9, 0.1, 1.7], 1)]

    def counted(self, monkeypatch, name, size):
        calls = []
        wrapped = getattr(hybrid, name)

        def counting(*args, **kwargs):
            calls.append(size(*args))
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(hybrid, name, counting)
        return calls

    @pytest.mark.parametrize("shots", [0, 64])
    def test_readouts_and_ops_per_iteration(self, monkeypatch, shots):
        readouts = self.counted(monkeypatch, "_readout", lambda *args: 1)
        ops_run = self.counted(monkeypatch, "_run", lambda src, ops, angles, *rest: len(ops))
        template = default_ansatz(3)
        iterations = 3
        config = TrainConfig(max_iterations=iterations, convergence_tol=0.0, shots=shots, seed=5)
        report = train(template, self.DATA, EncodingSpec("angle"), config)
        assert report.iterations_run == iterations
        n_ops = len(template.ops)
        shifted = [k for k, op in enumerate(template.ops) if op.param is not None]
        assert len(readouts) == iterations * (2 + 2 * len(shifted))
        # per iteration: the unshifted pass, prefix advances up to the last
        # parameterized op, and two suffixes per parameterized op
        walk = n_ops + shifted[-1] + 2 * sum(n_ops - k for k in shifted)
        final_pass = n_ops if shots else 0
        assert sum(ops_run) == iterations * walk + final_pass


class TestObjectiveBuffers:
    """An objective's passes run in three buffers it owns, with the kernel
    steps bound for them kept as long as it lives: after the first training
    iteration no pass binds a step, and no pass may see a stale buffer or a
    stale step."""

    DATA = TestPassCount.DATA

    def test_training_binds_only_in_its_first_iteration(self, monkeypatch):
        binds, starts = [], []
        bind, probs = gates._bind, hybrid._Objective.probs

        def counting_bind(*args):
            binds.append(args)
            return bind(*args)

        def marking_probs(objective, angles):  # train runs one unshifted pass per iteration
            starts.append(len(binds))
            return probs(objective, angles)

        monkeypatch.setattr(gates, "_bind", counting_bind)
        monkeypatch.setattr(hybrid._Objective, "probs", marking_probs)
        config = TrainConfig(max_iterations=3, convergence_tol=0.0)
        report = train(default_ansatz(3), self.DATA, EncodingSpec("angle"), config)
        assert report.iterations_run == 3
        per_iteration = np.diff([*starts, len(binds)]).tolist()
        assert per_iteration[0] > 0 and per_iteration[1:] == [0, 0]

    @pytest.mark.parametrize("n_qubits, batch", [(4, 5), (6, 40)])
    def test_second_calls_match_a_fresh_objective(self, n_qubits, batch, rng):
        # batch 5 on 4 qubits runs matmul, copy and staged steps
        template = default_ansatz(n_qubits)
        inputs = tuple(random_state(n_qubits, rng) for _ in range(batch))
        loss = LossSpec(inputs, tuple(rng.choice([-1.0, 1.0], batch)))
        first, second = (
            hybrid._bound_angles(template, rng.uniform(-3, 3, size=template.n_params))
            for _ in range(2)
        )
        objective = hybrid._Objective.of_loss(template, loss)
        objective.shift_gradient(first, objective.loss(objective.probs(first))[1])
        probs = objective.probs(second)
        factors = objective.loss(probs)[1]
        got = objective.shift_gradient(second, factors)
        fresh_probs = hybrid._Objective.of_loss(template, loss).probs(second)
        fresh = hybrid._Objective.of_loss(template, loss).shift_gradient(second, factors)
        np.testing.assert_array_equal(probs.view(np.uint64), fresh_probs.view(np.uint64))
        np.testing.assert_array_equal(got.view(np.uint64), fresh.view(np.uint64))

    def test_run_with_a_callers_scratch_allocates_no_buffer(self, rng):
        # on 11 qubits with 8 columns: matmul, copy and staged steps, then a restore
        ops = (
            CircuitOp("H", (0,)),
            CircuitOp("CX", (0, 1)),
            CircuitOp("RY", (10,), 0.3),
            CircuitOp("H", (9,)),
        )
        tensor = np.stack([random_state(11, rng).amplitudes for _ in range(8)], axis=1)

        def peak(scratch):
            src = tensor.copy()
            tracemalloc.start()
            try:
                out = hybrid._run(src, ops, [op.angle for op in ops], scratch)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        own, fresh = peak(np.empty_like(tensor)), peak(None)
        assert own[0] < tensor.nbytes // 2  # bookkeeping only: a buffer is 256 KiB
        assert fresh[0] >= tensor.nbytes  # the measure sees a per-call scratch buffer
        np.testing.assert_array_equal(own[1].view(np.uint64), fresh[1].view(np.uint64))


def real_template(n_qubits):
    """The default ansatz with an H, an X and a Z after its last parameter, so every
    shifted pass runs each real gate."""
    ops = default_ansatz(n_qubits).ops
    tail = (AnsatzOp("H", (0,)), AnsatzOp("X", (n_qubits // 2,)), AnsatzOp("Z", (n_qubits - 1,)))
    return AnsatzTemplate(n_qubits, ops + tail, 2 * n_qubits)


def real_objective(template, batch, encoding, hadamard, rng):
    """An objective on `batch` rows encoded as `train` encodes them: angle rows that
    include 0.0, -0.0, pi and -pi, or amplitude rows with zeros and both signs."""
    n = template.n_qubits
    if encoding.method == "angle":
        rows = rng.choice([0.0, -0.0, math.pi, -math.pi, 0.7, -2.1, 1.3], size=(batch, n))
        tensor = hybrid._encode_angles(rows.tolist(), encoding.axis, hadamard)
    else:
        rows = rng.choice([0.0, -0.0, 0.5, -1.25, 2.0], size=(batch, 1 << n))
        rows[:, 0] = 1.0  # no all-zero row
        tensor = np.stack([hybrid._encode_sample(row, encoding).amplitudes for row in rows], axis=1)
    return hybrid._Objective(template, tensor, tuple(rng.choice([-1.0, 1.0], batch)))


REAL_ROWS = {
    "y": (EncodingSpec("angle", "y"), False),
    "y_hadamard": (EncodingSpec("angle", "y"), True),
    "amplitude": (EncodingSpec("amplitude"), False),
}


class TestRealBatch:
    """A batch whose encoded amplitudes and template ops are all real runs its
    passes in float64, and keeps the bits of the same objective in complex128."""

    @pytest.mark.parametrize("axis", ["x", "z"])
    @pytest.mark.parametrize("hadamard", [False, True])
    def test_x_and_z_rows_stay_complex(self, axis, hadamard, rng):
        objective = real_objective(real_template(3), 4, EncodingSpec("angle", axis), hadamard, rng)
        assert objective.tensor.dtype == np.complex128

    @pytest.mark.parametrize("name", ["RX", "RZ", "Y"])
    def test_a_complex_op_keeps_the_batch_complex(self, name, rng):
        op = AnsatzOp(name, (1,), param=0) if name in gates.ROTATION_GATES else AnsatzOp(name, (1,))
        template = AnsatzTemplate(3, (op, *real_template(3).ops), 6)
        objective = real_objective(template, 4, EncodingSpec("angle", "y"), False, rng)
        assert objective.tensor.dtype == np.complex128

    def test_one_sample_on_one_qubit_stays_complex(self, rng):
        # its staged product is one column, which numpy hands to gemv, and dgemv
        # rounds with fused multiply-adds where zgemv does not
        objective = real_objective(real_template(1), 1, EncodingSpec("angle", "y"), False, rng)
        assert objective.tensor.dtype == np.complex128

    @pytest.mark.parametrize("rows", list(REAL_ROWS))
    def test_real_rows_run_in_float64(self, rows, rng):
        objective = real_objective(real_template(3), 4, *REAL_ROWS[rows], rng)
        assert objective.tensor.dtype == np.float64
        assert objective.tensor.flags.c_contiguous

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_keeps_the_bits_of_complex_passes(self, n_qubits, monkeypatch):
        template = real_template(n_qubits)
        for batch in [*range(1, 13), 256]:
            for case, rows in enumerate(REAL_ROWS.values()):
                seed = (n_qubits, batch, case)
                real = real_objective(template, batch, *rows, np.random.default_rng(seed))
                with monkeypatch.context() as patch:
                    patch.setattr(hybrid, "REAL_GATES", frozenset())
                    forced = real_objective(template, batch, *rows, np.random.default_rng(seed))
                assert forced.tensor.dtype == np.complex128
                assert real.tensor.dtype == (np.float64 if (2**n_qubits, batch) != (2, 1) else np.complex128)
                params = np.random.default_rng(seed).uniform(-3, 3, size=template.n_params)
                angles = hybrid._bound_angles(template, params)
                probs = real.probs(angles)
                np.testing.assert_array_equal(probs.view(np.uint64), forced.probs(angles).view(np.uint64))
                factors = real.loss(probs)[1]
                got = real.shift_gradient(angles, factors)
                expected = forced.shift_gradient(angles, factors)
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def execute_rows(rows, axis, hadamard):
    """One `execute(encode_angle(row))` per row, after the Hadamard layer if asked,
    stacked as columns: what `train` ran for angle rows before they were batched."""
    columns = []
    for row in rows:
        circuit = encode_angle(row, axis)
        if hadamard:
            circuit = Circuit(circuit.n_qubits, hadamard_layer(circuit.n_qubits).ops + circuit.ops)
        columns.append(execute(circuit).amplitudes)
    return np.stack(columns, axis=1)


class TestEncodeAngles:
    """`train` encodes angle rows as one batch, whose columns keep the bits of one
    `execute(encode_angle(row))` per row, signed zeros included."""

    @staticmethod
    def rows(n_qubits, seed):
        """Rows of 0.0, -0.0, pi and -pi alone, then 9 mixed rows with those values."""
        mixed = np.random.default_rng(seed).choice([0.0, -0.0, math.pi, -math.pi, 0.7, -2.1, 1.3], (9, n_qubits))
        return [[value] * n_qubits for value in (0.0, -0.0, math.pi, -math.pi)] + mixed.tolist()

    @pytest.mark.parametrize("hadamard", [False, True])
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_keeps_the_bits_of_one_execute_per_row(self, n_qubits, axis, hadamard):
        rows = self.rows(n_qubits, (n_qubits, ord(axis), hadamard))
        batch = hybrid._encode_angles(rows, axis, hadamard)
        expected = execute_rows(rows, axis, hadamard)
        assert batch.dtype == np.complex128 and batch.flags.c_contiguous
        np.testing.assert_array_equal(batch.view(np.uint64), expected.view(np.uint64))
        # the float64 rule keeps a C-contiguous copy of the real part of a real batch
        objective = hybrid._Objective(real_template(n_qubits), batch)
        if axis == "Y":
            assert objective.tensor.dtype == np.float64 and objective.tensor.flags.c_contiguous
            np.testing.assert_array_equal(objective.tensor.view(np.uint64), expected.real.copy().view(np.uint64))
        else:
            assert objective.tensor is batch

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_one_row(self, n_qubits):
        rows = [[-0.0, math.pi, 0.7][:n_qubits]]
        for axis, hadamard in [("X", False), ("Y", True), ("Z", True)]:
            batch = hybrid._encode_angles(rows, axis, hadamard)
            expected = execute_rows(rows, axis, hadamard)
            np.testing.assert_array_equal(batch.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("axis", ["X", "Y"])
    @pytest.mark.parametrize("hadamard", [False, True])
    def test_train_reads_the_loss_of_the_per_row_states(self, axis, hadamard):
        rows = self.rows(3, (3, ord(axis), hadamard))
        labels = [1 if k % 3 else -1 for k in range(len(rows))]
        config = TrainConfig(max_iterations=2, convergence_tol=0.0, hadamard_layer=hadamard)
        report = train(default_ansatz(3), list(zip(rows, labels)), EncodingSpec("angle", axis), config)
        states = tuple(StateVector(3, column) for column in execute_rows(rows, axis, hadamard).T)
        assert report.loss_trace[0] == loss_value(default_ansatz(3), np.zeros(6), LossSpec(states, labels))

    def test_peak_memory_is_two_batches(self):
        # 256 rows of 8 qubits: the batch and the staging buffer, 1 MiB each
        rows = np.random.default_rng(8).uniform(-math.pi, math.pi, (256, 8)).tolist()
        hybrid._encode_angles(rows, "Y", True)  # first-call caches are not the builder's
        tracemalloc.start()
        try:
            batch = hybrid._encode_angles(rows, "Y", True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.nbytes == 1 << 20
        assert peak < 2.25 * batch.nbytes


class TestLossSpecQubitCount:
    """A loss input whose width differs from the template's is named, not
    left to fail inside numpy."""

    CALLS = {
        "loss_value": lambda loss: loss_value(RY_TEMPLATE, [0.3], loss),
        "parameter_shift": lambda loss: gradient(RY_TEMPLATE, [0.3], loss),
        "finite_difference": lambda loss: gradient(RY_TEMPLATE, [0.3], loss, "finite_difference"),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_input_wider_than_template(self, call):
        loss = LossSpec((make_basis_state(3, "000"),), (1.0,))
        with pytest.raises(QubitMismatch, match="sample 0: encoding produced 3 qubits, template has 1"):
            self.CALLS[call](loss)

    @pytest.mark.parametrize("call", CALLS)
    def test_float_readout_qubit(self, call):
        loss = LossSpec((make_basis_state(1, "0"),), (1.0,), qubit=0.5)
        with pytest.raises(TargetOutOfRange, match="qubit index must be an integer, got 0.5"):
            self.CALLS[call](loss)

    def test_stores_inputs_and_labels_as_tuples(self):
        state = make_basis_state(1, "0")
        loss = LossSpec([state], [1])
        assert loss.inputs == (state,) and loss.labels == (1.0,)
        assert type(loss.labels[0]) is float

    def test_label_count_mismatch(self):
        with pytest.raises(ParamCountMismatch, match="one label per input state required"):
            LossSpec((make_basis_state(1, "0"),), (1.0, -1.0))

    @pytest.mark.parametrize("call", CALLS)
    def test_inputs_of_different_widths(self, call):
        loss = LossSpec((make_basis_state(1, "0"), make_basis_state(2, "00")), (1.0, -1.0))
        with pytest.raises(QubitMismatch, match="sample 1: encoding produced 2 qubits, template has 1"):
            self.CALLS[call](loss)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.1
        assert config.max_iterations == 2000
        assert config.convergence_tol == 1e-6
        assert config.shots == 0

    def test_from_json(self):
        config = TrainConfig.from_json(
            '{"learning_rate": 0.2, "max_iterations": 10, '
            '"gradient_method": "finite_difference", "fd_step": 1e-4, "seed": 9}'
        )
        assert config.learning_rate == 0.2
        assert config.fd_step == 1e-4

    def test_fd_step_defaults_for_finite_difference(self):
        assert TrainConfig(gradient_method="finite_difference").fd_step == 1e-5

    def test_fd_step_rejected_for_parameter_shift(self):
        with pytest.raises(ConfigError):
            TrainConfig(gradient_method="parameter_shift", fd_step=1e-4)

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json('{"momentum": 0.9}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json("{not json")

    def test_negative_max_iterations(self):
        with pytest.raises(ConfigError, match="max_iterations must be non-negative"):
            TrainConfig(max_iterations=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ConfigError):
            TrainConfig(seed=seed)

    def test_seed_bounds_accepted(self):
        assert TrainConfig(seed=0).seed == 0
        assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field", ["seed", "shots", "max_iterations"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"convergence_tol": math.nan},
            {"gradient_method": "finite_difference", "fd_step": math.nan},
            {"gradient_method": "finite_difference", "fd_step": math.inf},
        ],
    )
    def test_non_finite_floats_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides)

    def test_non_finite_learning_rate_from_json(self):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            TrainConfig.from_json('{"learning_rate": NaN}')

    def test_fractional_iterations_from_json(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json('{"max_iterations": 1.5}')

    def test_numpy_integers_accepted(self):
        config = TrainConfig(seed=np.uint64(7), shots=np.int64(5), max_iterations=np.int32(2))
        assert (config.seed, config.shots, config.max_iterations) == (7, 5, 2)

    def test_shot_ceiling(self):
        assert TrainConfig(shots=0).shots == 0
        assert TrainConfig(shots=2**25).shots == 2**25
        with pytest.raises(ConfigError, match="shots must be in"):
            TrainConfig(shots=2**25 + 1)
        with pytest.raises(ConfigError, match="shots must be in"):
            TrainConfig.from_json('{"shots": 4000000000}')

    def test_finite_difference_needs_exact_expectations(self):
        with pytest.raises(ConfigError, match="finite_difference"):
            TrainConfig(gradient_method="finite_difference", shots=1)
        assert TrainConfig(gradient_method="finite_difference", shots=0).shots == 0

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
    def test_hadamard_layer_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match="hadamard_layer must be true or false"):
            TrainConfig.from_json(f'{{"hadamard_layer": {value}}}')

    @pytest.mark.parametrize(
        "field,value",
        [
            (field, value)
            for field in ("learning_rate", "convergence_tol", "fd_step")
            for value in ("true", "false", "null", '"0.1"', "[0.1]")
            if (field, value) != ("fd_step", "null")  # a null fd_step takes its default
        ],
    )
    def test_float_fields_must_be_numbers(self, field, value):
        text = f'{{"gradient_method": "finite_difference", "{field}": {value}}}'
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            TrainConfig.from_json(text)

    def test_integer_floats_accepted(self):
        config = TrainConfig.from_json(
            '{"learning_rate": 1, "convergence_tol": 0, "gradient_method": "finite_difference", '
            '"fd_step": 1, "hadamard_layer": true}'
        )
        assert (config.learning_rate, config.convergence_tol, config.fd_step) == (1, 0, 1)
        assert config.hadamard_layer is True

    @pytest.mark.parametrize("value", [1, np.int64(2), np.float32(0.5), np.float64(0.25), 2**70])
    def test_float_fields_are_stored_as_floats(self, value):
        config = TrainConfig(
            learning_rate=value, convergence_tol=value, gradient_method="finite_difference",
            fd_step=value,
        )
        for field in ("learning_rate", "convergence_tol", "fd_step"):
            assert type(getattr(config, field)) is float and getattr(config, field) == float(value)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Declared type of each TrainConfig field, as a predicate.
_FIELD_TYPES = {
    "learning_rate": _is_real,
    "max_iterations": lambda v: type(v) is int,
    "gradient_method": lambda v: type(v) is str,
    "fd_step": lambda v: v is None or _is_real(v),
    "shots": lambda v: type(v) is int,
    "seed": lambda v: type(v) is int,
    "convergence_tol": _is_real,
    "hadamard_layer": lambda v: type(v) is bool,
}

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([1e300, -1e300, 1e-300, 5e-324, -5e-324, 2**25 + 1, 2**64, 10**400]),
    st.text(max_size=4),
    st.sampled_from(["parameter_shift", "finite_difference", "false", "0.1"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_CONFIG_TEXT = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_FIELD_TYPES) + ["momentum"]), _JSON_VALUES, max_size=8)
    .map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.text(max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(_CONFIG_TEXT)
def test_config_from_json_is_typed_or_a_config_error(text):
    try:
        config = TrainConfig.from_json(text)
    except ConfigError:
        return
    for name, has_type in _FIELD_TYPES.items():
        assert has_type(getattr(config, name)), (name, getattr(config, name))


class TestTrain:
    def single_sample_task(self):
        return [([0.0], -1)]

    def test_single_sample_descent(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(max_iterations=500),
            initial_params=[0.1],
        )
        trace = report.loss_trace
        assert report.loss_trace[-1] < 0.01
        assert report.iterations_run <= 500
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_zero_learning_rate(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(learning_rate=0.0, max_iterations=10, convergence_tol=0.0),
            initial_params=[0.3],
        )
        assert len(set(report.loss_trace)) == 1
        assert report.final_params == (0.3,)

    def test_stops_once_the_loss_stops_moving(self):
        config = TrainConfig(learning_rate=0.0, convergence_tol=1e-9, max_iterations=10)
        report = train(RY_TEMPLATE, self.single_sample_task(), EncodingSpec("angle"), config)
        assert report.iterations_run == 2 and report.converged is True

    def test_two_sample_separable_task(self):
        data = [([0.0], 1), ([math.pi], -1)]
        report = train(
            RY_TEMPLATE,
            data,
            EncodingSpec("angle", "Y"),
            TrainConfig(max_iterations=500),
            initial_params=[0.7],
        )
        assert report.loss_trace[-1] < 0.05

    def test_deterministic_traces(self):
        data = [([0.4], 1), ([2.5], -1)]
        kwargs = dict(
            template=RY_TEMPLATE,
            data=data,
            encoding=EncodingSpec("angle"),
            config=TrainConfig(max_iterations=50, convergence_tol=0.0),
            initial_params=[0.2],
        )
        assert train(**kwargs).loss_trace == train(**kwargs).loss_trace

    def test_finite_difference_training(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(gradient_method="finite_difference", max_iterations=300),
            initial_params=[0.1],
        )
        assert report.loss_trace[-1] < 0.01

    @pytest.mark.parametrize("method", ["parameter_shift", "finite_difference"])
    def test_one_iteration_is_one_gradient_step(self, method):
        # train and gradient share the gradient step, so the bits agree
        template = AnsatzTemplate(
            2,
            (AnsatzOp("RY", (0,), param=0), AnsatzOp("CX", (0, 1)), AnsatzOp("RX", (1,), param=1)),
            2,
        )
        data = [([0.4, 1.1], 1), ([2.5, -0.3], -1)]
        p0 = np.array([0.2, -0.7])
        config = TrainConfig(learning_rate=0.3, max_iterations=1, gradient_method=method)
        report = train(template, data, EncodingSpec("angle"), config, initial_params=p0)
        loss = LossSpec(tuple(execute(encode_angle(x)) for x, _ in data), tuple(y for _, y in data))
        step = p0 - 0.3 * gradient(template, p0, loss, method)
        assert report.final_params == tuple(step.tolist())

    def test_zero_iterations(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(max_iterations=0),
        )
        assert report.loss_trace == ()
        assert report.iterations_run == 0
        assert not report.converged

    def test_sampled_mode_reports_histogram(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(shots=256, max_iterations=5, convergence_tol=0.0, seed=3),
            initial_params=[0.5],
        )
        assert report.final_histogram is not None
        assert report.final_histogram.shots == 256

    def test_hadamard_layer_with_angle_encoding(self):
        report = train(
            RY_TEMPLATE,
            self.single_sample_task(),
            EncodingSpec("angle"),
            TrainConfig(max_iterations=1, convergence_tol=0.0, hadamard_layer=True),
        )
        # H|0> then RY(0) leaves <Z> = 0, so the loss starts at (0 - (-1))^2
        assert report.loss_trace[0] == pytest.approx(1.0)

    def test_amplitude_encoding(self):
        # 5 features pad to 8 amplitudes on 3 qubits; the encoder adds no ops
        rows = [[0.3, -1.2, 0.5, 2.0, 0.1], [1.0, 0.0, -0.4, 0.7, 0.9], [0.2, 0.2, 0.2, 0.2, -3.0]]
        labels = [1, -1, 1]
        template = default_ansatz(3)
        config = TrainConfig(max_iterations=2, convergence_tol=0)
        report = train(template, list(zip(rows, labels)), EncodingSpec("amplitude"), config)
        loss = LossSpec(tuple(encode_amplitude(row) for row in rows), tuple(labels))
        assert report.loss_trace[0] == loss_value(template, np.zeros(6), loss)
        assert len(report.loss_trace) == 2 and report.circuit_depth == 8

    @pytest.mark.parametrize(
        "rows, message",
        [
            # 4 and 3 features both pad to 2 qubits, so only the feature count tells them apart
            ([[0.1, 0.2, 0.3, 0.5], [0.4, 0.5, 0.7]], "sample 1: 3 features, sample 0 has 4"),
            ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.7], [0.3, 0.4, 0.5, 0.6]], "sample 2: 4 features, sample 0 has 3"),
        ],
        ids=["narrower", "wider"],
    )
    def test_amplitude_rows_of_different_widths(self, rows, message):
        data = [(row, 1) for row in rows]
        config = TrainConfig(max_iterations=1)
        with pytest.raises(DatasetError, match=f"^{message}$"):
            train(default_ansatz(2), data, EncodingSpec("amplitude"), config)
        # a bad label in a later row is still found first, and a padded width second
        with pytest.raises(InvalidLabel, match=f"^sample {len(rows)}: label"):
            train(default_ansatz(2), data + [([0.1, 0.2], 0)], EncodingSpec("amplitude"), config)
        with pytest.raises(QubitMismatch, match=f"^sample {len(rows)}: encoding produced 3 qubits"):
            train(default_ansatz(2), data + [([0.1] * 5, 1)], EncodingSpec("amplitude"), config)

    def test_hadamard_layer_rejected_for_amplitude(self):
        with pytest.raises(ConfigError):
            train(
                RY_TEMPLATE,
                [([1.0, 2.0], 1)],
                EncodingSpec("amplitude"),
                TrainConfig(max_iterations=1, hadamard_layer=True),
            )

    def test_basis_encoding(self):
        template = AnsatzTemplate(2, (AnsatzOp("RY", (0,), param=0),), 1)
        report = train(
            template,
            [([0.0, 1.0], 1), ([1.0, 0.0], -1)],
            EncodingSpec("basis"),
            TrainConfig(max_iterations=3, convergence_tol=0.0),
        )
        assert report.iterations_run == 3

    def test_qubit_mismatch(self):
        with pytest.raises(QubitMismatch):
            train(
                RY_TEMPLATE,
                [([0.1, 0.2], 1)],
                EncodingSpec("angle"),
                TrainConfig(max_iterations=1),
            )

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(RY_TEMPLATE, [], EncodingSpec("angle"), TrainConfig())

    def test_bad_label(self):
        with pytest.raises(InvalidLabel):
            train(RY_TEMPLATE, [([0.1], 0)], EncodingSpec("angle"), TrainConfig())

    @pytest.mark.parametrize("label", [True, np.True_])
    def test_bool_label(self, label):
        # True == 1, so a bool label used to train as +1
        with pytest.raises(InvalidLabel, match="label must be -1 or \\+1, got True"):
            train(RY_TEMPLATE, [([0.1], label)], EncodingSpec("angle"), TrainConfig())

    @pytest.mark.parametrize(
        "row, error, message",
        [
            (([0.2],), DatasetError, r"sample 1: expected a \(features, label\) pair, got \(\[0.2\],\)"),
            (0.2, DatasetError, r"sample 1: expected a \(features, label\) pair, got 0.2"),
            (([0.2], np.array([1, 1])), InvalidLabel, r"sample 1: label must be -1 or \+1, got \[1 1\]"),
            (([0.2], "1"), InvalidLabel, r"sample 1: label must be -1 or \+1, got 1"),
        ],
    )
    def test_bad_row_names_its_sample(self, row, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            train(RY_TEMPLATE, [([0.1], 1), row], EncodingSpec("angle"), TrainConfig())

    @pytest.mark.parametrize("method", ["basis", "superposition"])
    @pytest.mark.parametrize("feature", [True, np.True_, False])
    def test_bool_feature(self, method, feature):
        # True == 1.0, so a bool feature used to encode as the bit 1
        with pytest.raises(DatasetError, match="requires 0/1 features") as info:
            train(RY_TEMPLATE, [([feature], 1)], EncodingSpec(method), TrainConfig(max_iterations=1))
        assert isinstance(info.value.__cause__, InvalidBitstring)


class TestAngleRowChecks:
    """Each angle row passes its pair, label and feature checks in row order, and the
    widths are compared with the template only after every row has passed them."""

    @staticmethod
    def train(rows):
        return train(default_ansatz(2), rows, EncodingSpec("angle"), TrainConfig(max_iterations=1))

    @pytest.mark.parametrize(
        "features, cause, message",
        [
            ([0.3, float("nan")], NonFiniteFeature, "feature value must be finite, got nan"),
            ([0.3, float("inf")], NonFiniteFeature, "feature value must be finite, got inf"),
            ([0.3, -math.inf], NonFiniteFeature, "feature value must be finite, got -inf"),
            ([0.3, True], NonFiniteFeature, "feature value must be a real number, got True"),
            ([0.3, np.True_], NonFiniteFeature, "feature value must be a real number, got np.True_"),
            ([0.3, "0.5"], NonFiniteFeature, "feature value must be a real number, got '0.5'"),
            ([], EmptyInput, "feature vector must be a non-empty 1-D sequence"),
            ([[0.3, 0.4]], NonFiniteFeature, "expected a flat sequence of feature values, got [[0.3, 0.4]]"),
        ],
    )
    def test_a_bad_feature_names_its_sample(self, features, cause, message):
        with pytest.raises(DatasetError, match=f"^sample 1: {re.escape(message)}$") as info:
            self.train([([0.1, 0.2], 1), (features, -1), ([0.3, 0.4], 1)])
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_ragged_row_names_its_width(self, width):
        message = f"^sample 1: encoding produced {width} qubits, template has 2$"
        with pytest.raises(QubitMismatch, match=message):
            self.train([([0.1, 0.2], 1), ([0.5] * width, -1), ([0.3], 1)])

    @pytest.mark.parametrize(
        "row, error, message",
        [
            (([0.3, 0.4], 0), InvalidLabel, r"sample 2: label must be -1 or \+1, got 0"),
            (([0.3, float("nan")], 1), DatasetError, "sample 2: feature value must be finite, got nan"),
            (([0.3, 0.4],), DatasetError, r"sample 2: expected a \(features, label\) pair, got \(\[0.3, 0.4\],\)"),
        ],
    )
    def test_row_checks_come_before_the_width_check(self, row, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            self.train([([0.1, 0.2], 1), ([0.5, 0.5, 0.5], -1), row])


class TestTrainReport:
    def test_json_round_trip(self):
        report = TrainReport((0.5, 0.25), (1.5,), 2, True, None, 3)
        payload = json.loads(report.to_json())
        assert payload["loss_trace"] == [0.5, 0.25]
        assert payload["final_params"] == [1.5]
        assert payload["iterations_run"] == 2
        assert payload["converged"] is True
        assert payload["final_histogram"] is None
        assert payload["circuit_depth"] == 3
