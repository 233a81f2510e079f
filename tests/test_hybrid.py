import json
import math

import numpy as np
import pytest

from conftest import random_state
from qaml import (
    AnsatzOp,
    AnsatzTemplate,
    CircuitOp,
    EncodingSpec,
    LossSpec,
    StateVector,
    TrainConfig,
    TrainReport,
    bind,
    diffusion,
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
from qaml.errors import (
    ConfigError,
    EmptyDataset,
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
        with pytest.raises(EmptyDataset):
            train(RY_TEMPLATE, [([0.1], 0)], EncodingSpec("angle"), TrainConfig())


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
