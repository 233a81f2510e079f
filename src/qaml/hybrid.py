"""Hybrid quantum-classical training: Hadamard layer, parameterized ansatz,
amplitude adjustment, Z-expectation readout, gradients, and the iterative
optimization loop.

The quantum pass per sample is: optional Hadamard layer, data encoding, the
bound ansatz. The classical pass reads a single-qubit Z expectation, scores
it with mean squared error against the label, and updates the ansatz angles
by gradient descent.

Template ops are `CircuitOp`s whose rotations may name a parameter slot
(`AnsatzOp` is another name for `CircuitOp`). Angle encoding runs through
`circuit.execute`; the ansatz pass advances every sample together through the
same kernel, `gates.apply_gate_tensor`, as the columns of a batch-last
`(2^n, batch)` buffer, swapping two buffers between ops. In shot mode
the readout takes one block of draws for all samples, the same stream as
drawing sample by sample, and `train` runs the unshifted ansatz pass once per
iteration, reading it for the loss and again for the gradient.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates
from .circuit import (
    MAX_SHOTS,
    Circuit,
    CircuitOp,
    Histogram,
    _cdf,
    _check_op,
    _check_seed,
    _rng,
    execute,
    sample_state,
)
from .encoding import EncodingSpec, encode_amplitude, encode_angle
from .errors import (
    ConfigError,
    DatasetError,
    EmptyDataset,
    EncodingError,
    InvalidBitstring,
    InvariantError,
    NonFiniteParam,
    ParamCountMismatch,
    QubitMismatch,
    SimulationError,
    TargetOutOfRange,
)
from .state import StateVector, make_basis_state, probabilities

SHIFT = math.pi / 2.0

GRADIENT_METHODS = ("parameter_shift", "finite_difference")


# Template ops are circuit ops with an optional parameter slot.
AnsatzOp = CircuitOp


@dataclass(frozen=True)
class AnsatzTemplate:
    """A circuit skeleton with m symbolic rotation parameters p0..p(m-1)."""

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    n_params: int

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n_qubits < 1:
            raise InvariantError("n_qubits must be positive")
        if self.n_params < 0:
            raise InvariantError("n_params must be non-negative")
        used = set()
        for op in self.ops:
            _check_op(op, self.n_qubits)
            if op.param is not None:
                if not 0 <= op.param < self.n_params:
                    raise InvariantError(f"parameter slot p{op.param} out of range")
                used.add(op.param)
        if used != set(range(self.n_params)):
            missing = sorted(set(range(self.n_params)) - used)
            raise InvariantError(f"unused parameter slots: {missing}")


def hadamard_layer(n_qubits: int) -> Circuit:
    """One H per qubit; execution yields the uniform superposition."""
    return Circuit(n_qubits, tuple(CircuitOp("H", (q,)) for q in range(n_qubits)))


def _check_params(template: AnsatzTemplate, params) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (template.n_params,):
        raise ParamCountMismatch(
            f"expected {template.n_params} parameters, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise NonFiniteParam(f"parameters must be finite, got {params}")
    return params


def bind(template: AnsatzTemplate, params) -> Circuit:
    """Substitute concrete angles into every parameter slot."""
    params = _check_params(template, params)
    ops = tuple(
        op if op.param is None else replace(op, angle=float(params[op.param]), param=None)
        for op in template.ops
    )
    return Circuit(template.n_qubits, ops)


def diffusion(state: StateVector) -> StateVector:
    """Inversion about the mean: reflect amplitudes through the uniform state."""
    amps = state.amplitudes
    return StateVector(state.n_qubits, 2.0 * amps.mean() - amps)


def _z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    if not 0 <= qubit < n_qubits:
        raise TargetOutOfRange(f"qubit index {qubit} outside [0, {n_qubits})")
    bits = (np.arange(1 << n_qubits) >> (n_qubits - 1 - qubit)) & 1
    return 1.0 - 2.0 * bits


def expectation_z(state: StateVector, qubit: int) -> float:
    """Z expectation of one qubit: P(bit=0) - P(bit=1)."""
    return float(probabilities(state) @ _z_signs(state.n_qubits, qubit))


@dataclass(frozen=True)
class LossSpec:
    """Readout loss over fixed encoded input states.

    With labels: mean squared error of the Z expectation against each label.
    Without labels: the mean Z expectation itself (a raw observable loss).
    """

    inputs: tuple[StateVector, ...]
    labels: tuple[float, ...] | None = None
    qubit: int = 0

    def __post_init__(self):
        inputs = tuple(self.inputs)
        if not inputs:
            raise EmptyDataset("loss needs at least one input state")
        if self.labels is not None:
            labels = tuple(float(y) for y in self.labels)
            if len(labels) != len(inputs):
                raise ParamCountMismatch("one label per input state required")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "inputs", inputs)


# ---------------------------------------------------------------------------
# Batched evaluation: all sample states advance through the ansatz together.


def _batch_tensor(states: tuple[StateVector, ...]) -> np.ndarray:
    """The states as the columns of one C-contiguous `(2**n, batch)` buffer."""
    return np.stack([s.amplitudes for s in states], axis=1)


def _bound_angles(template: AnsatzTemplate, params: np.ndarray) -> list:
    return [
        op.angle if op.param is None else float(params[op.param])
        for op in template.ops
    ]


def _run_ansatz(tensor: np.ndarray, template: AnsatzTemplate, angles: list) -> np.ndarray:
    """The batch after the bound ansatz; `tensor` is left as it is.

    The pass works in two buffers, swapped after every op."""
    src, out = np.array(tensor, order="C"), np.empty(tensor.shape, dtype=np.complex128)
    for op, angle in zip(template.ops, angles):
        gates.apply_gate_tensor(src, out, gates.op_matrix(op.gate_name, angle), op.targets)
        src, out = out, src
    return src


def _batch_probs(tensor: np.ndarray, template: AnsatzTemplate, angles: list) -> np.ndarray:
    """Outcome probabilities after the ansatz, one C-contiguous row per
    sample: the row layout fixes the summation order of `_readout`."""
    amps = _run_ansatz(tensor, template, angles).T
    probs = np.square(amps.real, order="C")
    probs += np.square(amps.imag)
    return probs


def _readout(probs: np.ndarray, signs: np.ndarray, shots: int = 0, rng=None) -> np.ndarray:
    """Z expectation per row: exact when `shots` is 0, else a shot estimate.

    The shot estimate takes one block of `shots` draws per row from `rng`,
    which equals drawing the rows one after another with `_draw_indices`.
    A draw u lands at or past outcome b exactly when u >= cdf[b - 1], so
    counting draws at or past each sign change of `signs` gives the number
    of -1 outcomes without mapping any draw to its outcome."""
    if shots == 0:
        return probs @ signs
    draws = rng.random((probs.shape[0], shots))
    cuts = np.flatnonzero(signs[1:] != signs[:-1])
    # signs start at +1 and alternate at each cut, so the -1 outcomes are
    # those past an odd number of cuts
    past = np.count_nonzero(draws[:, :, None] >= _cdf(probs)[:, None, cuts], axis=1)
    n_minus = past @ (1 - 2 * (np.arange(cuts.size) % 2))
    return (shots - 2.0 * n_minus) / shots


def _loss_and_grad_factors(expectations: np.ndarray, labels) -> tuple[float, np.ndarray]:
    m = expectations.size
    if labels is None:
        return float(expectations.mean()), np.full(m, 1.0 / m)
    residual = expectations - np.asarray(labels, dtype=np.float64)
    return float(np.mean(residual**2)), 2.0 * residual / m


def loss_value(template: AnsatzTemplate, params, loss: LossSpec) -> float:
    params = _check_params(template, params)
    tensor = _batch_tensor(loss.inputs)
    signs = _z_signs(template.n_qubits, loss.qubit)
    exps = _readout(_batch_probs(tensor, template, _bound_angles(template, params)), signs)
    return _loss_and_grad_factors(exps, loss.labels)[0]


def gradient(
    template: AnsatzTemplate,
    params,
    loss: LossSpec,
    method: str = "parameter_shift",
    fd_step: float = 1e-5,
) -> np.ndarray:
    """Gradient of the loss with respect to the ansatz parameters.

    parameter_shift evaluates each rotation occurrence at +/- pi/2 (exact for
    RX/RY/RZ generators, summed over occurrences of a shared parameter);
    finite_difference takes central differences of the full loss.
    """
    params = _check_params(template, params)
    if method not in GRADIENT_METHODS:
        raise ConfigError(f"unknown gradient method {method!r}")
    if method == "finite_difference":
        grad = np.empty(template.n_params)
        for j in range(template.n_params):
            hi, lo = params.copy(), params.copy()
            hi[j] += fd_step
            lo[j] -= fd_step
            grad[j] = (loss_value(template, hi, loss) - loss_value(template, lo, loss)) / (
                2.0 * fd_step
            )
        return grad

    tensor = _batch_tensor(loss.inputs)
    signs = _z_signs(template.n_qubits, loss.qubit)

    def evaluate(angles):
        return _readout(_batch_probs(tensor, template, angles), signs)

    angles = _bound_angles(template, params)
    _, factors = _loss_and_grad_factors(evaluate(angles), loss.labels)
    return _shift_gradient(template, angles, factors, evaluate)


def _shift_gradient(template: AnsatzTemplate, angles: list, factors, evaluate) -> np.ndarray:
    """Parameter-shift gradient at the bound `angles`, given the loss factors
    of the unshifted pass and `evaluate(angles)`, which returns one
    expectation per sample: a +pi/2 and a -pi/2 pass per parameterized op,
    in template order."""
    d_exps = np.zeros((template.n_params, factors.size))
    for op_idx, op in enumerate(template.ops):
        if op.param is None:
            continue
        for delta, sign in ((SHIFT, 0.5), (-SHIFT, -0.5)):
            shifted = list(angles)
            shifted[op_idx] += delta
            d_exps[op.param] += sign * evaluate(shifted)
    return d_exps @ factors


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    max_iterations: int = 2000
    gradient_method: str = "parameter_shift"
    fd_step: float | None = None
    shots: int = 0
    seed: int = 0
    convergence_tol: float = 1e-6
    hadamard_layer: bool = False

    def __post_init__(self):
        for name in ("max_iterations", "shots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        # the range checks are negated so that NaN fails them, and bounded by
        # the largest float so that an integer too large for a float fails them
        if not 0 <= self.learning_rate <= sys.float_info.max:
            raise ConfigError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ConfigError(f"unknown gradient method {self.gradient_method!r}")
        if self.gradient_method == "finite_difference":
            if self.fd_step is None:
                object.__setattr__(self, "fd_step", 1e-5)
            elif not 0 < self.fd_step <= sys.float_info.max:
                raise ConfigError(f"fd_step must be finite and positive, got {self.fd_step}")
        elif self.fd_step is not None:
            raise ConfigError("fd_step only applies to finite_difference")
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be in [0, {MAX_SHOTS}], got {self.shots}")
        if self.shots > 0 and self.gradient_method == "finite_difference":
            raise ConfigError("finite_difference needs exact expectations (shots 0)")
        if not self.convergence_tol >= 0:
            raise ConfigError(f"convergence_tol must be non-negative, got {self.convergence_tol}")

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config JSON must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class TrainReport:
    loss_trace: tuple[float, ...]
    final_params: tuple[float, ...]
    iterations_run: int
    converged: bool
    final_histogram: Histogram | None = None
    circuit_depth: int = 0

    def to_json(self) -> str:
        payload = {
            "loss_trace": list(self.loss_trace),
            "final_params": list(self.final_params),
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "final_histogram": None
            if self.final_histogram is None
            else {"shots": self.final_histogram.shots, "counts": self.final_histogram.counts},
            "circuit_depth": self.circuit_depth,
        }
        return json.dumps(payload, sort_keys=True)


def _encode_sample(
    features, encoding: EncodingSpec, use_hadamard: bool
) -> tuple[StateVector, int]:
    """Encoded input state for one sample and the op count it took."""
    if encoding.method == "angle":
        circ = encode_angle(features, encoding.axis)
        ops = circ.ops
        if use_hadamard:
            ops = hadamard_layer(circ.n_qubits).ops + ops
        return execute(Circuit(circ.n_qubits, ops)), len(ops)
    if use_hadamard:
        raise ConfigError(
            f"hadamard_layer is incompatible with state-preparing encoding {encoding.method!r}"
        )
    if encoding.method == "amplitude":
        return encode_amplitude(features), 0
    # basis and superposition both read a single 0/1 feature row as one label
    bits = []
    for v in features:
        if v not in (0.0, 1.0):
            raise InvalidBitstring(f"{encoding.method} encoding requires 0/1 features, got {v}")
        bits.append("1" if v else "0")
    return make_basis_state(len(bits), "".join(bits)), 0


def train(
    template: AnsatzTemplate,
    data,
    encoding: EncodingSpec,
    config: TrainConfig,
    initial_params=None,
) -> TrainReport:
    """Gradient-descent training of the ansatz angles against +/-1 labels.

    Exact-expectation mode (shots=0) is fully deterministic; sampled mode
    draws shot noise from the seeded generator. A sample that cannot be
    encoded raises `DatasetError`.
    """
    data = list(data)
    if not data:
        raise EmptyDataset("training data must be non-empty")
    labels = []
    states = []
    encode_depth = 0
    for index, (features, label) in enumerate(data):
        if label not in (-1, 1):
            raise EmptyDataset(f"label must be -1 or +1, got {label}")
        labels.append(float(label))
        try:
            state, depth = _encode_sample(features, encoding, config.hadamard_layer)
        except (EncodingError, SimulationError) as exc:
            raise DatasetError(f"sample {index}: {exc}") from exc
        if state.n_qubits != template.n_qubits:
            raise QubitMismatch(
                f"sample {index}: encoding produced {state.n_qubits} qubits, "
                f"template has {template.n_qubits}"
            )
        states.append(state)
        encode_depth = depth

    tensor = _batch_tensor(tuple(states))
    signs = _z_signs(template.n_qubits, 0)
    labels_arr = np.asarray(labels)
    loss = LossSpec(tuple(states), tuple(labels), qubit=0)

    if initial_params is None:
        params = np.zeros(template.n_params)
    else:
        params = _check_params(template, initial_params)

    rng = _rng(config.seed) if config.shots > 0 else None

    def evaluate(angles):
        return _readout(_batch_probs(tensor, template, angles), signs, config.shots, rng)

    trace: list[float] = []
    converged = False
    prev = None
    for _ in range(config.max_iterations):
        angles = _bound_angles(template, params)
        probs = _batch_probs(tensor, template, angles)
        value, factors = _loss_and_grad_factors(
            _readout(probs, signs, config.shots, rng), labels_arr
        )
        trace.append(value)
        if prev is not None and abs(value - prev) < config.convergence_tol:
            converged = True
            break
        prev = value
        if config.shots > 0:
            # the gradient's loss factors take fresh draws from the same state
            _, factors = _loss_and_grad_factors(
                _readout(probs, signs, config.shots, rng), labels_arr
            )
        if config.gradient_method == "finite_difference":
            grad = gradient(template, params, loss, "finite_difference", config.fd_step)
        else:
            grad = _shift_gradient(template, angles, factors, evaluate)
        params = params - config.learning_rate * grad

    final_histogram = None
    if config.shots > 0:
        amps = _run_ansatz(tensor[:, :1], template, _bound_angles(template, params)).reshape(-1)
        final_state = StateVector(template.n_qubits, amps / np.linalg.norm(amps))
        final_histogram = sample_state(final_state, config.shots, config.seed)

    return TrainReport(
        loss_trace=tuple(trace),
        final_params=tuple(float(p) for p in params),
        iterations_run=len(trace),
        converged=converged,
        final_histogram=final_histogram,
        circuit_depth=encode_depth + len(template.ops),
    )

