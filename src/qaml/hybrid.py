"""Hybrid quantum-classical training: Hadamard layer, parameterized ansatz,
amplitude adjustment, Z-expectation readout, gradients, and the iterative
optimization loop.

The quantum pass per sample is: optional Hadamard layer, data encoding, the
bound ansatz. The classical pass reads a single-qubit Z expectation, scores
it with mean squared error against the label, and updates the ansatz angles
by gradient descent.

Template ops are `CircuitOp`s whose rotations may name a parameter slot
(`AnsatzOp` is another name for `CircuitOp`), checked by `circuit._check_ops` as
a `Circuit`'s are. `train` encodes angle rows as one batch (`_encode_angles`).
`_Objective` runs the encoded samples, the columns of one `(2^n, batch)` buffer,
through the op loop, `circuit._run`; its docstring and `shift_gradient`'s say how
the passes use its buffers. `loss_value`, `gradient` and `train` take the loss
from it, and every readout takes |a|^2 from `state.probabilities`, by row.

The batch is float64 when every template op is real (`gates.REAL_GATES`: H, X,
Z, RY and CX, as in `cli.default_ansatz`, Qiskit's `RealAmplitudes`) and every
encoded amplitude is real (Y-axis angle rows, with or without the Hadamard
layer, and amplitude rows). Its passes then move half the bytes of complex128
and do a quarter of the flops, and each float64 result equals the complex
result's real part up to the sign of zeros, which |a|^2 drops, so no loss,
gradient or report changes. A single column on one qubit stays complex128: its
staged product is a matrix-vector product, which dgemv rounds with fused
multiply-adds and zgemv does not. So does `train`'s final-histogram pass.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    MAX_SHOTS,
    Circuit,
    CircuitOp,
    Histogram,
    _check_ops,
    _check_seed,
    _readout,
    _rng,
    _run,
    sample_state,
)
from .encoding import EncodingSpec, _check_features, encode_amplitude
from .errors import (
    ConfigError,
    DatasetError,
    EmptyDataset,
    EncodingError,
    InvalidBitstring,
    InvalidLabel,
    InvariantError,
    NonFiniteParam,
    ParamCountMismatch,
    QubitMismatch,
    SimulationError,
)
from .gates import REAL_GATES, _check_target, _relabel, op_matrix
from .state import StateVector, _check_register, _integer, _real, _reals
from .state import make_basis_state, probabilities

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
        object.__setattr__(self, "n_qubits", _check_register(self.n_qubits))
        object.__setattr__(self, "n_params", _integer(self.n_params, "n_params", InvariantError))
        if self.n_params < 0:
            raise InvariantError("n_params must be non-negative")
        used = {op.param for op in _check_ops(self)} - {None}
        slots = set(range(self.n_params))
        if used - slots:
            raise InvariantError(f"parameter slots out of range: {sorted(used - slots)}")
        if slots - used:
            raise InvariantError(f"unused parameter slots: {sorted(slots - used)}")


def hadamard_layer(n_qubits: int) -> Circuit:
    """One H per qubit; execution yields the uniform superposition."""
    return Circuit(n_qubits, tuple(CircuitOp("H", (q,)) for q in range(n_qubits)))


def _check_params(template: AnsatzTemplate, params) -> np.ndarray:
    params = _reals(params, "parameter", NonFiniteParam)
    if params.size != template.n_params:
        raise ParamCountMismatch(f"expected {template.n_params} parameters, got {params.size}")
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
    qubit = _check_target(qubit, (), n_qubits)
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
        inputs = tuple(self.inputs) if np.iterable(self.inputs) else (self.inputs,)
        if not inputs:
            raise EmptyDataset("loss needs at least one input state")
        if misfits := [state for state in inputs if not isinstance(state, StateVector)]:
            raise InvariantError(f"a loss input must be a StateVector, got {misfits[0]!r}")
        if self.labels is not None:
            labels = tuple(_reals(self.labels, "label", InvalidLabel).tolist())
            if len(labels) != len(inputs):
                raise ParamCountMismatch("one label per input state required")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "inputs", inputs)


# ---------------------------------------------------------------------------
# The objective: all sample states advance through the ansatz together.


def _bound_angles(template: AnsatzTemplate, params: np.ndarray) -> list:
    return [op.angle if op.param is None else float(params[op.param]) for op in template.ops]


def _run_ansatz(tensor: np.ndarray, template: AnsatzTemplate, angles: list) -> np.ndarray:
    """The batch after the bound ansatz, in complex128; `tensor` is left as it is."""
    return _run(np.array(tensor, dtype=np.complex128, order="C"), template.ops, angles)


def _check_widths(widths: list, n_qubits: int) -> None:
    """At least one sample, and each encoded on the template's `n_qubits`."""
    if not widths:
        raise EmptyDataset("loss needs at least one input state")
    for index, width in enumerate(widths):
        if width != n_qubits:
            raise QubitMismatch(f"sample {index}: encoding produced {width} qubits, template has {n_qubits}")


class _Objective:
    """The loss of the Z readout of `qubit` after `template` on one batch, the columns of the
    C-contiguous `(2**n, batch)` `tensor`, kept next to the Z signs and the labels. Every
    ansatz pass copies its input into one of three owned buffers of that shape and runs there,
    with one plan table for all three (see `circuit._run`), so after the first iteration no
    pass allocates such a buffer or binds a step. Its settings come from one `TrainConfig`;
    with `shots` > 0 readouts draw from `_rng(seed)`, keyed here."""

    def __init__(self, template: AnsatzTemplate, tensor: np.ndarray, labels=None, config=None, qubit=0):
        self.template = template
        # the float64 rule of the module docstring
        real = tensor.size > 2 and REAL_GATES.issuperset(op.gate_name for op in template.ops)
        self.tensor = tensor.real.copy() if real and not tensor.imag.any() else tensor
        self._buffers, self._plans = [np.empty_like(self.tensor, order="C") for _ in range(3)], {}
        self.signs = _z_signs(template.n_qubits, qubit)
        self.labels = None if labels is None else np.asarray(labels)
        self.config = config = TrainConfig() if config is None else config
        self.rng = _rng(config.seed) if config.shots > 0 else None

    @classmethod
    def of_loss(cls, template: AnsatzTemplate, loss: LossSpec, config=None) -> "_Objective":
        """The objective of `loss`, its input states stacked as the columns of the batch."""
        _check_widths([state.n_qubits for state in loss.inputs], template.n_qubits)
        tensor = np.stack([state.amplitudes for state in loss.inputs], axis=1)
        return cls(template, tensor, loss.labels, config, loss.qubit)

    def probs(self, angles: list) -> np.ndarray:
        """Outcome probabilities after the ansatz, one row per sample."""
        src, scratch = self._buffers[:2]
        np.copyto(src, self.tensor)
        # one C-contiguous row per sample: the row layout fixes `_readout`'s summation order
        return probabilities(_run(src, self.template.ops, angles, scratch, self._plans).T)

    def loss(self, probs: np.ndarray) -> tuple[float, np.ndarray]:
        """The loss read out from `probs`, and its derivative with respect to
        each sample's expectation."""
        exps = _readout(probs, self.signs, self.config.shots, self.rng)
        m = exps.size
        if self.labels is None:
            return float(exps.mean()), np.full(m, 1.0 / m)
        residual = exps - self.labels
        return float(np.mean(residual**2)), 2.0 * residual / m

    def shift_gradient(self, angles: list, factors: np.ndarray) -> np.ndarray:
        """Parameter-shift gradient at the bound `angles`, given the loss
        `factors` of the unshifted pass: a +pi/2 and a -pi/2 readout per
        parameterized op k, in template order (+ then -), the order seeded shot
        runs draw in. A running `prefix` is advanced to op k (swapping names with
        `work` when it ends there), and each shifted pass reruns only ops k.. on a
        copy of it in `work`, with `scratch`: kernel bits depend only on buffer
        shape, targets and axis order, so the gradient is that of full passes."""
        ops, plans, done = self.template.ops, self._plans, 0
        prefix, work, scratch = self._buffers
        d_exps = np.zeros((self.template.n_params, factors.size))
        np.copyto(prefix, self.tensor)
        for k, op in enumerate(ops):
            if op.param is None:
                continue
            if _run(prefix, ops[done:k], angles[done:k], work, plans) is work:
                prefix, work = work, prefix
            done = k
            for delta, sign in ((SHIFT, 0.5), (-SHIFT, -0.5)):
                shifted = [angles[k] + delta, *angles[k + 1 :]]
                np.copyto(work, prefix)
                probs = probabilities(_run(work, ops[k:], shifted, scratch, plans).T)
                d_exps[op.param] += sign * _readout(probs, self.signs, self.config.shots, self.rng)
        return d_exps @ factors

    def fd_gradient(self, params: np.ndarray) -> np.ndarray:
        """Central differences of the loss, one parameter at a time, `fd_step` apart."""
        grad, step = np.empty(self.template.n_params), self.config.fd_step
        for j in range(self.template.n_params):
            hi, lo = params.copy(), params.copy()
            with np.errstate(over="ignore"):  # an infinite angle fails in the op loop
                hi[j] += step
                lo[j] -= step
            grad[j] = (self._value(hi) - self._value(lo)) / (2.0 * step)
        return grad

    def gradient(self, params: np.ndarray, probs=None) -> np.ndarray:
        """The gradient by the config's method, the one place that picks it. Parameter
        shift reads its loss factors from `probs`, the unshifted pass, run here if not given."""
        if self.config.gradient_method == "finite_difference":
            return self.fd_gradient(params)
        angles = _bound_angles(self.template, params)
        if probs is None:
            probs = self.probs(angles)
        return self.shift_gradient(angles, self.loss(probs)[1])

    def _value(self, params: np.ndarray) -> float:
        return self.loss(self.probs(_bound_angles(self.template, params)))[0]


def loss_value(template: AnsatzTemplate, params, loss: LossSpec) -> float:
    params = _check_params(template, params)
    return _Objective.of_loss(template, loss)._value(params)


def gradient(
    template: AnsatzTemplate,
    params,
    loss: LossSpec,
    method: str = "parameter_shift",
    fd_step: float | None = None,
) -> np.ndarray:
    """Gradient of the loss with respect to the ansatz parameters.

    parameter_shift evaluates each rotation occurrence at +/- pi/2 (exact for
    RX/RY/RZ generators, summed over occurrences of a shared parameter);
    finite_difference takes central differences of the full loss. The method
    and `fd_step` are checked as `TrainConfig` fields.
    """
    params = _check_params(template, params)
    config = TrainConfig(gradient_method=method, fd_step=fd_step)
    return _Objective.of_loss(template, loss, config).gradient(params)


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
        for name in ("max_iterations", "shots", "learning_rate", "convergence_tol", "fd_step"):
            value = getattr(self, name)
            if value is not None or name != "fd_step":  # a null fd_step takes its default
                check = _integer if name in ("max_iterations", "shots") else _real
                object.__setattr__(self, name, check(value, name, ConfigError))
        if not isinstance(self.hadamard_layer, bool):
            raise ConfigError(f"hadamard_layer must be true or false, got {self.hadamard_layer!r}")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        # the range checks are negated so that NaN fails them, and bounded so that inf does
        if not 0 <= self.learning_rate <= sys.float_info.max:
            raise ConfigError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if not isinstance(self.gradient_method, str) or self.gradient_method not in GRADIENT_METHODS:
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
        except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
            raise ConfigError(f"invalid config JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config JSON must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class TrainReport:
    loss_trace: tuple[float, ...]
    final_params: tuple[float, ...]
    iterations_run: int
    converged: bool
    final_histogram: Histogram | None = None
    circuit_depth: int = 0

    def to_json(self) -> str:
        # `asdict` cannot deep-copy a histogram's read-only counts
        return json.dumps(vars(self), sort_keys=True, default=Histogram._payload)


def _encode_sample(features, encoding: EncodingSpec) -> StateVector:
    """Encoded input state for one sample of a state-preparing encoding."""
    if encoding.method == "amplitude":
        return encode_amplitude(features)
    # basis and superposition both read a single 0/1 feature row as one label
    bits = []
    for v in features:
        if isinstance(v, (bool, np.bool_)) or v not in (0.0, 1.0):
            raise InvalidBitstring(f"{encoding.method} encoding requires 0/1 features, got {v}")
        bits.append("1" if v else "0")
    return make_basis_state(len(bits), "".join(bits))


def _encode_angles(rows: list, axis: str, hadamard: bool) -> np.ndarray:
    """The `(2**n, m)` batch of `m` checked rows of `n` angles, each column with the bits of
    `execute(encode_angle(row))` after the optional Hadamard layer (one `_run`, the same for
    every row): per qubit, one stacked product of the rows' `op_matrix`es and the batch
    staged target-first, which is per row the op loop's product, remainder columns and all."""
    n, m = len(rows[0]), len(rows)
    start = np.eye(1 << n, 1, dtype=np.complex128)
    batch = np.repeat(_run(start, hadamard_layer(n).ops, [None] * n) if hadamard else start, m, axis=1)
    staged, order = np.empty_like(batch), tuple(range(n + 1))  # axis n is the batch, as in `_run`
    for q, angles in enumerate(zip(*rows)):
        front = (n, q, *(other for other in range(n) if other != q))  # rows, qubit q, the rest
        np.copyto(*_relabel(batch, staged, order, front))
        matrices, order = [op_matrix(f"R{axis}", angle) for angle in angles], front
        np.matmul(matrices, staged.reshape(m, 2, -1), out=batch.reshape(m, 2, -1))
    np.copyto(*_relabel(batch, staged, order, sorted(order)))
    return staged


def train(
    template: AnsatzTemplate,
    data,
    encoding: EncodingSpec,
    config: TrainConfig,
    initial_params=None,
) -> TrainReport:
    """Gradient-descent training of the ansatz angles against +/-1 labels.

    Exact-expectation mode (shots=0) is fully deterministic; sampled mode
    draws shot noise from the seeded generator. Empty data, a bad label, a sample
    that cannot be encoded or rows of different widths raise a `DatasetError`.
    """
    if config.hadamard_layer and encoding.method != "angle":
        raise ConfigError(
            f"hadamard_layer is incompatible with state-preparing encoding {encoding.method!r}"
        )
    angle, labels, encoded, widths = encoding.method == "angle", [], [], []
    for index, row in enumerate(data):
        if not np.iterable(row) or len(pair := tuple(row)) != 2:
            raise DatasetError(f"sample {index}: expected a (features, label) pair, got {row!r}")
        features, label = pair
        if isinstance(label, bool) or not isinstance(label, numbers.Real) or label not in (-1, 1):
            raise InvalidLabel(f"sample {index}: label must be -1 or +1, got {label}")
        labels.append(float(label))
        try:
            encoded.append(_check_features(features).tolist() if angle else _encode_sample(features, encoding))
        except (EncodingError, SimulationError) as exc:
            raise DatasetError(f"sample {index}: {exc}") from exc
        if encoding.method == "amplitude":  # rows of different widths can pad to one register
            widths.append(len(features))

    if angle:
        _check_widths([len(row) for row in encoded], template.n_qubits)
        # no name keeps the complex batch once a float64 objective has its copy
        objective = _Objective(template, _encode_angles(encoded, encoding.axis, config.hadamard_layer),
                               labels, config)
    else:
        objective = _Objective.of_loss(template, LossSpec(tuple(encoded), tuple(labels)), config)
    if ragged := next((i for i, width in enumerate(widths) if width != widths[0]), 0):
        raise DatasetError(f"sample {ragged}: {widths[ragged]} features, sample 0 has {widths[0]}")
    # angle encoding adds one rotation per qubit, after as many H with the Hadamard layer
    encode_depth = template.n_qubits * (1 + config.hadamard_layer) if angle else 0

    params = np.zeros(template.n_params) if initial_params is None else initial_params
    params = _check_params(template, params)

    trace: list[float] = []
    converged = False
    for _ in range(config.max_iterations):
        probs = objective.probs(_bound_angles(template, params))
        value = objective.loss(probs)[0]
        converged = bool(trace) and abs(value - trace[-1]) < config.convergence_tol
        trace.append(value)
        if converged:
            break
        grad = objective.gradient(params, probs)
        with np.errstate(over="ignore"):  # an infinite angle fails in the op loop
            params = params - config.learning_rate * grad

    final_histogram = None
    if config.shots > 0:
        angles = _bound_angles(template, params)
        amps = _run_ansatz(objective.tensor[:, :1], template, angles).reshape(-1)
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

