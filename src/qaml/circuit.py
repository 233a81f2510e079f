"""Circuit intermediate representation, execution, and basis measurement.

Execution starts from |0...0> and applies the gate kernel in program order,
swapping two state buffers between ops; targets are checked when the
`Circuit` is built, together with the register ceiling, and the state is
validated once, on return. Every seed and shot count passes one check
(`_check_seed`, `_check_shots`, which bounds shots by `MAX_SHOTS`), shared
with `TrainConfig` and the CLI.
Measurement uses the Philox counter-based generator (platform-independent)
with inverse-CDF sampling over the cumulative probability sequence, so
identical (inputs, seed) always reproduce identical outcomes. Every sampler
builds that sequence with `_cdf`; `sample_state` counts its sorted draws per
outcome instead of mapping each draw to an outcome, which gives the same
histogram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .errors import ConfigError, InvariantError, NonFiniteAngle, QamlError, UnknownGate
from .state import StateVector, _check_register, bitstrings, make_basis_state, probabilities

# The shot ceiling: a float64 block of 2**25 draws is 256 MiB, the size of the
# largest (24-qubit) state.
MAX_SHOTS = 2**25


@dataclass(frozen=True)
class CircuitOp:
    """One gate application: mnemonic, qubit indices, and for a rotation
    either a literal angle or, in an ansatz template, parameter slot `param`."""

    gate_name: str
    targets: tuple[int, ...]
    angle: float | None = None
    param: int | None = None

    def __post_init__(self):
        name = self.gate_name.upper()
        object.__setattr__(self, "gate_name", name)
        object.__setattr__(self, "targets", tuple(gates._qubit_index(t) for t in self.targets))
        if name in gates.ROTATION_GATES:
            if (self.angle is None) == (self.param is None):
                raise NonFiniteAngle(f"{name} op needs exactly one of angle or param slot")
        elif self.angle is not None or self.param is not None:
            raise NonFiniteAngle(f"{name} op takes neither angle nor param slot")

    def to_gate(self) -> gates.GateMatrix:
        return gates.gate_from_name(self.gate_name, self.angle)


def _check_op(op: CircuitOp, n_qubits: int) -> None:
    """The op names a known gate and its targets fit an n-qubit register."""
    arity = gates.GATE_ARITY.get(op.gate_name)
    if arity is None:
        raise UnknownGate(f"unknown gate {op.gate_name!r}")
    gates._check_targets(op.targets, arity, n_qubits)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate program on a fixed-size register."""

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    measure_all: bool = False

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InvariantError(f"n_qubits must be positive, got {self.n_qubits}")
        _check_register(self.n_qubits)
        ops = tuple(self.ops)
        for op in ops:
            _check_op(op, self.n_qubits)
            if op.param is not None:
                raise NonFiniteAngle(f"{op.gate_name} op has unbound parameter slot p{op.param}")
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class Histogram:
    """Shot counts keyed by measured bitstring."""

    shots: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_shots(self.shots)
        if sum(self.counts.values()) != self.shots:
            raise InvariantError("histogram counts must sum to shots")

    def to_json(self) -> str:
        return json.dumps({"shots": self.shots, "counts": self.counts}, sort_keys=True)


def execute(circuit: Circuit) -> StateVector:
    """Run the circuit from |0...0> and return the final state."""
    n = circuit.n_qubits
    src = np.zeros((1 << n, 1), dtype=np.complex128)
    src[0] = 1.0
    out = np.empty_like(src)
    for index, op in enumerate(circuit.ops):
        try:
            matrix = gates.op_matrix(op.gate_name, op.angle)
        except QamlError as exc:
            exc.op_index = index
            exc.args = (f"op {index} ({op.gate_name}): {exc}",)
            raise
        gates.apply_gate_tensor(src, out, matrix, op.targets)
        src, out = out, src
    del out  # free the scratch buffer before the state is validated
    return StateVector(n, src.reshape(-1))


def _check_seed(seed, name: str = "seed") -> int:
    """A Philox key: a Python or numpy integer (not a bool) in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


def _check_shots(shots, name: str = "shots") -> int:
    """A shot count: a Python or numpy integer (not a bool) in [1, MAX_SHOTS]."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {shots!r}")
    if shots < 1:
        raise ConfigError(f"{name} must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ConfigError(f"{name} must be <= {MAX_SHOTS}, got {shots}")
    return int(shots)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities along the last axis, divided by their total.

    Dividing by the total (not setting the last entry to 1) keeps every
    zero-probability outcome's CDF step empty, so it is never drawn, even
    when a row sums to slightly less than 1."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw_indices(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw of `count` outcome indices from one probability row."""
    return np.searchsorted(_cdf(probs), rng.random(count), side="right")


def measure_once(state: StateVector, seed: int) -> tuple[str, StateVector]:
    """Sample one basis outcome and collapse; deterministic per (state, seed)."""
    index = int(_draw_indices(probabilities(state), 1, _rng(seed))[0])
    bits = state.bitstring(index)
    return bits, make_basis_state(state.n_qubits, bits)


def sample_state(state: StateVector, shots: int, seed: int) -> Histogram:
    """Draw `shots` independent Born-rule samples from a fixed state.

    The draws are those of `_draw_indices`; they are counted per outcome by
    sorting them and locating each CDF entry among them, which gives the
    same histogram without mapping every draw to its outcome."""
    shots = _check_shots(shots)
    draws = _rng(seed).random(shots)
    draws.sort()
    # draws below cdf[k] are exactly those whose outcome is <= k
    counts = np.diff(np.searchsorted(draws, _cdf(probabilities(state)), side="left"), prepend=0)
    del draws  # free the draw buffer before the labels are built
    seen = np.flatnonzero(counts)
    return Histogram(shots, dict(zip(bitstrings(state.n_qubits, seen), counts[seen].tolist())))


def sample(circuit: Circuit, shots: int, seed: int) -> Histogram:
    """Execute once, then draw `shots` independent Born-rule samples.

    The final state is reused across shots; it is never re-collapsed. Shots
    and seed are checked before the circuit runs."""
    _check_shots(shots)
    _check_seed(seed)
    return sample_state(execute(circuit), shots, seed)
