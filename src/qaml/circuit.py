"""Circuit intermediate representation, execution, and basis measurement.

`_run` is the one op loop, whose docstring says how it binds and keeps kernel
steps; `execute` runs it on a |0...0> column, `hybrid` on encoded batches.
Ops pass the op and target rules when built and `_check_ops` (type, register
fit) in a `Circuit`, so `_run` checks only finite angles; the state is checked on return.
Every seed and shot count passes one check (`_check_seed`, `_check_shots`),
shared with `TrainConfig` and the CLI. Every Philox draw is made here: the
generator is counter-based and platform-independent, and measurement and
training's shot readout (`_readout`) sample by inverse CDF over `_cdf`, so
identical (inputs, seed) always reproduce identical outcomes.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import gates
from .errors import ConfigError, InvariantError, NonFiniteAngle, QamlError
from .state import StateVector, _check_register, _integer, bitstrings, make_basis_state, probabilities

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
        name, angle = gates._check_gate(self.gate_name, self.angle, self.param)
        object.__setattr__(self, "gate_name", name)
        object.__setattr__(self, "angle", angle)
        targets = gates._check_targets(self.targets, gates.GATE_ARITY[name])
        object.__setattr__(self, "targets", targets)

    def to_gate(self) -> gates.GateMatrix:
        return gates.gate_from_name(self.gate_name, self.angle)


def _check_ops(owner) -> list[CircuitOp]:
    """Store a `Circuit`'s or `AnsatzTemplate`'s ops (a non-iterable is one op) as a tuple and
    return its distinct op objects: each a `CircuitOp` whose targets fit the register."""
    object.__setattr__(owner, "ops", tuple(owner.ops) if np.iterable(owner.ops) else (owner.ops,))
    distinct = list({id(op): op for op in owner.ops}.values())
    if misfits := [op for op in distinct if not isinstance(op, CircuitOp)]:
        raise InvariantError(f"a circuit op must be a CircuitOp, got {misfits[0]!r}")
    for targets in dict.fromkeys(op.targets for op in distinct):
        for target in targets:
            gates._check_target(target, (), owner.n_qubits)
    return distinct


@dataclass(frozen=True)
class Circuit:
    """An ordered gate program on a fixed-size register."""

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    measure_all: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_register(self.n_qubits))
        if not isinstance(self.measure_all, bool):
            raise InvariantError(f"measure_all must be true or false, got {self.measure_all!r}")
        for op in _check_ops(self):
            if op.param is not None:
                raise NonFiniteAngle(f"{op.gate_name} op has unbound parameter slot p{op.param}")


@dataclass(frozen=True)
class Histogram:
    """Shot counts keyed by measured bitstring, kept as a read-only copy of the dict given."""

    shots: int
    counts: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "shots", _check_shots(self.shots))
        if not isinstance(self.counts, dict) or set(map(type, self.counts)) - {str}:
            raise InvariantError("histogram counts must be a dict keyed by strings")
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        if set(map(type, self.counts.values())) - {int} or min(self.counts.values(), default=0) < 0:
            raise InvariantError("histogram counts must be non-negative integers")
        if sum(self.counts.values()) != self.shots:
            raise InvariantError("histogram counts must sum to shots")

    def _payload(self) -> dict:
        return {"shots": self.shots, "counts": self.counts.copy()}

    def to_json(self) -> str:
        return json.dumps(self._payload(), sort_keys=True)


def _run(src: np.ndarray, ops, angles, scratch=None, plans=None) -> np.ndarray:
    """The one op loop: apply `ops` at `angles` to the batch-last buffer `src` (consumed) and
    `scratch` (fresh if None), following the axis order staged gates leave; the result,
    relabeled to qubit order, is one of the two; a maximal run of CX ops is one step where
    `gates._bind`'s run rule allows. `plans` (fresh if None) holds one bound step per
    (targets, CX by op name, ids of the source and output buffers, axis order, whether a run
    ends `ops`), so one table serves every pair of its owner's buffers, in either order: a
    step holds views of both buffers' memory, so a buffer that owns it (not a view) keeps
    its id while the table lives. One matrix per op object whose angle is its own (by
    identity, so a bound or `-0.0` angle never gets a `0.0` op's matrix) serves the call; on
    a float64 `src` (see `qaml.hybrid`) it is a contiguous copy of its real part."""
    scratch = np.empty_like(src) if scratch is None else scratch
    buffers, current, order = (src, scratch), 0, tuple(range(src.shape[0].bit_length()))
    plans, matrices, real = {} if plans is None else plans, {}, src.dtype == np.float64
    ids = (id(src), id(scratch)), (id(scratch), id(src))  # (source, output) by `current`
    stop, matrix = 0, None  # a CX run's step takes no matrix
    for index, (op, angle) in enumerate(zip(ops, angles)):
        if index < stop:
            continue
        targets, stop, last = op.targets, index + 1, False
        if op.gate_name == "CX" and gates._layout(*src.shape, order, targets, True)[0] == "cx":
            while stop < len(ops) and ops[stop].gate_name == "CX":
                stop += 1
            targets, last = tuple(q for cx in ops[index:stop] for q in cx.targets), stop == len(ops)
        elif angle is not op.angle or (matrix := matrices.get(id(op))) is None:
            try:
                matrix = gates.op_matrix(op.gate_name, angle)
            except QamlError as exc:
                exc.op_index = index
                exc.args = (f"op {index} ({op.gate_name}): {exc}",)
                raise
            matrix = np.ascontiguousarray(matrix.real) if real else matrix
            if angle is op.angle:
                matrices[id(op)] = matrix
        key = (targets, op.gate_name == "CX", ids[current], order, last)
        if (plan := plans.get(key)) is None:
            plan = plans[key] = gates._bind(buffers[current], buffers[1 - current], order, *key[:2], last)
        step, into_out, order = plan
        step(matrix)
        current ^= into_out
    if order != tuple(sorted(order)):
        np.copyto(*gates._relabel(buffers[current], buffers[1 - current], order, sorted(order)))
        current ^= 1
    return buffers[current]


def execute(circuit: Circuit) -> StateVector:
    """Run the circuit from |0...0> and return the final state."""
    n = circuit.n_qubits
    src = np.zeros((1 << n, 1), dtype=np.complex128)
    src[0] = 1.0
    # rebinding `src` frees the scratch buffer before the state is validated
    src = _run(src, circuit.ops, [op.angle for op in circuit.ops])
    return StateVector(n, src.reshape(-1))


def _check_seed(seed, name: str = "seed") -> int:
    """A Philox key: a Python or numpy integer (not a bool) in [0, 2**64)."""
    seed = _integer(seed, name, ConfigError)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


def _check_shots(shots, name: str = "shots") -> int:
    """A shot count: a Python or numpy integer (not a bool) in [1, MAX_SHOTS]."""
    shots = _integer(shots, name, ConfigError)
    if shots < 1:
        raise ConfigError(f"{name} must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ConfigError(f"{name} must be <= {MAX_SHOTS}, got {shots}")
    return shots


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


def _readout(probs: np.ndarray, signs: np.ndarray, shots: int = 0, rng=None) -> np.ndarray:
    """Z expectation per row: exact when `shots` is 0, else a shot estimate.

    The shot estimate takes `shots` draws per row from `rng`, in row blocks of
    at most `MAX_SHOTS` draws that Philox fills row-major, which equals drawing
    the rows one after another with the inverse-CDF reference sampler
    `draw_indices` in `tests/conftest.py`. A draw u lands at or past outcome
    b exactly when u >= cdf[b - 1], so counting draws at or past each sign
    change of `signs` gives the number of -1 outcomes without mapping any
    draw to its outcome."""
    if shots == 0:
        return probs @ signs
    cuts = _cdf(probs)[:, np.flatnonzero(signs[1:] != signs[:-1])]
    step = max(1, MAX_SHOTS // shots)
    n_minus = []
    for block in np.split(cuts, range(step, len(cuts), step)):
        draws = rng.random((len(block), shots))
        # signs start at +1 and flip at each cut: a -1 outcome is past an odd number of cuts
        past = [np.count_nonzero(draws >= cut[:, None], axis=1) for cut in block.T]
        n_minus.append(sum(past[0::2]) - sum(past[1::2]))
    return (shots - 2.0 * np.concatenate(n_minus)) / shots


def measure_once(state: StateVector, seed: int) -> tuple[str, StateVector]:
    """Sample one basis outcome and collapse; deterministic per (state, seed)."""
    bits = next(iter(sample_state(state, 1, seed).counts))
    return bits, make_basis_state(state.n_qubits, bits)


def sample_state(state: StateVector, shots: int, seed: int) -> Histogram:
    """Draw `shots` independent Born-rule samples from a fixed state.

    The draws are those of the reference sampler in `tests/conftest.py`; they
    are counted per outcome by sorting them and locating each CDF entry among
    them, which gives the same histogram without mapping each to its outcome."""
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
