"""Gate matrices and their application to state vectors.

The one gate kernel is `_bind`, whose docstring states its bit contract: a bound
step applies a k-qubit (2^k x 2^k) unitary to a batch-last `(2^n, batch)` buffer
in O(2^k * 2^n * batch) time with only its numpy calls. `apply_gate` binds, steps
and restores once; `circuit._run` says how the one op loop reuses bound steps.
Only the test oracle `dense_unitary` builds the full 2^n x 2^n operator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArityMismatch,
    DuplicateTarget,
    InvariantError,
    NonFiniteAngle,
    OracleSizeExceeded,
    TargetOutOfRange,
    UnknownGate,
)
from .state import StateVector, _check_register, _complexes, _frozen, _integer, _real

UNITARITY_ATOL = 1e-12

ROTATION_GATES = ("RX", "RY", "RZ")
GATE_ARITY = {"H": 1, "X": 1, "Y": 1, "Z": 1, "RX": 1, "RY": 1, "RZ": 1, "CX": 2}

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateMatrix:
    """A named unitary on `arity` qubits: a 2^k x 2^k matrix for any arity k >= 1 (2x2
    for the one-qubit gates, 4x4 for CX), which `apply_gate` and `dense_unitary` take too.

    `angle` is set exactly for the rotation gates RX/RY/RZ. A gate checks the matrix it is
    given as it is, then keeps a C-ordered read-only copy (`state._frozen`): it shares
    neither the caller's array nor a library constant, leaves the caller's flags alone,
    and gives `apply_gate` the same bits whatever the caller's memory order.
    """

    name: str
    arity: int
    matrix: np.ndarray = field(repr=False)
    angle: float | None = None

    def __post_init__(self):
        mat = _complexes(self.matrix, f"gate {self.name}: matrix", InvariantError)
        object.__setattr__(self, "arity", _integer(self.arity, "arity", InvariantError))
        if self.arity < 1:
            raise InvariantError(f"gate {self.name}: arity must be >= 1, got {self.arity}")
        # capped as a `StateVector`'s size is, so an absurd arity builds no huge int
        dim = 1 << min(self.arity, 63)
        if mat.shape != (dim, dim):
            size = dim if self.arity < 63 else f"2**{self.arity}"
            raise InvariantError(f"gate {self.name}: expected {size}x{size} matrix, got {mat.shape}")
        deviation = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
        if deviation > UNITARITY_ATOL:
            raise InvariantError(f"gate {self.name} is not unitary (max |U†U - I| = {deviation})")
        object.__setattr__(self, "matrix", _frozen(mat))


# Shared read-only matrices of the fixed gates. CX maps
# |control,target> -> |control, target XOR control>.
FIXED_MATRICES = {
    "H": _frozen([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]]),
    "X": _frozen([[0, 1], [1, 0]]),
    "Y": _frozen([[0, -1j], [1j, 0]]),
    "Z": _frozen([[1, 0], [0, -1]]),
    "CX": _frozen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}
# The gates whose matrices are real: a real state stays real under them.
REAL_GATES = frozenset({"H", "X", "Z", "RY", "CX"})


def gate_h() -> GateMatrix:
    return gate_from_name("H")


def gate_x() -> GateMatrix:
    return gate_from_name("X")


def gate_y() -> GateMatrix:
    return gate_from_name("Y")


def gate_z() -> GateMatrix:
    return gate_from_name("Z")


def gate_rx(theta: float) -> GateMatrix:
    return gate_from_name("RX", theta)


def gate_ry(theta: float) -> GateMatrix:
    return gate_from_name("RY", theta)


def gate_rz(theta: float) -> GateMatrix:
    return gate_from_name("RZ", theta)


def gate_cx() -> GateMatrix:
    return gate_from_name("CX")


def _check_gate(name, angle=None, param=None) -> tuple[str, float | None]:
    """The op rule: a known mnemonic, returned upper-cased; a rotation takes
    exactly one of a real angle (a float) and an integer slot, a fixed gate neither."""
    if not isinstance(name, str) or (name := name.upper()) not in GATE_ARITY:
        raise UnknownGate(f"unknown gate {name!r}")
    if name in ROTATION_GATES:
        if (angle is None) == (param is None):
            raise NonFiniteAngle(f"{name} op needs exactly one of angle or param slot")
    elif angle is not None or param is not None:
        raise NonFiniteAngle(f"{name} op takes neither angle nor param slot")
    if param is not None:
        _integer(param, "parameter slot", InvariantError)
    return name, None if angle is None else _real(angle, "rotation angle", NonFiniteAngle)


def op_matrix(name: str, angle: float | None) -> np.ndarray:
    """Raw matrix of an op that passed `_check_gate`: the shared constant of a fixed
    gate, or a fresh rotation matrix about the named axis if the angle (radians) is finite."""
    if angle is None:
        return FIXED_MATRICES[name]
    if not math.isfinite(angle):
        raise NonFiniteAngle(f"rotation angle must be finite, got {angle}")
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if name == "RZ":
        return np.array([[complex(c, -s), 0.0], [0.0, complex(c, s)]], dtype=np.complex128)
    raise UnknownGate(f"unknown rotation {name!r}")


def gate_from_name(name: str, angle: float | None = None) -> GateMatrix:
    """Build a gate from its mnemonic, with the angle for rotation gates."""
    name, angle = _check_gate(name, angle)
    return GateMatrix(name, GATE_ARITY[name], op_matrix(name, angle), angle)


def _check_target(target, earlier, n_qubits: int | None = None) -> int:
    """One qubit target as an int: an integer, non-negative, below `n_qubits` unless
    that is None, and not among the `earlier` targets of its op, in that order."""
    target = _integer(target, "qubit index", TargetOutOfRange)
    if target < 0:
        raise TargetOutOfRange(f"qubit index must be non-negative, got {target}")
    if n_qubits is not None and target >= n_qubits:
        raise TargetOutOfRange(f"index {target} >= declared qubits ({n_qubits})")
    if target in earlier:
        raise DuplicateTarget("control and target must differ")
    return target


def _check_targets(targets, arity: int, n_qubits: int | None = None) -> tuple[int, ...]:
    """The target rule: a sequence of `arity` targets, each passing `_check_target`."""
    if not np.iterable(targets):
        raise TargetOutOfRange(f"op targets must be a sequence, got {targets!r}")
    targets = tuple(targets)
    if len(targets) != arity:
        raise ArityMismatch(f"gate acts on {arity} qubit(s), got targets {targets}")
    checked = ()
    for target in targets:
        checked += (_check_target(target, checked, n_qubits),)
    return checked


# A one-qubit gate runs as one zgemm per (2, cols) block of the (blocks, 2,
# cols) view around its axis when cols is a multiple of 4, so that BLAS has no
# remainder columns, and when the blocks are wide or few: each zgemm call
# costs about as much as staging 50 amplitudes (measured at n = 10 to 20).
MATMUL_MIN_COLS = 32
MATMUL_MAX_BLOCKS = 32
GATHER_BITS = 13  # a CX run gathers 2^max(ceil(n/2), 13) rows per `take`; 2^12 was 10-20 % slower


@functools.lru_cache(maxsize=1024)
def _layout(dim: int, batch: int, order: tuple, targets: tuple, is_cx: bool, last: bool = False) -> tuple:
    """How the kernel runs a gate on `targets` of a `(dim, batch)` buffer whose axes
    (qubits, then the batch as axis n) lie in `order`, worked out once per key: `(path,
    shape, columns, order after)` for `"matmul"`, `"cx"` (row y gathers row XOR of `columns[b]`
    over y's set bits b; qubit order after if `last`) or `"staged"` (zgemm rows; target axes
    first, the batch, then the rest)."""
    sizes = tuple(batch if axis == len(order) - 1 else 2 for axis in order)
    if len(targets) == 1:
        where = order.index(targets[0])
        blocks, cols = math.prod(sizes[:where]), math.prod(sizes[where + 1 :])
        if cols % 4 == 0 and (cols >= MATMUL_MIN_COLS or blocks <= MATMUL_MAX_BLOCKS):
            return "matmul", (blocks, 2, cols), None, order
    elif is_cx and (dim >> 2) * batch % 4 == 0 and (batch == 1 or order[-1] == len(order) - 1):
        n, after = len(order) - 1, tuple(sorted(order)) if last else order
        # a qubit's row bit in `src`, and the output row bits whose parity is its source value
        source, rows = ({q: 1 << n - 1 - i for i, q in enumerate(a for a in axes if a < n)}
                        for axes in (order, after))
        for control, target in reversed(list(zip(targets[::2], targets[1::2]))):
            rows[target] ^= rows[control]
        return "cx", None, tuple(sum(source[q] for q in rows if rows[q] >> b & 1) for b in range(n)), after
    front = (*targets, len(order) - 1)
    return "staged", (1 << len(targets), -1), None, (*front, *(axis for axis in order if axis not in front))


def _relabel(src: np.ndarray, out: np.ndarray, order, new_order) -> tuple:
    """The views `(into, source)` whose copy moves `src`, axes in `order`, into `out`, axes in `new_order`."""
    source = src.reshape([src.shape[1] if axis == len(order) - 1 else 2 for axis in order])
    source = source.transpose([order.index(axis) for axis in new_order])
    return out.reshape(source.shape), source


def _bind(src: np.ndarray, out: np.ndarray, order: tuple, targets: tuple, is_cx: bool, last: bool = False):
    """The kernel for distinct C-contiguous `(2**n, batch)` buffers `src`, its axes in
    `order`, and `out`, of one dtype, its path and views built once: `(step, into_out,
    order after)`. `step(matrix)` makes only its numpy calls and leaves the product in
    `out`, or for a staged gate in `src`, with its axes in the order after, which the
    caller tracks until `_relabel` moves them back. A step is valid while both buffers
    live. Targets are not checked here (control first for CX, or with `is_cx` the flat pairs of a run).

    Results are bit-identical to the contraction this kernel replaced, the oracle of
    `tests/test_kernel_oracle.py`: one zgemm of the gate with the state staged as
    `(2**arity, N)`, target axes first, then the batch, then the other qubits. Every
    path does the same zgemm arithmetic per column, and a column's bits depend only on
    whether BLAS treats it as a remainder column (the last N mod 4), whatever the axis
    order. A one-qubit gate is one zgemm per block of the `(blocks, 2, cols)` view
    around its axis when no block has remainder columns; everything else is relabeled
    into the contraction's order (N mod 4 > 0 leaves at most one other qubit). There is
    no elementwise pair-update or phase-multiply path: numpy's complex arithmetic does
    not fuse multiply-adds as OpenBLAS zgemm does, so it would move the last bits.

    The run rule: a CX zgemm without remainder columns permutes rows and turns -0.0 into
    +0.0, so where a run's CXs have none and the batch is last or 1 wide, the run is one
    GF(2)-linear row gather and one 0-d zero add, every bit kept (else each CX stages). Its
    `np.take(mode="clip")` is unbuffered, its index XORed per chunk from two half tables.

    Float64 buffers take a C-contiguous real matrix, so each zgemm above is a dgemm, or
    a dgemv for a one-column staged product (`qaml.hybrid` says when its bits match)."""
    path, shape, columns, after = _layout(*src.shape, order, targets, is_cx, last)
    if path == "matmul":
        src, out = src.reshape(shape), out.reshape(shape)
        return (lambda matrix: np.matmul(matrix, src, out=out)), True, after
    if path == "cx":
        low = min(len(columns), max((len(columns) + 1) // 2, GATHER_BITS))
        # entry i of each half table is the XOR of the columns of i's set bits: O(2^(n/2)) entries
        lows, highs = (functools.reduce(lambda t, c: np.concatenate((t, t ^ c)), half, np.zeros(1, np.intp))
                       for half in (columns[:low], columns[low:]))
        chunk, blocks = np.empty_like(lows), list(out.reshape(highs.size, lows.size, -1))
        take, zero = src.take, np.zeros((), src.dtype)  # a 0-d zero spares `np.add` a conversion

        def step(matrix):
            for high, block in zip(highs, blocks):
                take(np.bitwise_xor(lows, high, out=chunk) if high else lows, 0, block, "clip")
                np.add(block, zero, out=block)  # -0.0 to +0.0, as each CX's zgemm does

        return step, True, after
    staged, stage_from = _relabel(src, out, order, after)
    operand, product = out.reshape(shape), src.reshape(shape)

    def step(matrix):
        staged[...] = stage_from
        np.dot(matrix, operand, out=product)

    return step, False, after


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Apply a gate to the named qubits, returning a new StateVector.

    Qubit k corresponds to bit k of the basis label (qubit 0 = most
    significant bit of the amplitude index).
    """
    targets = _check_targets(targets, gate.arity, state.n_qubits)
    src = state.amplitudes.reshape(-1, 1).copy()  # the kernel overwrites its source
    out = np.empty_like(src)
    order = tuple(range(state.n_qubits + 1))
    is_cx = gate.arity == 2 and np.array_equal(gate.matrix, FIXED_MATRICES["CX"])
    step, into_out, after = _bind(src, out, order, targets, is_cx)
    step(gate.matrix)
    if not into_out:
        np.copyto(*_relabel(src, out, after, order))
    return StateVector(state.n_qubits, out.reshape(-1))


def dense_unitary(gate: GateMatrix, targets, n_qubits: int) -> np.ndarray:
    """Explicit 2^n x 2^n expansion of a gate, for small-instance verification.

    Built entry by entry from the bit arithmetic of the index convention, so
    it shares no code path with `apply_gate`.
    """
    n_qubits = _check_register(n_qubits, None)
    if n_qubits > 8:
        raise OracleSizeExceeded(f"{n_qubits} qubits exceeds the oracle limit of 8")
    targets = _check_targets(targets, gate.arity, n_qubits)
    dim = 1 << n_qubits
    arity = gate.arity
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        col_sub = 0
        for k, q in enumerate(targets):
            col_sub = (col_sub << 1) | ((col >> (n_qubits - 1 - q)) & 1)
        for row_sub in range(1 << arity):
            amp = gate.matrix[row_sub, col_sub]
            if amp == 0:
                continue
            row = col
            for k, q in enumerate(targets):
                bit = (row_sub >> (arity - 1 - k)) & 1
                pos = n_qubits - 1 - q
                row = (row & ~(1 << pos)) | (bit << pos)
            full[row, col] += amp
    return full
