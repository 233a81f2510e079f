"""The gate kernel against the contraction it replaced, bit for bit.

`apply_gate_tensor` once contracted each gate into a batch-first rank-n
tensor with `np.tensordot` and moved the target axes back with
`np.moveaxis`. The pinned outputs and the README's promise of reproducible
seeded results rest on the bits that contraction gave, so the batch-last
kernel must give exactly the same complex128 values, signed zeros included.
The old contraction is kept here as the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wide_ops
from qaml import Circuit, CircuitOp, execute, gates
from qaml.gates import GATE_ARITY, ROTATION_GATES, op_matrix
from qaml.hybrid import AnsatzTemplate, _run_ansatz

GATES = sorted(GATE_ARITY)
ONE_QUBIT = [name for name in GATES if GATE_ARITY[name] == 1]
BATCHES = (1, 2, 3, 4, 5, 7, 8, 12, 33, 40)


def tensordot_apply(tensor: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    arity = len(axes)
    gate_t = matrix.reshape((2,) * (2 * arity))
    out = np.tensordot(gate_t, tensor, axes=(list(range(arity, 2 * arity)), list(axes)))
    return np.moveaxis(out, list(range(arity)), list(axes))


def oracle_execute(circuit: Circuit) -> np.ndarray:
    n = circuit.n_qubits
    tensor = np.zeros((2,) * n, dtype=np.complex128)
    tensor[(0,) * n] = 1.0
    for op in circuit.ops:
        tensor = tensordot_apply(tensor, op_matrix(op.gate_name, op.angle), op.targets)
    return tensor.reshape(-1)


def oracle_ansatz(rows: np.ndarray, ops) -> np.ndarray:
    """The ansatz pass on a batch-first `(batch, 2**n)` array of samples."""
    batch, dim = rows.shape
    n = dim.bit_length() - 1
    tensor = rows.reshape((batch,) + (2,) * n)
    for op in ops:
        matrix = op_matrix(op.gate_name, op.angle)
        tensor = tensordot_apply(tensor, matrix, [1 + q for q in op.targets])
    return tensor.reshape(batch, dim)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def input_rows(kind: str, batch: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`batch` input amplitude rows: random, basis or sparse, with some of
    their real and imaginary zeros negative."""
    if kind == "random":
        rows = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        rows[rng.random((batch, dim)) < 0.2] = 0.0
    elif kind == "basis":
        rows = np.zeros((batch, dim), dtype=np.complex128)
        rows[np.arange(batch), rng.integers(dim, size=batch)] = 1.0
    else:
        rows = np.zeros((batch, dim), dtype=np.complex128)
        mask = rng.random((batch, dim)) < 0.1
        rows[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    parts = rows.view(np.float64)
    parts[(parts == 0.0) & (rng.random(parts.shape) < 0.5)] = -0.0
    return rows


def random_op(rng: np.random.Generator, n: int) -> CircuitOp:
    names = GATES if n > 1 else ONE_QUBIT
    name = names[rng.integers(len(names))]
    targets = tuple(int(t) for t in rng.permutation(n)[: GATE_ARITY[name]])
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if name in ROTATION_GATES else None
    return CircuitOp(name, targets, angle)


def single_ops(n: int) -> list[CircuitOp]:
    """Every gate on every qubit, CX on every ordered pair."""
    ops = []
    for q in range(n):
        for name in ONE_QUBIT:
            angle = 0.7 + 0.3 * q if name in ROTATION_GATES else None
            ops.append(CircuitOp(name, (q,), angle))
    ops += [CircuitOp("CX", (c, t)) for c in range(n) for t in range(n) if c != t]
    return ops


def assert_ansatz_matches(rows: np.ndarray, ops) -> None:
    n = rows.shape[1].bit_length() - 1
    template = AnsatzTemplate(n, tuple(ops), 0)
    got = _run_ansatz(np.ascontiguousarray(rows.T), template, [op.angle for op in ops])
    want = oracle_ansatz(rows, ops)
    np.testing.assert_array_equal(bits(got.T), bits(want))


@pytest.mark.parametrize("n", range(1, 11))
def test_every_gate_at_every_position(n):
    rng = np.random.default_rng(n)
    prefix = [CircuitOp("RY", (q,), 0.4 + 0.5 * q) for q in range(n)]
    for op in single_ops(n):
        circuit = Circuit(n, tuple(prefix + [op]))
        np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(oracle_execute(circuit)))
        for batch in BATCHES:
            for kind in ("random", "basis", "sparse"):
                assert_ansatz_matches(input_rows(kind, batch, 1 << n, rng), [op])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    batch=st.integers(1, 40),
    depth=st.integers(1, 24),
    kind=st.sampled_from(["random", "basis", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_circuits(n, batch, depth, kind, seed):
    rng = np.random.default_rng(seed)
    ops = [random_op(rng, n) for _ in range(depth)]
    circuit = Circuit(n, tuple(ops))
    np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(oracle_execute(circuit)))
    assert_ansatz_matches(input_rows(kind, batch, 1 << n, rng), ops)


def test_wide_program_on_relabeled_axes(kernel_paths):
    # On 12 qubits the RY row stages qubits 7 to 11 one after another; each
    # staged product leaves the axes out of qubit order, and the later
    # one-qubit gates and CXs run on those relabeled axes.
    circuit = Circuit(12, tuple(wide_ops(12)))
    np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(oracle_execute(circuit)))
    assert [path for path, _ in kernel_paths[7:12]] == ["staged"] * 5
    assert {("matmul", False), ("cx", False)} <= set(kernel_paths[12:])
    rng = np.random.default_rng(17)
    for batch in (3, 5):
        assert_ansatz_matches(input_rows("random", batch, 1 << 12, rng), circuit.ops)


def test_run_ansatz_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    rows = input_rows("random", 3, 8, rng)
    tensor = np.ascontiguousarray(rows.T)
    before = tensor.copy()
    # qubit 2 of 3 with batch 3 takes the staged path, which uses its source as scratch
    ops = (CircuitOp("H", (2,)), CircuitOp("CX", (0, 2)), CircuitOp("RY", (1,), 0.3))
    _run_ansatz(tensor, AnsatzTemplate(3, ops, 0), [op.angle for op in ops])
    np.testing.assert_array_equal(bits(tensor), bits(before))


def test_layout_cache_tells_batches_registers_and_target_orders_apart():
    # One cache serves every call in a process: a key without the batch
    # width, the register size, the target order or the axis order would hand
    # a later call the layout of an earlier one. In the last case H on qubit 3
    # is staged and relabels the axes, so the second RY on qubit 0 runs from
    # the same buffer as the first but on a different axis order.
    gates._layout.cache_clear()
    rng = np.random.default_rng(11)
    cases = [
        (3, 4, [CircuitOp("H", (2,))]),
        (3, 3, [CircuitOp("H", (2,))]),
        (2, 4, [CircuitOp("RY", (0,), 0.3)]),
        (4, 4, [CircuitOp("RY", (0,), 0.3)]),
        (3, 4, [CircuitOp("CX", (0, 1)), CircuitOp("CX", (1, 0))]),
        (4, 1, [CircuitOp("H", (0,)), CircuitOp("CX", (0, 1)), CircuitOp("CX", (1, 0))]),
        (4, 3, [CircuitOp("RY", (0,), 0.3), CircuitOp("CX", (0, 1))]
         + [CircuitOp("H", (3,)), CircuitOp("RY", (0,), 0.3)]),
    ]
    for n, batch, ops in cases:
        assert_ansatz_matches(input_rows("random", batch, 1 << n, rng), ops)
        circuit = Circuit(n, tuple(ops))
        np.testing.assert_array_equal(bits(execute(circuit).amplitudes), bits(oracle_execute(circuit)))
