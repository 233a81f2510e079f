import numpy as np
import pytest

from qaml import Circuit, CircuitOp, StateVector, dense_unitary, gates
from qaml.circuit import _cdf
from qaml.gates import ROTATION_GATES


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def dense_execute(circuit: Circuit) -> np.ndarray:
    """Independent oracle: multiply explicit tensor-product matrices onto |0...0>."""
    dim = 1 << circuit.n_qubits
    state = np.zeros(dim, dtype=np.complex128)
    state[0] = 1.0
    for op in circuit.ops:
        state = dense_unitary(op.to_gate(), op.targets, circuit.n_qubits) @ state
    return state


def draw_indices(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """The reference inverse-CDF draw of `count` outcome indices from one probability row."""
    return np.searchsorted(_cdf(probs), rng.random(count), side="right")


def wide_ops(n: int) -> list[CircuitOp]:
    """The shape of the benchmark's wide20 program on `n` qubits: an RY row, two
    layers of every gate type at the first, middle and last qubit, each followed
    by a CX whose control sits at each of them, then a CX chain."""
    positions = (0, n // 2, n - 1)
    ops = [CircuitOp("RY", (q,), 0.3 + 2.5 * q / (n - 1)) for q in range(n)]
    for _ in range(2):
        for q in positions:
            for name in ("H", "X", "Y", "Z", "RX", "RY", "RZ"):
                ops.append(CircuitOp(name, (q,), 0.7 * len(ops) if name in ROTATION_GATES else None))
        ops += [CircuitOp("CX", (q, q - 1 if q == n - 1 else q + 1)) for q in positions]
    return ops + [CircuitOp("CX", (q, q + 1)) for q in range(n - 1)]


@pytest.fixture
def kernel_paths(monkeypatch):
    """Every kernel step run while the test runs, in order, as (path, whether the
    buffer's axes were in qubit order)."""
    paths, bind = [], gates._bind

    def recording_bind(src, out, order, targets, is_cx, last=False):
        step, into_out, after = bind(src, out, order, targets, is_cx, last)
        entry = (gates._layout(*src.shape, order, targets, is_cx, last)[0], order == tuple(sorted(order)))

        def recorded(matrix):
            paths.append(entry)
            step(matrix)

        return recorded, into_out, after

    monkeypatch.setattr(gates, "_bind", recording_bind)
    return paths


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
