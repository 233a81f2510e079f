"""Reference results computed without qaml's simulation code.

A small plain-numpy state-vector simulator, the README's sampling rule and
the training loss at zero parameters. Nothing here imports qaml: gate
matrices are written out from their textbook definitions, single-qubit gates
are applied as 2x2 updates on a strided view and CX as a slice swap, which is
a different route from qaml's tensordot kernels.
"""

from __future__ import annotations

import math

import numpy as np


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if name == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "RZ":
        return np.diag([complex(c, -s), complex(c, s)])
    raise ValueError(f"no reference matrix for {name!r}")


def apply_ops(psi: np.ndarray, n_qubits: int, ops) -> np.ndarray:
    """Apply (name, targets, angle) ops in place to a (batch, 2**n) array.

    Qubit 0 is the most significant bit of the amplitude index.
    """
    batch = psi.shape[0]
    for name, targets, angle in ops:
        if name == "CX":
            control, target = targets
            view = psi.reshape((batch,) + (2,) * n_qubits)
            one = [slice(None)] * (n_qubits + 1)
            one[1 + control] = 1
            lo, hi = list(one), list(one)
            lo[1 + target], hi[1 + target] = 0, 1
            lo, hi = tuple(lo), tuple(hi)
            saved = view[lo].copy()
            view[lo] = view[hi]
            view[hi] = saved
            continue
        (q,) = targets
        m = gate_matrix(name, angle)
        view = psi.reshape(batch, 1 << q, 2, 1 << (n_qubits - q - 1))
        a = view[:, :, 0, :].copy()
        b = view[:, :, 1, :].copy()
        view[:, :, 0, :] = m[0, 0] * a + m[0, 1] * b
        view[:, :, 1, :] = m[1, 0] * a + m[1, 1] * b
    return psi


def final_state(n_qubits: int, ops) -> np.ndarray:
    psi = np.zeros((1, 1 << n_qubits), dtype=complex)
    psi[0, 0] = 1.0
    return apply_ops(psi, n_qubits, ops)[0]


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """README rule: Philox keyed by the seed, inverse CDF over the outcomes."""
    return np.bincount(_draw(np.cumsum(probs), philox(seed).random(shots)), minlength=probs.size)


def state_threshold(probs: np.ndarray, target: int) -> float:
    """A probability cut that keeps about `target` outcomes.

    The cut sits in a gap between consecutive sorted probabilities that is
    wide compared with rounding error, so qaml and this reference keep the
    same outcomes.
    """
    ordered = np.sort(probs)[::-1]
    for offset in range(target):
        for k in (target + offset, target - offset):
            if 0 < k < ordered.size and ordered[k] > 0 and ordered[k - 1] > ordered[k] * (1 + 1e-6):
                return float(math.sqrt(ordered[k - 1] * ordered[k]))
    raise ValueError("no usable gap in the probability spectrum")


def default_ansatz(n_qubits: int, params) -> list:
    """The CLI's default template: RY row, CX chain, RY row."""
    ops = [("RY", (q,), float(params[q])) for q in range(n_qubits)]
    ops += [("CX", (q, q + 1), None) for q in range(n_qubits - 1)]
    ops += [("RY", (q,), float(params[n_qubits + q])) for q in range(n_qubits)]
    return ops


def encoded_states(rows, encoding: str, n_qubits: int) -> np.ndarray:
    features = [row[:-1] for row in rows]
    if encoding == "angle":
        return np.array(
            [final_state(n_qubits, [("RY", (j,), x[j]) for j in range(n_qubits)]) for x in features]
        )
    if encoding == "amplitude":
        x = np.zeros((len(rows), 1 << n_qubits))
        for r, values in enumerate(features):
            x[r, : len(values)] = values
        return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(complex)
    raise ValueError(f"no reference encoder for {encoding!r}")


def _z0_signs(n_qubits: int) -> np.ndarray:
    return np.where(np.arange(1 << n_qubits) >> (n_qubits - 1) & 1, -1.0, 1.0)


def _probabilities(encoded: np.ndarray, n_qubits: int, params) -> np.ndarray:
    psi = apply_ops(encoded.copy(), n_qubits, default_ansatz(n_qubits, params))
    return psi.real**2 + psi.imag**2


def exact_training(rows, encoding: str, n_qubits: int, iterations: int, learning_rate: float):
    """Gradient descent from zero parameters on the MSE of <Z_0> against the
    labels, with parameter-shift gradients (exact for RY). Returns the loss
    trace and the final parameters."""
    encoded = encoded_states(rows, encoding, n_qubits)
    labels = np.array([row[-1] for row in rows])
    signs = _z0_signs(n_qubits)
    params = np.zeros(2 * n_qubits)
    trace = []
    for _ in range(iterations):
        residual = _probabilities(encoded, n_qubits, params) @ signs - labels
        trace.append(float(np.mean(residual**2)))
        grad = np.empty_like(params)
        for j in range(params.size):
            shift = np.zeros_like(params)
            shift[j] = math.pi / 2
            plus = _probabilities(encoded, n_qubits, params + shift) @ signs
            minus = _probabilities(encoded, n_qubits, params - shift) @ signs
            grad[j] = 0.5 * (plus - minus) @ (2.0 * residual / labels.size)
        params = params - learning_rate * grad
    return trace, params.tolist()


def sampled_initial_loss(rows, encoding: str, n_qubits: int, shots: int, seed: int) -> float:
    """Loss at zero parameters with each row's <Z_0> estimated from `shots`
    draws of one Philox stream keyed by `seed`, rows in order, as the README
    prescribes."""
    probs = _probabilities(encoded_states(rows, encoding, n_qubits), n_qubits, np.zeros(2 * n_qubits))
    signs = _z0_signs(n_qubits)
    rng = philox(seed)
    expectations = np.array([signs[_draw(np.cumsum(p), rng.random(shots))].mean() for p in probs])
    labels = np.array([row[-1] for row in rows])
    return float(np.mean((expectations - labels) ** 2))
