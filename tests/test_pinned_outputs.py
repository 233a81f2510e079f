"""Outputs pinned bit for bit, so refactors of the simulator cannot move them.

Each constant was recorded before the gate engine was unified and must stay
equal afterwards. Only the Hadamard-layer training trace is compared within
1e-12: its uniform start state is now built by executing H gates. The
`qaml state` stdout hash was recorded before shot sampling and the state
output were vectorised.
"""

import contextlib
import hashlib
import io
import json
import math

import pytest

from qaml import (
    AnsatzOp,
    AnsatzTemplate,
    Circuit,
    CircuitOp,
    EncodingSpec,
    TrainConfig,
    execute,
    sample,
    train,
)
from qaml.cli import main


def mixed_circuit():
    ops = []
    for q in range(6):
        ops.append(CircuitOp("H", (q,)))
        ops.append(CircuitOp("RX", (q,), 0.3 + 0.7 * q))
    for q in range(5):
        ops.append(CircuitOp("CX", (q, q + 1)))
    for q in range(6):
        ops.append(CircuitOp(("X", "Y", "Z")[q % 3], (q,)))
        ops.append(CircuitOp("RY", (q,), -1.1 + 0.45 * q))
        ops.append(CircuitOp("RZ", (q,), 2.3 - 0.6 * q))
    ops.append(CircuitOp("CX", (5, 0)))
    ops.append(CircuitOp("CX", (3, 1)))
    return Circuit(6, tuple(ops))


def state_program() -> str:
    lines = ["qubits 10"]
    lines += [f"ry {q} {0.2 + 0.31 * q}" for q in range(10)]
    lines += [f"cx {q} {q + 1}" for q in range(9)]
    for q in range(10):
        lines += [f"rx {q} {1.3 - 0.17 * q}", f"rz {q} {0.4 * q - 0.9}"]
    lines += ["cx 9 0", "h 4"]
    return "\n".join(lines) + "\n"


def training_rows():
    rows = []
    for i in range(32):
        feats = [math.pi * ((7 * i + 3 * j) % 11) / 11 for j in range(4)]
        rows.append((feats, 1 if sum(math.cos(f) for f in feats) > 0 else -1))
    return rows


def template():
    n = 4
    ops = [AnsatzOp("RY", (q,), param=q) for q in range(n)]
    ops += [AnsatzOp("CX", (q + 1, q)) for q in reversed(range(n - 1))]
    ops += [AnsatzOp("RY" if q % 2 else "RX", (q,), param=n + q) for q in range(n)]
    ops += [AnsatzOp("H", (0,)), AnsatzOp("RZ", (1,), angle=0.25)]
    return AnsatzTemplate(n, tuple(ops), 2 * n)


# sha256 of the complex128 amplitude bytes of execute(mixed_circuit())
AMPLITUDES_SHA256 = "f94b0edbb90a5ffc8e5794c1b2d087668e2604a7fef1e97297630f7fc463bad7"

# sha256 of the stdout of `qaml state --threshold 1e-4` on state_program()
STATE_STDOUT_SHA256 = "28f2d5457bce342826bdbe2c206bd5f93d4f120726a119589e2b32826da6baa1"

SAMPLE_JSON = (
    '{"counts": {"000000": 11, "000010": 2, "000100": 82, "000110": 21, "001000": 11, "001010": 5, "001100": 118, "001110": 28, "010000": 37, "010010": 9, "010100": 12, "010110": 2, "011000": 69, "011010": 14, "011100": 33, "011110": 4, "100100": 6, "100101": 1, "100110": 1, "101001": 2, "101100": 3, "101101": 5, "101110": 2, "110000": 2, "110001": 3, "110011": 1, "110100": 1, "111000": 6, "111001": 4, "111010": 1, "111100": 1, "111101": 3}, "shots": 500}'
)

CONFIGS = {
    "exact": TrainConfig(learning_rate=0.3, max_iterations=6, convergence_tol=0.0),
    "finite_difference": TrainConfig(
        learning_rate=0.3, max_iterations=6, convergence_tol=0.0,
        gradient_method="finite_difference",
    ),
    "shots": TrainConfig(
        learning_rate=0.3, max_iterations=4, convergence_tol=0.0, shots=200, seed=5
    ),
    "hadamard_layer": TrainConfig(
        learning_rate=0.3, max_iterations=6, convergence_tol=0.0, hadamard_layer=True
    ),
}

TRAIN_JSON = {
    "exact": '{"circuit_depth": 17, "converged": false, "final_histogram": null, "final_params": [0.6266182821799942, 6.233444998466409e-18, -1.448469625366208e-18, 1.2069777005554366e-17, -3.125403323627086e-17, -3.2696210107396645e-18, -1.2143345836776425e-17, -2.002523133963205e-18], "iterations_run": 6, "loss_trace": [0.916698361946346, 0.8202648703388911, 0.7596310010462124, 0.7236959901106292, 0.7031418266168662, 0.6916157482026699]}',
    "finite_difference": '{"circuit_depth": 17, "converged": false, "final_histogram": null, "final_params": [0.6266182821740296, -4.996003610813203e-12, -6.661338147750938e-12, 1.665334536937734e-12, -3.330669073875469e-12, -1.665334536937734e-12, -1.6653345369377344e-12, 3.3306690738754684e-12], "iterations_run": 6, "loss_trace": [0.916698361946346, 0.8202648703396926, 0.7596310010479834, 0.7236959901125164, 0.7031418266176993, 0.691615748203745]}',
    "shots": '{"circuit_depth": 17, "converged": false, "final_histogram": {"counts": {"0000": 5, "0001": 75, "0011": 9, "0101": 14, "0110": 4, "0111": 44, "1001": 22, "1010": 2, "1011": 3, "1100": 2, "1101": 3, "1110": 3, "1111": 14}, "shots": 200}, "final_params": [0.5194059375000001, 0.0016668749999999993, -0.0008615625000000006, -0.007621874999999998, -0.015291562499999998, -0.004205624999999997, 0.004812187499999998, -0.004179374999999997], "iterations_run": 4, "loss_trace": [0.8969812500000001, 0.831375, 0.769134375, 0.7366406249999999]}',
    "hadamard_layer": '{"circuit_depth": 21, "converged": false, "final_histogram": null, "final_params": [-0.6556044903050388, -1.2823032046962768e-17, -9.281003835278178e-18, 8.168721170629898e-18, 1.8208613244029194e-18, -1.5263376297957073e-17, -3.100096488393673e-18, -3.090932860386615e-17], "iterations_run": 6, "loss_trace": [0.9369588955498402, 0.8392965941512802, 0.7742246955996981, 0.73361775696309, 0.709404326287504, 0.6953887562269108]}',
}


def run_train(name: str) -> str:
    return train(template(), training_rows(), EncodingSpec("angle", "Y"), CONFIGS[name]).to_json()


def test_execute_amplitudes_are_pinned():
    amps = execute(mixed_circuit()).amplitudes
    assert hashlib.sha256(amps.tobytes()).hexdigest() == AMPLITUDES_SHA256


def test_state_stdout_is_pinned(tmp_path):
    path = tmp_path / "state.q"
    path.write_text(state_program())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["state", str(path), "--threshold", "1e-4"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STATE_STDOUT_SHA256


def test_sample_histogram_is_pinned():
    assert sample(mixed_circuit(), 500, 11).to_json() == SAMPLE_JSON


@pytest.mark.parametrize("name", ["exact", "finite_difference", "shots"])
def test_train_report_is_pinned(name):
    assert run_train(name) == TRAIN_JSON[name]


def test_hadamard_layer_trace_is_pinned_within_1e_12():
    got, want = json.loads(run_train("hadamard_layer")), json.loads(TRAIN_JSON["hadamard_layer"])
    for key in ("loss_trace", "final_params"):
        assert len(got[key]) == len(want[key])
        assert max(abs(a - b) for a, b in zip(got[key], want[key])) <= 1e-12
        got[key] = want[key]
    assert got == want
