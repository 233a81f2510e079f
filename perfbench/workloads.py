"""Seeded inputs for the four benchmark workloads.

Every input is generated here from the workload seed; qaml only ever sees the
files written to the work directory. The seed changes angles, data values,
comment text and letter case, never the problem structure, so every count the
traced run records is the same for all seeds of one workload.
"""

from __future__ import annotations

import json
import math
import os
import random

SINGLE = ("H", "X", "Y", "Z", "RX", "RY", "RZ")
ROTATIONS = ("RX", "RY", "RZ")
GATES = SINGLE + ("CX",)
POSITIONS = ("first", "mid", "last")

WORKLOADS = ("wide20", "deep4", "train8", "train8_shots")

WIDE_QUBITS = 20
WIDE_SHOTS = 1_000_000
WIDE_STATE_ENTRIES = 10_000
ANGLE_JITTER = 0.05
DEEP_QUBITS = 4
DEEP_BLOCKS = 487
DEEP_SHOTS = 10_000
TRAIN_QUBITS = 8
TRAIN_ROWS = 256
TRAIN_ITERATIONS = 5
SHOTS_FEATURES = 200
SHOTS_PER_ROW = 1000
SHOTS_ITERATIONS = 2
LEARNING_RATE = 0.1

_WORDS = ("phase", "layer", "probe", "block", "kick", "mix", "swap", "turn", "spin", "walk")


def position_qubits(n_qubits: int) -> dict[str, int]:
    return {"first": 0, "mid": n_qubits // 2, "last": n_qubits - 1}


def cx_pair(n_qubits: int, position: str) -> tuple[int, int]:
    """Control/target pair whose control sits at the named position."""
    control = position_qubits(n_qubits)[position]
    target = control - 1 if control == n_qubits - 1 else control + 1
    return control, target


def _angle_literal(rng: random.Random) -> tuple[str, float]:
    """A DSL angle literal and its value: a pi-fraction or a decimal."""
    if rng.random() < 0.5:
        sign = rng.choice(("", "-"))
        coeff = rng.choice(("", "2", "3"))
        denom = rng.choice(("", "/2", "/3", "/4", "/8"))
        text = f"{sign}{coeff}pi{denom}"
        value = (-1.0 if sign else 1.0) * float(coeff or 1) * math.pi / float(denom[1:] or 1)
        return text, value
    value = rng.uniform(-math.pi, math.pi)
    return repr(value), value


def _mixed_case(word: str, rng: random.Random) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c for c in word.lower())


def _jittered(base: float, rng: random.Random) -> float:
    return base + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)


def _wide_program(rng: random.Random) -> tuple[str, list]:
    """Every angle is a fixed base value plus a small seeded jitter, so the
    outcome distribution, and with it the histogram size and the memory the
    run needs, stays about the same for every seed."""
    n = WIDE_QUBITS
    lines = [f"qubits {n}", "# layer 1: RY on every qubit spreads the state over all 2^20 outcomes"]
    ops = []
    for q in range(n):
        theta = _jittered(0.3 + (math.pi - 0.6) * q / (n - 1), rng)
        lines.append(f"ry {q} {theta!r}")
        ops.append(("RY", (q,), theta))
    for layer in (2, 3):
        lines.append(f"# layer {layer}: every gate type at the first, middle and last qubit")
        for position, q in position_qubits(n).items():
            for name in SINGLE:
                if name in ROTATIONS:
                    theta = _jittered(math.remainder(0.7 * len(ops), 2 * math.pi), rng)
                    lines.append(f"{name.lower()} {q} {theta!r}")
                    ops.append((name, (q,), theta))
                else:
                    lines.append(f"{name.lower()} {q}")
                    ops.append((name, (q,), None))
        for position in POSITIONS:
            c, t = cx_pair(n, position)
            lines.append(f"cx {c} {t}")
            ops.append(("CX", (c, t), None))
    lines.append("# layer 4: CX chain")
    for q in range(n - 1):
        lines.append(f"cx {q} {q + 1}")
        ops.append(("CX", (q, q + 1), None))
    lines.append("measure all")
    return "\n".join(lines) + "\n", ops


def _deep_program(rng: random.Random) -> tuple[str, list]:
    """Blocks of all 40 (gate, position) ops on 4 qubits, with comments,
    mixed-case mnemonics and pi-fraction angles."""
    n = DEEP_QUBITS
    schedule = [(name, (q,)) for q in range(n) for name in SINGLE]
    schedule += [("CX", (c, t)) for c in range(n) for t in range(n) if c != t]
    lines = [f"QUBITS {n}"]
    ops = []
    for block in range(DEEP_BLOCKS):
        lines.append(f"# block {block}: {rng.choice(_WORDS)} {rng.choice(_WORDS)}")
        for name, targets in schedule:
            words = [_mixed_case(name, rng)] + [str(t) for t in targets]
            angle = None
            if name in ROTATIONS:
                text, angle = _angle_literal(rng)
                words.append(text)
            if rng.random() < 0.1:
                words.append(f"# {rng.choice(_WORDS)}")
            lines.append(" ".join(words))
            ops.append((name, targets, angle))
    lines.append("Measure ALL")
    return "\n".join(lines) + "\n", ops


def _train_rows(rng: random.Random) -> list[list[float]]:
    rows = []
    for _ in range(TRAIN_ROWS):
        x = [rng.uniform(-math.pi, math.pi) for _ in range(TRAIN_QUBITS)]
        score = math.cos(x[0]) * math.cos(x[1]) + rng.gauss(0.0, 0.1)
        rows.append(x + [1.0 if score >= 0 else -1.0])
    return rows


def _shots_rows(rng: random.Random) -> list[list[float]]:
    rows = []
    for _ in range(TRAIN_ROWS):
        label = rng.choice((-1.0, 1.0))
        x = [rng.gauss(0.3 * label if j < 8 else 0.0, 1.0) for j in range(SHOTS_FEATURES)]
        rows.append(x + [label])
    return rows


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def build(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files under `workdir` and describe its cycle.

    The returned dict holds the CLI argument lists of one closed-loop cycle
    (`commands`) and the plain data the reference checks need.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    qaml_seed = rng.randrange(2**32)
    if workload in ("wide20", "deep4"):
        text, ops = (_wide_program if workload == "wide20" else _deep_program)(rng)
        n = WIDE_QUBITS if workload == "wide20" else DEEP_QUBITS
        path = _write(os.path.join(workdir, f"{workload}.q"), text)
        shots = WIDE_SHOTS if workload == "wide20" else DEEP_SHOTS
        return {
            "kind": "circuit",
            "workdir": workdir,
            "n_qubits": n,
            "ops": ops,
            "lines": len(text.splitlines()),
            "shots": shots,
            "qaml_seed": qaml_seed,
            "program": path,
            "commands": [
                ["run", path, "--shots", str(shots), "--seed", str(qaml_seed)],
                # the threshold is filled in once the reference state is known
                ["state", path, "--threshold", "0"],
            ],
        }
    if workload not in ("train8", "train8_shots"):
        raise ValueError(f"unknown workload {workload!r}")
    exact = workload == "train8"
    rows = _train_rows(rng) if exact else _shots_rows(rng)
    width = len(rows[0]) - 1
    header = ",".join([f"f{j}" for j in range(width)] + ["label"])
    csv_text = "\n".join([header] + [",".join(repr(v) for v in row) for row in rows]) + "\n"
    data = _write(os.path.join(workdir, f"{workload}.csv"), csv_text)
    config = {
        "learning_rate": LEARNING_RATE,
        "max_iterations": TRAIN_ITERATIONS if exact else SHOTS_ITERATIONS,
        "gradient_method": "parameter_shift",
        "shots": 0 if exact else SHOTS_PER_ROW,
        "seed": 0 if exact else qaml_seed,
        "convergence_tol": 0.0,
    }
    config_path = _write(os.path.join(workdir, f"{workload}.json"), json.dumps(config))
    out = os.path.join(workdir, f"{workload}-report.json")
    encoding = "angle" if exact else "amplitude"
    return {
        "kind": "train",
        "workdir": workdir,
        "n_qubits": TRAIN_QUBITS,
        "rows": rows,
        "encoding": encoding,
        "config": config,
        "config_path": config_path,
        "data": data,
        "out": out,
        "csv_bytes": len(csv_text.encode()),
        "commands": [
            ["train", "--config", config_path, "--data", data, "--out", out,
             "--encoding", encoding, "--axis", "y"],
        ],
    }
