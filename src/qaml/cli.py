"""Command-line front end: run, state, encode, train.

Machine-readable output goes to stdout as JSON; diagnostics go to stderr.
Exit codes: 1 parse error, 2 simulation error, 3 encoder error, 4 config
error, 5 dataset error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import circuit as circuit_mod
from . import encoding as encoding_mod
from . import hybrid
from .dsl import SourceProgram, parse, to_dsl
from .errors import ConfigError, ParseError, QamlError
from .state import StateVector, bitstrings

EXIT_PARSE = 1
EXIT_SIM = 2
EXIT_ENCODE = 3
EXIT_CONFIG = 4
EXIT_DATASET = 5


def _config_exit(message: str):
    print(f"config error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _resolve_seed(seed: int | None) -> int:
    """The --seed value, else QAML_SEED, else 0; a 64-bit Philox key."""
    source = "--seed"
    if seed is None:
        env = os.environ.get("QAML_SEED")
        if not env:
            return 0
        source = "QAML_SEED"
        try:
            seed = int(env)
        except ValueError:
            _config_exit(f"QAML_SEED must be an integer, got {env!r}")
    try:
        return circuit_mod._check_seed(seed, source)
    except ConfigError as exc:
        _config_exit(str(exc))


def _load_program(path: str) -> SourceProgram:
    if path == "-":
        return SourceProgram(sys.stdin.read(), "<stdin>")
    with open(path, encoding="utf-8") as handle:
        return SourceProgram(handle.read(), path)


def _parse_file(path: str):
    program = _load_program(path)
    try:
        return parse(program)
    except ParseError as exc:
        print(f"{program.origin}:{exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def _state_entries(state: StateVector, threshold: float) -> list[dict]:
    """One entry per basis state whose probability is not below `threshold`."""
    amps = state.amplitudes
    probs = amps.real**2 + amps.imag**2
    # "not below" rather than ">=", so a NaN threshold keeps every entry
    kept = np.flatnonzero(~(probs < threshold))
    return [
        {"basis": basis, "re": re, "im": im, "probability": prob}
        for basis, re, im, prob in zip(
            bitstrings(state.n_qubits, kept),
            amps.real[kept].tolist(),
            amps.imag[kept].tolist(),
            probs[kept].tolist(),
        )
    ]


def cmd_run(args) -> int:
    if args.shots < 1:
        _config_exit(f"--shots must be >= 1, got {args.shots}")
    seed = _resolve_seed(args.seed)
    circ = _parse_file(args.file)
    try:
        histogram = circuit_mod.sample(circ, args.shots, seed)
    except QamlError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    if args.format == "json":
        print(histogram.to_json())
    else:
        width = max(len(k) for k in histogram.counts)
        for key in sorted(histogram.counts):
            print(f"{key:<{width}}  {histogram.counts[key]}")
    return 0


def cmd_state(args) -> int:
    circ = _parse_file(args.file)
    try:
        state = circuit_mod.execute(circ)
    except QamlError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    print(json.dumps(_state_entries(state, args.threshold), sort_keys=True))
    return 0


def _encode_input_rows(raw: str) -> list[list[str]]:
    """Input is a file path (CSV) or an inline comma-separated row."""
    if os.path.isfile(raw):
        with open(raw, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = raw
    rows = [
        [cell.strip() for cell in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    return rows or [[]]


def _numeric_row(rows: list[list[str]]) -> list[float]:
    # optional header row: skipped when its first cell is not numeric
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        rows = rows[1:] or [[]]
    return [float(cell) for cell in rows[0]]


def cmd_encode(args) -> int:
    rows = _encode_input_rows(args.input)
    cells = rows[0]
    try:
        if args.method == "basis":
            state = encoding_mod.encode_basis("".join(cells))
        elif args.method == "superposition":
            state = encoding_mod.encode_superposition(cells)
        elif args.method == "amplitude":
            state = encoding_mod.encode_amplitude(_numeric_row(rows))
        else:  # angle
            circ = encoding_mod.encode_angle(_numeric_row(rows), args.axis.upper())
            if args.emit_circuit:
                sys.stdout.write(to_dsl(circ))
                return 0
            state = circuit_mod.execute(circ)
    except (QamlError, ValueError) as exc:
        print(f"encoding error: {exc}", file=sys.stderr)
        return EXIT_ENCODE
    print(json.dumps(_state_entries(state, args.threshold), sort_keys=True))
    return 0


def default_ansatz(n_qubits: int) -> hybrid.AnsatzTemplate:
    """Layered template: RY rotations, a CX entangling chain, RY rotations."""
    ops = [hybrid.AnsatzOp("RY", (q,), param=q) for q in range(n_qubits)]
    ops += [hybrid.AnsatzOp("CX", (q, q + 1)) for q in range(n_qubits - 1)]
    ops += [hybrid.AnsatzOp("RY", (q,), param=n_qubits + q) for q in range(n_qubits)]
    return hybrid.AnsatzTemplate(n_qubits, tuple(ops), 2 * n_qubits)


def _load_training_data(path: str) -> list[tuple[list[float], int]]:
    try:
        rows = encoding_mod.load_feature_rows(path)
    except (OSError, QamlError) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_DATASET) from None
    data = []
    for row in rows:
        if len(row) < 2:
            print("dataset error: each row needs features plus a label", file=sys.stderr)
            raise SystemExit(EXIT_DATASET)
        label = row[-1]
        if label not in (-1.0, 1.0):
            print("dataset error: label must be -1 or +1", file=sys.stderr)
            raise SystemExit(EXIT_DATASET)
        data.append((row[:-1], int(label)))
    if not data:
        print("dataset error: empty dataset", file=sys.stderr)
        raise SystemExit(EXIT_DATASET)
    return data


def cmd_train(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = hybrid.TrainConfig.from_json(handle.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    data = _load_training_data(args.data)
    n_features = len(data[0][0])
    spec = encoding_mod.EncodingSpec(args.encoding, args.axis.upper())
    if spec.method == "amplitude":
        n_qubits = max(int(np.ceil(np.log2(n_features))), 1)
    else:
        n_qubits = n_features
    template = default_ansatz(n_qubits)
    try:
        report = hybrid.train(template, data, spec, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QamlError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET

    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")
    final_loss = report.loss_trace[-1] if report.loss_trace else float("nan")
    print(
        f"final loss {final_loss:.6g} after {report.iterations_run} iterations",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaml",
        description="State-vector circuit simulator with data encoders and hybrid training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a DSL program and sample a histogram")
    p_run.add_argument("file")
    p_run.add_argument("--shots", type=int, default=1024)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_state = sub.add_parser("state", help="print the exact final state of a DSL program")
    p_state.add_argument("file")
    p_state.add_argument("--threshold", type=float, default=1e-12)
    p_state.set_defaults(func=cmd_state)

    p_enc = sub.add_parser("encode", help="encode classical data into a quantum state")
    p_enc.add_argument("--method", choices=encoding_mod.METHODS, required=True)
    p_enc.add_argument("--input", required=True, help="CSV file path or inline values")
    p_enc.add_argument("--axis", choices=("x", "y", "z"), default="y")
    p_enc.add_argument("--emit-circuit", action="store_true")
    p_enc.add_argument("--threshold", type=float, default=1e-12)
    p_enc.set_defaults(func=cmd_encode)

    p_train = sub.add_parser("train", help="run the hybrid training loop")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--encoding", choices=encoding_mod.METHODS, default="angle")
    p_train.add_argument("--axis", choices=("x", "y", "z"), default="y")
    p_train.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
