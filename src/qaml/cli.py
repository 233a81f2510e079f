"""Command-line front end: run, state, encode, train.

Machine-readable output goes to stdout as JSON; diagnostics go to stderr.
The commands only raise; `main` turns every error into one stderr line and
an exit code chosen by its group in `EXIT_CODES`: 1 parse error, 2
simulation error, 3 encoder error, 4 config error (usage errors included),
5 dataset error, 70 internal error (anything that is not a `QamlError`).
A file that cannot be read, decoded or written raises the error of its
role: the program file 1, `--config` and `--out` 4, `--data` 5 and an
`encode --input` file 3.

Every input, `--data` included, is read by one rule (`encoding._read_text`):
`-` is stdin, anything else a file path, and the text is UTF-8 with one
leading byte-order mark dropped. Everything wrong with the `--data` input,
including a width that needs more qubits than the register ceiling, is a
dataset error that names the file, or `<stdin>`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import circuit as circuit_mod
from . import encoding as encoding_mod
from . import hybrid
from .dsl import parse, to_dsl
from .errors import (ConfigError, DatasetError, EncodingError, ParseError, QamlError,
                     QubitCountExceeded, SimulationError)
from .state import StateVector, bitstrings, probabilities

# The exit code and stderr prefix of each error group, in the order checked.
# A parse error with a position is shown as "prog.q:line 3, column 1: ...".
EXIT_CODES = (
    (ParseError, 1, "parse error"),
    (SimulationError, 2, "simulation error"),
    (EncodingError, 3, "encoding error"),
    (ConfigError, 4, "config error"),
    (DatasetError, 5, "dataset error"),
    (Exception, 70, "internal error"),
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `ConfigError` instead of exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@contextlib.contextmanager
def _file_errors(path: str, error):
    """Raise a failure to read, decode, parse or write `path`, or a register it makes
    too wide, as `error(message)`, the error group of the file's role."""
    try:
        yield
    except (OSError, UnicodeError, EncodingError, QubitCountExceeded) as exc:
        raise error(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _read_text(path: str, error) -> str:
    """`encoding._read_text(path)`, each failure raised as `error` naming `<stdin>` or the path."""
    with _file_errors("<stdin>" if path == "-" else path, error):
        return encoding_mod._read_text(path)


def _resolve_seed(seed: int | None) -> int:
    """The --seed value, else QAML_SEED, else 0; a 64-bit Philox key."""
    if seed is not None:
        return circuit_mod._check_seed(seed, "--seed")
    env = os.environ.get("QAML_SEED")
    if not env:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"QAML_SEED must be an integer, got {env!r}") from None
    return circuit_mod._check_seed(seed, "QAML_SEED")


def _parse_file(path: str):
    text = _read_text(path, functools.partial(ParseError, None, None))
    return parse(text, "<stdin>" if path == "-" else path)


def _state_entries(state: StateVector, threshold: float) -> list[dict]:
    """One entry per basis state whose probability is not below `threshold`."""
    amps, probs = state.amplitudes, probabilities(state)
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
    shots = circuit_mod._check_shots(args.shots, "--shots")
    seed = _resolve_seed(args.seed)
    histogram = circuit_mod.sample(_parse_file(args.file), shots, seed)
    if args.format == "json":
        print(histogram.to_json())
    else:
        for key in sorted(histogram.counts):
            print(f"{key}  {histogram.counts[key]}")
    return 0


def cmd_state(args) -> int:
    state = circuit_mod.execute(_parse_file(args.file))
    print(json.dumps(_state_entries(state, args.threshold), sort_keys=True))
    return 0


def cmd_encode(args) -> int:
    if args.emit_circuit and args.method != "angle":
        raise ConfigError(f"--emit-circuit needs --method angle, got --method {args.method}")
    # a CSV file or stdin ("-"), which may start with a header, or one inline row; one row is encoded
    file = args.input == "-" or os.path.isfile(args.input)
    text = _read_text(args.input, EncodingError) if file else args.input
    bits = args.method in ("basis", "superposition")
    rows = encoding_mod.read_feature_rows(text, str.strip if bits else float, file)
    cells = rows[0] if rows else []
    if args.method == "basis":
        state = encoding_mod.encode_basis("".join(cells))
    elif args.method == "superposition":
        state = encoding_mod.encode_superposition(cells)
    elif args.method == "amplitude":
        state = encoding_mod.encode_amplitude(cells)
    else:  # angle
        circ = encoding_mod.encode_angle(cells, args.axis)
        if args.emit_circuit:
            sys.stdout.write(to_dsl(circ))
            return 0
        state = circuit_mod.execute(circ)
    print(json.dumps(_state_entries(state, args.threshold), sort_keys=True))
    return 0


def default_ansatz(n_qubits: int) -> hybrid.AnsatzTemplate:
    """Layered template: RY rotations, a CX entangling chain, RY rotations."""
    ops = [hybrid.AnsatzOp("RY", (q,), param=q) for q in range(n_qubits)]
    ops += [hybrid.AnsatzOp("CX", (q, q + 1)) for q in range(n_qubits - 1)]
    ops += [hybrid.AnsatzOp("RY", (q,), param=n_qubits + q) for q in range(n_qubits)]
    return hybrid.AnsatzTemplate(n_qubits, tuple(ops), 2 * n_qubits)


def cmd_train(args) -> int:
    config = hybrid.TrainConfig.from_json(_read_text(args.config, ConfigError))
    spec = encoding_mod.EncodingSpec(args.encoding, args.axis)
    with _file_errors("<stdin>" if args.data == "-" else args.data, DatasetError):
        rows = encoding_mod.load_feature_rows(args.data)
        if not rows:
            raise DatasetError("empty dataset")
        if any(len(row) < 2 for row in rows):
            raise DatasetError("each row needs features plus a label")
        n_features = len(rows[0]) - 1
        n_qubits = encoding_mod._amplitude_qubits(n_features) if spec.method == "amplitude" else n_features
        template = default_ansatz(n_qubits)
    report = hybrid.train(template, [(row[:-1], row[-1]) for row in rows], spec, config)
    with _file_errors(args.out, ConfigError), open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")
    final_loss = report.loss_trace[-1] if report.loss_trace else float("nan")
    print(
        f"final loss {final_loss:.6g} after {report.iterations_run} iterations",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_enc.add_argument("--axis", type=str.upper, choices=encoding_mod.AXES, default="Y")
    p_enc.add_argument("--emit-circuit", action="store_true")
    p_enc.add_argument("--threshold", type=float, default=1e-12)
    p_enc.set_defaults(func=cmd_encode)

    p_train = sub.add_parser("train", help="run the hybrid training loop")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--encoding", choices=encoding_mod.METHODS, default="angle")
    p_train.add_argument("--axis", type=str.upper, choices=encoding_mod.AXES, default="Y")
    p_train.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. Every error ends here as
    one stderr line; `--help` exits 0 through argparse."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        code, prefix = next((c, p) for group, c, p in EXIT_CODES if isinstance(exc, group))
        if isinstance(exc, ParseError) and exc.line is not None:
            line = f"{exc.origin}:{exc}"
        else:
            line = f"{prefix}: {exc if isinstance(exc, QamlError) else repr(exc)}"
        print(" ".join(line.splitlines()), file=sys.stderr)
        return code


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
