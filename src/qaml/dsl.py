"""Line-oriented circuit DSL: parser and printer.

Grammar (keywords case-insensitive, '#' starts a comment, blank lines
ignored):

    program := "qubits" INT NEWLINE stmt*
    stmt    := GATE INT+ [ANGLE] | "measure" "all"

The gate set is read from `gates`: a GATE is any name in `GATE_ARITY`
(h, x, y, z, rx, ry, rz, cx), followed by that many qubit indices (control
then target for cx); the `ROTATION_GATES` take a final angle in radians.
Angle literals accept plain decimals plus "pi", "pi/2", "-pi/4",
"3pi/2"-style constants.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Circuit, CircuitOp
from .errors import ParseError
from .gates import GATE_ARITY, ROTATION_GATES

MAX_LINES = 1_000_000

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin: str = "<stdin>"


def _error(line_no: int, line: str, index: int, message: str) -> ParseError:
    """A `ParseError` at word `index` of `line`. Columns are only needed
    here, so only the failing line is scanned for them; `str.split` and
    the regex `\\S` agree on what whitespace is."""
    word = list(re.finditer(r"\S+", line.split("#", 1)[0]))[index]
    return ParseError(line_no, word.start() + 1, message, word.group(0))


def _parse_angle(text: str) -> float:
    match = _PI_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coeff = float(match.group(2)) if match.group(2) else 1.0
        denom = float(match.group(3)) if match.group(3) else 1.0
        if denom == 0:
            raise ValueError("division by zero in angle")
        value = sign * coeff * math.pi / denom
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"malformed angle literal {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def parse(program: SourceProgram | str) -> Circuit:
    """Parse DSL text into a validated Circuit; a `ParseError` names the
    program's origin."""
    if isinstance(program, str):
        program = SourceProgram(program, "<string>")
    try:
        return _parse_lines(program.text.splitlines())
    except ParseError as exc:
        exc.origin = program.origin
        raise


def _parse_lines(lines: list[str]) -> Circuit:
    """Every gate statement takes one path: its operand count, targets and
    angle come from `gates.GATE_ARITY` and `gates.ROTATION_GATES`."""
    if len(lines) > MAX_LINES:
        raise ParseError(MAX_LINES + 1, 1, f"program exceeds {MAX_LINES} lines", "")

    n_qubits = None
    ops: list[CircuitOp] = []
    measure_all = False
    for line_no, line in enumerate(lines, start=1):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        keyword = words[0].lower()
        gate = keyword.upper()
        if keyword == "qubits":
            if n_qubits is not None:
                raise _error(line_no, line, 0, 'duplicate "qubits" header')
            count = 1
        elif n_qubits is None:
            raise _error(line_no, line, 0, 'statement before the "qubits" header')
        elif keyword == "measure":
            count = 1
        elif gate in GATE_ARITY:
            count = GATE_ARITY[gate] + (gate in ROTATION_GATES)
        else:
            raise _error(line_no, line, 0, f"unknown mnemonic {words[0]!r}")
        if len(words) - 1 < count:
            message = f"{words[0]!r} expects {count} operand(s), got {len(words) - 1}"
            raise _error(line_no, line, 0, message)
        if len(words) - 1 > count:
            raise _error(line_no, line, count + 1, f"unexpected extra token {words[count + 1]!r}")

        if keyword == "qubits":
            try:
                n_qubits = int(words[1])
            except ValueError:
                raise _error(line_no, line, 1, f"expected a qubit count, got {words[1]!r}") from None
            if n_qubits < 1:
                raise _error(line_no, line, 1, f"qubit count must be positive, got {n_qubits}")
        elif keyword == "measure":
            if words[1].lower() != "all":
                raise _error(line_no, line, 1, f'expected "all" after measure, got {words[1]!r}')
            measure_all = True
        else:
            targets = []
            for index in range(1, GATE_ARITY[gate] + 1):
                try:
                    target = int(words[index])
                except ValueError:
                    message = f"expected a qubit index, got {words[index]!r}"
                    raise _error(line_no, line, index, message) from None
                if not 0 <= target < n_qubits:
                    message = f"index {target} >= declared qubits ({n_qubits})"
                    raise _error(line_no, line, index, message)
                if target in targets:
                    raise _error(line_no, line, index, "control and target must differ")
                targets.append(target)
            angle = None
            if gate in ROTATION_GATES:
                try:
                    angle = _parse_angle(words[-1])
                except ValueError as exc:
                    raise _error(line_no, line, count, str(exc)) from None
            ops.append(CircuitOp(gate, tuple(targets), angle))

    if n_qubits is None:
        raise ParseError(1, 1, 'missing "qubits" header', "")
    return Circuit(n_qubits, tuple(ops), measure_all)


def to_dsl(circuit: Circuit) -> str:
    """Render a Circuit back to DSL text; re-parsing yields an equal Circuit."""
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        mnemonic = op.gate_name.lower()
        parts = [mnemonic] + [str(t) for t in op.targets]
        if op.angle is not None:
            parts.append(repr(op.angle))
        lines.append(" ".join(parts))
    if circuit.measure_all:
        lines.append("measure all")
    return "\n".join(lines) + "\n"
