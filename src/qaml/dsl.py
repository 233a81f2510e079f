"""Line-oriented circuit DSL: parser and printer.

Grammar (keywords case-insensitive, '#' starts a comment, blank lines
ignored):

    program := "qubits" INT NEWLINE stmt*
    stmt    := gate1 | rot | gate2 | "measure" "all"
    gate1   := ("h"|"x"|"y"|"z") INT
    rot     := ("rx"|"ry"|"rz") INT FLOAT      # radians; pi-fractions allowed
    gate2   := "cx" INT INT                    # control target

Angle literals accept plain decimals plus "pi", "pi/2", "-pi/4",
"3pi/2"-style constants.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Circuit, CircuitOp
from .errors import ParseError

MAX_LINES = 1_000_000

_SINGLE = ("h", "x", "y", "z")
_ROT = ("rx", "ry", "rz")

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin: str = "<stdin>"


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize_line(line: str, line_no: int) -> list[_Token]:
    code = line.split("#", 1)[0]
    return [
        _Token(m.group(0), line_no, m.start() + 1)
        for m in re.finditer(r"\S+", code)
    ]


def _error(token: _Token, message: str) -> ParseError:
    return ParseError(token.line, token.column, message, token.text)


def _parse_angle(token: _Token) -> float:
    text = token.text
    match = _PI_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coeff = float(match.group(2)) if match.group(2) else 1.0
        denom = float(match.group(3)) if match.group(3) else 1.0
        if denom == 0:
            raise _error(token, "division by zero in angle")
        value = sign * coeff * math.pi / denom
    else:
        try:
            value = float(text)
        except ValueError:
            raise _error(token, f"malformed angle literal {text!r}") from None
    if not math.isfinite(value):
        raise _error(token, f"angle must be finite, got {text!r}")
    return value


def _parse_index(token: _Token, n_qubits: int) -> int:
    try:
        index = int(token.text)
    except ValueError:
        raise _error(token, f"expected a qubit index, got {token.text!r}") from None
    if not 0 <= index < n_qubits:
        raise _error(token, f"index {index} >= declared qubits ({n_qubits})")
    return index


def _expect_arity(tokens: list[_Token], count: int):
    head = tokens[0]
    args = tokens[1:]
    if len(args) < count:
        raise _error(head, f"{head.text!r} expects {count} operand(s), got {len(args)}")
    if len(args) > count:
        extra = args[count]
        raise _error(extra, f"unexpected extra token {extra.text!r}")
    return args


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
    if len(lines) > MAX_LINES:
        raise ParseError(MAX_LINES + 1, 1, f"program exceeds {MAX_LINES} lines", "")

    n_qubits = None
    ops: list[CircuitOp] = []
    measure_all = False
    for line_no, line in enumerate(lines, start=1):
        tokens = _tokenize_line(line, line_no)
        if not tokens:
            continue
        head = tokens[0]
        keyword = head.text.lower()

        if keyword == "qubits":
            if n_qubits is not None:
                raise _error(head, 'duplicate "qubits" header')
            (count,) = _expect_arity(tokens, 1)
            try:
                n_qubits = int(count.text)
            except ValueError:
                raise _error(count, f"expected a qubit count, got {count.text!r}") from None
            if n_qubits < 1:
                raise _error(count, f"qubit count must be positive, got {n_qubits}")
            continue

        if n_qubits is None:
            raise _error(head, 'statement before the "qubits" header')

        if keyword == "measure":
            (what,) = _expect_arity(tokens, 1)
            if what.text.lower() != "all":
                raise _error(what, f'expected "all" after measure, got {what.text!r}')
            measure_all = True
        elif keyword in _SINGLE:
            (target,) = _expect_arity(tokens, 1)
            ops.append(CircuitOp(keyword.upper(), (_parse_index(target, n_qubits),)))
        elif keyword in _ROT:
            target, angle = _expect_arity(tokens, 2)
            ops.append(
                CircuitOp(
                    keyword.upper(),
                    (_parse_index(target, n_qubits),),
                    _parse_angle(angle),
                )
            )
        elif keyword == "cx":
            control, target = _expect_arity(tokens, 2)
            c = _parse_index(control, n_qubits)
            t = _parse_index(target, n_qubits)
            if c == t:
                raise _error(target, "control and target must differ")
            ops.append(CircuitOp("CX", (c, t)))
        else:
            raise _error(head, f"unknown mnemonic {head.text!r}")

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
