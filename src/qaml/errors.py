"""Exception hierarchy shared by all qaml modules.

Every error derives from one of five group bases, and its group alone picks
the CLI exit code (`cli.EXIT_CODES`). Errors that callers have always caught
as `ValueError` (invariants, zero shots, encoder choice) also subclass it.
"""


class QamlError(Exception):
    """Base class for all qaml errors."""


class ParseError(QamlError):
    """A circuit DSL program that is malformed or cannot be read.

    A syntax error carries a 1-based (line, column) position pointing into
    the source text, the offending token, and the `origin` set by `parse`;
    an unreadable program file has line and column None.
    """

    origin = "<string>"

    def __init__(self, line: int | None, column: int | None, message: str, offending_token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.offending_token = offending_token
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")


class SimulationError(QamlError):
    """A circuit, gate, register or state that cannot be simulated."""


class EncodingError(QamlError):
    """Classical data that an encoder cannot map onto a state."""


class ConfigError(QamlError, ValueError):
    """A setting out of range: training config, seed, shots, encoder choice."""


class DatasetError(QamlError):
    """Training data that cannot be trained on."""


class InvariantError(SimulationError, ValueError):
    """A state, circuit, histogram, gate matrix or ansatz template that breaks its invariants."""


class QubitCountExceeded(SimulationError):
    pass


class NonFiniteAngle(SimulationError):
    pass


class TargetOutOfRange(SimulationError):
    pass


class DuplicateTarget(SimulationError):
    pass


class ArityMismatch(SimulationError):
    pass


class UnknownGate(SimulationError):
    pass


class OracleSizeExceeded(SimulationError):
    pass


class ParamCountMismatch(SimulationError):
    pass


class NonFiniteParam(SimulationError):
    pass


class InvalidBitstring(EncodingError):
    pass


class DuplicateBasisState(EncodingError):
    pass


class LengthMismatch(EncodingError):
    pass


class EmptyInput(EncodingError):
    pass


class NonFiniteFeature(EncodingError):
    pass


class ZeroVector(EncodingError):
    pass


class QubitMismatch(DatasetError):
    pass


class EmptyDataset(DatasetError):
    pass


class InvalidLabel(DatasetError):
    pass
