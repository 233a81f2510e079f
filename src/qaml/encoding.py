"""Classical-to-quantum data encoders: basis, superposition, angle, amplitude.

Basis, superposition and amplitude encoders prepare states directly; angle
encoding returns a rotation circuit (one qubit per feature) to be executed.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitOp
from .errors import (
    ConfigError,
    DuplicateBasisState,
    EmptyInput,
    LengthMismatch,
    NonFiniteFeature,
    ZeroVector,
)
from .state import StateVector, _check_register, _reals, bitstring_to_index, make_basis_state

METHODS = ("basis", "superposition", "angle", "amplitude")
AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class EncodingSpec:
    """Choice of encoder; `axis` applies to the angle method only."""

    method: str
    axis: str = "Y"

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ConfigError(f"unknown encoding method {self.method!r}")
        if not isinstance(self.axis, str) or self.axis.upper() not in AXES:
            raise ConfigError(f"rotation axis must be one of {AXES}, got {self.axis!r}")
        object.__setattr__(self, "axis", self.axis.upper())


def encode_basis(bits: str) -> StateVector:
    """|bits>: each classical bit mapped directly onto one qubit."""
    return make_basis_state(len(bits), bits)


def encode_superposition(bitstrings) -> StateVector:
    """Uniform superposition sqrt(1/k) over the given k distinct basis states."""
    bitstrings = list(bitstrings)
    if not bitstrings:
        raise EmptyInput("superposition encoding needs at least one basis string")
    indices = [bitstring_to_index(bits) for bits in bitstrings]
    n = len(bitstrings[0])
    if len(set(bitstrings)) != len(bitstrings):
        raise DuplicateBasisState(f"duplicate basis state in {bitstrings}")
    for bits in bitstrings:
        if len(bits) != n:
            raise LengthMismatch(f"bitstring {bits!r} has length {len(bits)}, expected {n}")
    _check_register(n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[indices] = math.sqrt(1.0 / len(bitstrings))
    return StateVector(n, amps)


def _check_features(values) -> np.ndarray:
    values = _reals(values, "feature value", NonFiniteFeature)
    if values.size == 0:
        raise EmptyInput("feature vector must be a non-empty 1-D sequence")
    return values


def encode_angle(features, axis: str = "Y") -> Circuit:
    """One rotation gate per feature: R_axis(feature_j) on qubit j.

    Features are used directly as radians; callers pre-scale.
    """
    values = _check_features(features)
    axis = EncodingSpec("angle", axis).axis
    ops = tuple(CircuitOp(f"R{axis}", (q,), theta) for q, theta in enumerate(values.tolist()))
    return Circuit(len(values), ops)


def _amplitude_qubits(n_features: int) -> int:
    """Qubits that hold `n_features` amplitudes: ceil(log2(n_features)), at least 1."""
    return max(math.ceil(math.log2(n_features)), 1)


def encode_amplitude(features) -> StateVector:
    """L2-normalize the features into amplitudes, zero-padded to 2^n.

    Uses ceil(log2(len)) qubits (minimum 1); entry i is x_i / ||x||_2. The
    features are first scaled by a power of two that brings the largest
    magnitude into [0.5, 1), which is exact and keeps the norm from
    overflowing or underflowing.
    """
    values = _check_features(features)
    values = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise ZeroVector("amplitude encoding requires a nonzero vector")
    n_qubits = _check_register(_amplitude_qubits(values.size))
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[: values.size] = values / norm
    return StateVector(n_qubits, amps)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_feature_rows(text: str, cell=float, header: bool = True) -> list[list]:
    """Parse CSV feature rows: one vector per row, each cell converted by
    `cell` (decimal literals by default, `str.strip` keeps bitstrings).

    With `header`, a first row is a header, and skipped, when none of its cells is numeric.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise EmptyInput(f"malformed CSV: {exc}") from None
    if header and rows and not any(map(_is_number, rows[0])):
        rows = rows[1:]
    parsed = []
    for row in rows:
        try:
            parsed.append([cell(value) for value in row])
        except ValueError as exc:
            raise EmptyInput(f"malformed CSV row {row}: {exc}") from None
    return parsed


def _stream(path: str, mode: str = "rb"):
    """`path` opened in `mode`, "-" left open: stdout is text; stdin and files are read as bytes."""
    if path != "-":
        return open(path, mode)
    stream = sys.stdout if "w" in mode else sys.stdin and sys.stdin.buffer
    if stream is None:  # closed when the process started (`>&-`, `<&-`)
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return contextlib.nullcontext(stream)


def _read_text(path: str) -> str:
    """The bytes of `_stream(path)` decoded once: UTF-8, one leading byte-order mark dropped."""
    with _stream(path) as handle:
        return handle.read().decode("utf-8-sig")


def load_feature_rows(path: str) -> list[list[float]]:
    return read_feature_rows(_read_text(path))
