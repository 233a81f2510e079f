"""Classical-to-quantum data encoders: basis, superposition, angle, amplitude.

Basis, superposition and amplitude encoders prepare states directly; angle
encoding returns a rotation circuit (one qubit per feature) to be executed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitOp
from .errors import (
    ConfigError,
    DuplicateBasisState,
    EmptyInput,
    InvalidBitstring,
    LengthMismatch,
    NonFiniteFeature,
    ZeroVector,
)
from .state import StateVector, _check_register, bitstring_to_index, make_basis_state

METHODS = ("basis", "superposition", "angle", "amplitude")
AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class EncodingSpec:
    """Choice of encoder; `axis` applies to the angle method only."""

    method: str
    axis: str = "Y"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown encoding method {self.method!r}")
        axis = self.axis.upper()
        if axis not in AXES:
            raise ConfigError(f"rotation axis must be one of {AXES}, got {self.axis!r}")
        object.__setattr__(self, "axis", axis)


def encode_basis(bits: str) -> StateVector:
    """|bits>: each classical bit mapped directly onto one qubit."""
    if not bits:
        raise InvalidBitstring("empty bitstring")
    return make_basis_state(len(bits), bits)


def encode_superposition(bitstrings) -> StateVector:
    """Uniform superposition sqrt(1/k) over the given k distinct basis states."""
    bitstrings = list(bitstrings)
    if not bitstrings:
        raise EmptyInput("superposition encoding needs at least one basis string")
    n = len(bitstrings[0])
    if n == 0:
        raise InvalidBitstring("empty bitstring")
    if len(set(bitstrings)) != len(bitstrings):
        raise DuplicateBasisState(f"duplicate basis state in {bitstrings}")
    for bits in bitstrings:
        if len(bits) != n:
            raise LengthMismatch(f"bitstring {bits!r} has length {len(bits)}, expected {n}")
    indices = [bitstring_to_index(bits) for bits in bitstrings]
    _check_register(n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[indices] = math.sqrt(1.0 / len(bitstrings))
    return StateVector(n, amps)


def _check_features(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise EmptyInput("feature vector must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise NonFiniteFeature(f"feature values must be finite, got {values}")
    return values


def encode_angle(features, axis: str = "Y") -> Circuit:
    """One rotation gate per feature: R_axis(feature_j) on qubit j.

    Features are used directly as radians; callers pre-scale.
    """
    values = _check_features(features)
    axis = EncodingSpec("angle", axis).axis
    ops = tuple(
        CircuitOp(f"R{axis}", (q,), float(theta)) for q, theta in enumerate(values)
    )
    return Circuit(len(values), ops)


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
    n_qubits = max(math.ceil(math.log2(values.size)), 1)
    _check_register(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[: values.size] = values / norm
    return StateVector(n_qubits, amps)


def read_feature_rows(text: str, cell=float) -> list[list]:
    """Parse CSV feature rows: one vector per row, each cell converted by
    `cell` (decimal literals by default, `str.strip` keeps bitstrings).

    A header row is skipped when its first cell is not numeric.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise EmptyInput(f"malformed CSV: {exc}") from None
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    parsed = []
    for row in rows:
        try:
            parsed.append([cell(value) for value in row])
        except ValueError as exc:
            raise EmptyInput(f"malformed CSV row {row}: {exc}") from None
    return parsed


def load_feature_rows(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as handle:
        return read_feature_rows(handle.read())
