"""n-qubit state vectors in the computational basis.

Amplitudes are stored as a flat complex128 array of length 2^n. The basis
label b1 b2 ... bn maps to the integer index with b1 as the most significant
bit, so |110> lives at index 6.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBitstring, InvariantError, QubitCountExceeded

#: The register ceiling (16M amplitudes, ~256 MB as complex128).
DEFAULT_MAX_QUBITS = 24

#: Absolute tolerance on |norm^2 - 1| for library-produced states.
NORM_ATOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Immutable 2^n-amplitude register state.

    Construction checks the caller's amplitudes as they are (shape, finiteness,
    normalization), then keeps a C-ordered read-only copy (`_frozen`): every
    StateVector owns its buffer and satisfies the class invariants, and the caller's
    array keeps its flags. Checking first frees the norm check's |a|^2 before the copy
    is made, so a build peaks at two states (the caller's array and the copy).
    """

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_register(self.n_qubits, max_qubits=None))
        amps = _complexes(self.amplitudes, "amplitudes", InvariantError)
        # capped at 2**63 amplitudes, more than any array holds, so an absurd n builds no n-bit int
        if amps.shape != (1 << min(self.n_qubits, 63),):
            raise InvariantError(
                f"expected 2**{self.n_qubits} amplitudes for {self.n_qubits} qubits, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise InvariantError("amplitudes must be finite")
        norm2 = norm_squared(amps)
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise InvariantError(f"state is not normalized: |amplitudes|^2 = {norm2}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def bitstring(self, index: int) -> str:
        """Basis label for an amplitude index, big-endian."""
        return format(index, f"0{self.n_qubits}b")


def bitstrings(n_qubits: int, indices: np.ndarray) -> list[str]:
    """Basis labels for an array of amplitude indices, big-endian."""
    # one text line per index, split in one call
    chars = np.full((indices.size, n_qubits + 1), ord("\n"), dtype=np.uint8)
    for column in range(n_qubits):
        chars[:, column] = ((indices >> (n_qubits - 1 - column)) & 1) + ord("0")
    return chars.tobytes().decode("ascii").splitlines()


def bitstring_to_index(bits: str) -> int:
    """Map a basis label to its amplitude index (first character = MSB)."""
    if not isinstance(bits, str) or not bits or any(c not in "01" for c in bits):
        raise InvalidBitstring(f"expected a non-empty bitstring of 0s and 1s, got {bits!r}")
    return int(bits, 2)


def _integer(value, name: str, error) -> int:
    """`value` as an int if it is a Python or numpy integer, not a bool; else `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str, error) -> float:
    """`value` as a float if it is a real number, finite or not, but not a bool; else `error`."""
    # `float` first: the `numbers.Real` check alone costs about 0.5 us
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must be finite, got a value too large for a float") from None


def _reals(values, name: str, error) -> np.ndarray:
    """A flat sequence as a float64 array if every entry passes `_real`'s rule and is
    finite; else `error`. A numeric array is taken whole and a list only scanned for
    bools, which numpy reads as 0 and 1; other input goes entry by entry through `_real`."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged
        array = None
    if array is None or array.ndim != 1:
        raise error(f"expected a flat sequence of {name}s, got {values!r}")
    numeric = isinstance(values, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, values))
    if array.dtype.kind not in "fiu" or not numeric:
        array = np.array([_real(value, name, error) for value in values], dtype=np.float64)
    if not np.isfinite(array).all():
        raise error(f"{name} must be finite, got {array[~np.isfinite(array)][0]}")
    return array.astype(np.float64, copy=False)


def _complexes(values, name: str, error) -> np.ndarray:
    """`values` as a complex128 array if numpy reads it as numbers (integers, reals or
    complex values; not bools, text or objects); else `error`. A complex128 array is
    returned as it is, strides and memory order kept, with no pass over its entries:
    `StateVector` and `GateMatrix` check it there, then keep a `_frozen` copy."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "iufc":
        raise error(f"{name} must be numbers, got {values!r:.80}")
    return np.asarray(array, dtype=np.complex128)


def _frozen(values) -> np.ndarray:
    """A C-ordered read-only complex128 copy of `values`: what a `StateVector` or a
    `GateMatrix` keeps, and each fixed gate's shared matrix."""
    array = np.array(values, dtype=np.complex128, order="C")
    array.setflags(write=False)
    return array


def _check_register(n_qubits, max_qubits: int | None = DEFAULT_MAX_QUBITS) -> int:
    """A register size as an int: an integer >= 1 and, before anything is allocated, at
    most `max_qubits` (None for a `StateVector`, whose amplitudes already exist)."""
    n_qubits = _integer(n_qubits, "n_qubits", InvariantError)
    if n_qubits < 1:
        raise InvariantError(f"n_qubits must be positive, got {n_qubits}")
    if max_qubits is not None and n_qubits > max_qubits:
        raise QubitCountExceeded(f"{n_qubits} qubits exceeds the ceiling of {max_qubits}")
    return n_qubits


def make_basis_state(n_qubits: int, bits: str) -> StateVector:
    """Prepare the computational basis state |bits> on n_qubits qubits."""
    index = bitstring_to_index(bits)
    n_qubits = _check_register(n_qubits)
    if len(bits) != n_qubits:
        raise InvalidBitstring(
            f"bitstring {bits!r} has length {len(bits)}, expected {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def norm_squared(state) -> float:
    """Sum of squared amplitude magnitudes (`probabilities`) of a StateVector or of any
    raw complex sequence, so it can check unnormalized data as well."""
    return float(np.sum(probabilities(state)))


def probabilities(state) -> np.ndarray:
    """Born-rule probability |a|^2 of each amplitude, index-aligned with them: the
    package's one |a|^2. Accepts a StateVector, numbers of any shape (`_complexes`), such
    as a transposed batch-last buffer, or a float64 array of real amplitudes (see
    `qaml.hybrid`), and returns a C-contiguous array."""
    if isinstance(state, np.ndarray) and state.dtype == np.float64:
        return np.square(state, order="C")
    amps = state.amplitudes if isinstance(state, StateVector) else _complexes(state, "amplitudes", InvariantError)
    probs = np.square(amps.real, order="C")
    probs += np.square(amps.imag)
    return probs
