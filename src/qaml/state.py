"""n-qubit state vectors in the computational basis.

Amplitudes are stored as a flat complex128 array of length 2^n. The basis
label b1 b2 ... bn maps to the integer index with b1 as the most significant
bit, so |110> lives at index 6.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidBitstring, InvariantError, QubitCountExceeded

#: The register ceiling (16M amplitudes, ~256 MB as complex128).
DEFAULT_MAX_QUBITS = 24

#: Absolute tolerance on |norm^2 - 1| for library-produced states.
NORM_ATOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Immutable 2^n-amplitude register state.

    Construction copies the amplitudes and validates shape, finiteness and
    normalization, so any StateVector in circulation owns its read-only
    buffer and satisfies the class invariants; the caller's array keeps its
    flags. Internal producers that hand over a fresh complex128 buffer no one
    else holds pass `_owned=True`, which skips the copy: a 20-qubit build then
    allocates at most 16 MiB (the |a|^2 of its norm check) instead of 32 MiB and
    runs about a quarter faster. wide20's process peak is set elsewhere, so its
    peak RSS does not show the difference.
    """

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        object.__setattr__(self, "n_qubits", _check_register(self.n_qubits, max_qubits=None))
        amps = _complexes(self.amplitudes, "amplitudes", InvariantError, copy=not _owned)
        # capped at 2**63 amplitudes, more than any array holds, so an absurd n builds no n-bit int
        if amps.shape != (1 << min(self.n_qubits, 63),):
            raise InvariantError(
                f"expected 2**{self.n_qubits} amplitudes for {self.n_qubits} qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvariantError("amplitudes must be finite")
        norm2 = norm_squared(amps)
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise InvariantError(f"state is not normalized: |amplitudes|^2 = {norm2}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

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


def _complexes(values, name: str, error, copy: bool = False) -> np.ndarray:
    """`values` as a complex128 array if numpy reads it as numbers (integers, reals or
    complex values; not bools, text or objects); else `error`. A complex128 array is
    returned as it is, with no pass over its entries, unless `copy` asks for a copy."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "iufc":
        raise error(f"{name} must be numbers, got {values!r:.80}")
    return (np.array if copy else np.asarray)(array, dtype=np.complex128)


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
    return StateVector(n_qubits, amps, _owned=True)


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
