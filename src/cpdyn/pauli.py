"""Pauli tensor-product Hamiltonians and a small Pauli-string input language.

A Hamiltonian is a sum of terms, each a real coefficient times a Kronecker
product of single-qubit Pauli matrices.  Terms are written ``<coeff>*<labels>``
with labels a contiguous string over ``I X Y Z``, one character per qubit,
leftmost character = first (outermost) tensor factor::

    1.0*ZI + 0.5*XY - 2*YY

All terms in one Hamiltonian must act on the same number of qubits.

Every Pauli string is a signed permutation matrix: one nonzero entry per
row, a power of -i (the x/z bit form of Aaronson & Gottesman, Phys. Rev. A
70, 052328, 2004).  With label l_k on bit n-1-k (l_0 outermost, the most
significant bit), flip mask f = the bits of X/Y labels, sign mask m = the
bits of Y/Z labels and nY = the number of Y labels,

    P[r, r ^ f] = (-i)^nY (-1)^popcount(r & m),

and every other entry is 0.  `build_hamiltonian` writes each term into H
by this rule, without forming a Kronecker product.

The module also holds the number rules of every entry point of the
package: `require_real` for a scalar, `require_numbers` for an array and
`require_integer` for an integer.  They live here, beside
`require_hermitian`, because this module imports nothing from the package.
`require_hermitian(H)` takes H alone, the one Hermiticity and tolerance
rule; that H acts on states of the right length is checked by
`quantum.spectrum(H, N)`, the one entry of H to every route.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from math import isfinite

import numpy as np

__all__ = [
    "PauliTerm",
    "PauliSyntaxError",
    "MixedLabelLengthError",
    "parse_hamiltonian",
    "format_terms",
    "build_hamiltonian",
    "build_two_qubit_hamiltonian",
    "require_hermitian",
    "require_integer",
    "require_numbers",
    "require_real",
]

PAULI_SYMBOLS = "IXYZ"

# H is a dense 2^n x 2^n complex matrix, 256 MiB at the ceiling of 12 qubits
# (N = 4096).  Peak memory, in units of one N x N complex array:
# - parsing a Pauli document, H and the temporaries of `build_hamiltonian`
#   and `require_hermitian`, bounded by `_BUILD_CHUNK` entries and
#   `_HERMITIAN_BLOCK` columns: about 1.06 (tracemalloc, 12 qubits and
#   64 terms);
# - a `compare`: about 5.3, set by the one `eigh` of `quantum.Spectrum`, its
#   copy of H, its LAPACK (`heevd`) workspace and the eigenvectors V, which
#   both routes share (peak RSS at N = 1024); the sampled states add up to
#   2^24 entries per trajectory.
# Scaled to 12 qubits, a `compare` peaks near 5.3 x 256 MiB = 1.4 GiB.
MAX_QUBITS = 12

# Hermiticity is judged relative to eps N max|H|: rounding in N-term sums
# grows like N eps (Higham, Accuracy and Stability, 2nd ed., 2002, sec. 3.1).
HERMITIAN_RTOL = 16

# the refusal of an integer that float() cannot hold, by scalar and array
_BEYOND_FLOAT = "{} must be finite, not an integer beyond the float range"


class PauliSyntaxError(ValueError):
    """Malformed Pauli-string input; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedLabelLengthError(ValueError):
    """Terms in one Hamiltonian act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliTerm:
    """One summand: `coefficient` times the tensor product of `labels`."""

    coefficient: float
    labels: tuple[str, ...]

    def __post_init__(self):
        # normalize numpy scalars / stray label types into plain Python values
        coefficient = require_real("coefficient", self.coefficient)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if not self.labels:
            raise ValueError("PauliTerm needs at least one qubit label")
        bad = [s for s in self.labels if s not in PAULI_SYMBOLS]
        if bad:
            raise ValueError(f"invalid Pauli symbol(s): {bad}")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


# one term: [sign] coefficient '*' labels, then blanks; each part follows a
# blank group (1, 3, 5, 7) whose end is where a missing part is reported
_TERM_RE = re.compile(
    r"(\s*)([+-])?(\s*)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    rf"(\s*)(\*)?(\s*)([{PAULI_SYMBOLS}]+)?\s*"
)
_MISSING = (
    None,  # the sign, required from the second term on
    "expected a numeric coefficient",
    "expected '*' after coefficient",
    "expected Pauli labels over I, X, Y, Z",
)


def parse_hamiltonian(text: str) -> list[PauliTerm]:
    """Parse a Pauli-string Hamiltonian into an ordered list of terms.

    Grammar (whitespace-insensitive)::

        hamiltonian := ['+'|'-'] term (('+'|'-') term)*
        term        := number '*' labels
        labels      := [IXYZ]+

    Raises PauliSyntaxError (with position) on malformed input,
    MixedLabelLengthError when terms differ in qubit count and ValueError
    when `text` is not a string.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a string of Pauli terms, got {type(text).__name__}")
    terms: list[PauliTerm] = []
    m = _TERM_RE.match(text)
    if m.end(1) == len(text):
        raise PauliSyntaxError("empty Hamiltonian", len(text))
    while True:
        parts = m.group(2, 4, 6, 8)  # sign, coefficient, '*', labels
        start = 0 if terms else 1  # the first sign is optional
        if None in parts[start:]:
            k = parts.index(None, start)
            pos = m.end(2 * k + 1)
            raise PauliSyntaxError(
                _MISSING[k] or f"expected '+' or '-', found {text[pos]!r}", pos
            )
        coeff = float(parts[1])
        terms.append(PauliTerm(-coeff if parts[0] == "-" else coeff, tuple(parts[3])))
        if m.end() == len(text):
            break
        m = _TERM_RE.match(text, m.end())

    lengths = {t.n_qubits for t in terms}
    if len(lengths) > 1:
        raise MixedLabelLengthError(
            f"terms act on different qubit counts {sorted(lengths)}: "
            f"{format_terms(terms)}"
        )
    return terms


def format_terms(terms: list[PauliTerm]) -> str:
    """Inverse of parse_hamiltonian; coefficients via repr (round-trip exact)."""
    parts: list[str] = []
    for i, t in enumerate(terms):
        coeff, labels = t.coefficient, "".join(t.labels)
        if i == 0:
            parts.append(f"{coeff!r}*{labels}")
        elif coeff < 0 or (coeff == 0 and str(coeff)[0] == "-"):
            parts.append(f"- {-coeff!r}*{labels}")
        else:
            parts.append(f"+ {coeff!r}*{labels}")
    return " ".join(parts)


# (-i)^nY for nY mod 4
_Y_PHASES = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)
# each label's bit in the flip mask f (X, Y) and the sign mask m (Y, Z)
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_SIGN_BITS = str.maketrans("IXYZ", "0011")

# Entries that `build_hamiltonian` scatters per `np.add.at` call, whole
# terms of N entries each: its index and value arrays take about 32 bytes
# an entry, so 2^14 entries bound its temporaries to about 0.5 MiB whatever
# the number of terms (2^16 gave the same times, and a peak of 1.13 H.nbytes
# at 10 qubits against 1.06).
_BUILD_CHUNK = 1 << 14


def build_hamiltonian(terms: list[PauliTerm]) -> np.ndarray:
    """Sum `terms` into one dense Hermitian operator.

    Term by term, in input order, over all rows r (the rule in the module
    docstring)::

        H[r, r ^ f] += c (-i)^nY (-1)^popcount(r & m)

    The addends are exactly +-c or +-ic, and each entry receives them in the
    same order as the sum of the terms' Kronecker products, so the result is
    that sum bit for bit; an entry that receives none stays +0.0.  The terms
    go in chunks of `_BUILD_CHUNK` entries, one `np.add.at` per chunk, which
    adds repeated indices one by one in input order.  An entry whose sum
    overflows becomes inf without a warning, and `require_hermitian` refuses
    it.

    Raises ValueError above MAX_QUBITS qubits, before allocating H.
    """
    if not terms:
        raise ValueError("cannot build a Hamiltonian from zero terms")
    lengths = {t.n_qubits for t in terms}
    if len(lengths) > 1:
        raise MixedLabelLengthError(
            f"terms act on different qubit counts {sorted(lengths)}"
        )
    n = terms[0].n_qubits
    if n > MAX_QUBITS:
        raise ValueError(
            f"terms act on {n} qubits, above the dense-matrix cap of {MAX_QUBITS}"
        )
    dim = 1 << n
    rows = np.arange(dim)
    row_starts = rows * dim
    # odd[j] is the parity of popcount(j)
    odd = np.zeros_like(rows)
    for b in range(n):
        odd ^= rows >> b
    odd = (odd & 1).astype(bool)

    flips, signs, phases = [], [], []
    for t in terms:
        labels = "".join(t.labels)
        flips.append(int(labels.translate(_FLIP_BITS), 2))
        signs.append(int(labels.translate(_SIGN_BITS), 2))
        phases.append(t.coefficient * _Y_PHASES[labels.count("Y") % 4])
    # one column per term, so a chunk broadcasts against the rows
    flips, signs = np.array(flips)[:, None], np.array(signs)[:, None]
    phases = np.array(phases)[:, None]

    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    step = max(1, _BUILD_CHUNK // dim)
    with np.errstate(over="ignore"):
        for a in range(0, len(terms), step):
            chunk = slice(a, a + step)
            values = np.where(odd[rows & signs[chunk]], -phases[chunk], phases[chunk])
            index = row_starts + (rows ^ flips[chunk])
            np.add.at(flat, index.ravel(), values.ravel())
    return out


def build_two_qubit_hamiltonian(
    c1: float, c2: float, c3: float, c4: float, c5: float
) -> np.ndarray:
    """Two-qubit model: c1*ZI + c2*XI + c3*YI + c4*YY + c5*XY.

    Basis order is (|00>, |01>, |10>, |11>) with the leftmost label acting
    on the first qubit; the YY and XY terms couple the qubits.
    """
    return build_hamiltonian(
        [
            PauliTerm(c1, ("Z", "I")),
            PauliTerm(c2, ("X", "I")),
            PauliTerm(c3, ("Y", "I")),
            PauliTerm(c4, ("Y", "Y")),
            PauliTerm(c5, ("X", "Y")),
        ]
    )


# Columns per block of `require_hermitian`: at N = 1024 and 4096, 32 ran
# as fast as 16 and 64, and a block's temporaries take at most 32 x N
# entries.
_HERMITIAN_BLOCK = 32


def require_hermitian(H: np.ndarray) -> np.ndarray:
    """Validate that H is a finite N x N matrix, N >= 2, with
    max|H - H^dag| <= HERMITIAN_RTOL eps N max|H| entrywise (eps the
    float64 epsilon); returns H as complex.  That N is the length of the
    states H acts on is checked by `quantum.spectrum`, not here.
    The entries pass `require_numbers` first.  Entry (i, j) of |H - H^dag|
    equals entry (j, i) bit for bit, so each pair i >= j is compared once:
    the columns b of each block of `_HERMITIAN_BLOCK` columns, from its
    diagonal block down, against the same rows of H^dag (rows b of H,
    conjugated and transposed).  No N x N array is formed; both maxima are
    those of the whole matrix, and max|H| reads every entry."""
    H = require_numbers("operator entries", H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {H.shape}")
    if H.shape[0] < 2:
        raise ValueError("operator dimension must be at least 2")
    n = H.shape[0]
    blocks = [slice(a, a + _HERMITIAN_BLOCK) for a in range(0, n, _HERMITIAN_BLOCK)]
    # a Pauli-built H or an (A + A^dag)/2 is equal to H^dag, so its residue
    # is exactly 0; +0.0 == -0.0, and NaN was refused above
    if all((H[b.start:, b] == H[b, b.start:].conj().T).all() for b in blocks):
        return H
    dev = max(np.max(np.abs(H[b.start:, b] - H[b, b.start:].conj().T)) for b in blocks)
    scale = max(np.max(np.abs(H[b])) for b in blocks)
    bound = HERMITIAN_RTOL * np.finfo(float).eps * n * scale
    if dev > bound:
        raise ValueError(
            f"operator is not Hermitian: max|H - H^dag| = {dev:.3e} exceeds "
            f"{bound:.3e}"
        )
    return H


# The number rules of every entry point: a real scalar, an array of numbers
# and an integer.  Each refuses with a ValueError that names the input.


def require_real(name: str, value) -> float:
    """`value` as a finite float.  A value that is not a real number (a
    string or a boolean, say), an integer beyond the float range, NaN and
    +-inf are refused; NumPy scalars pass.  Pure Python, with no NumPy
    call: every `PauliTerm` of a parsed document calls it, and float and
    int come before the slower `numbers.Real` check."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(_BEYOND_FLOAT.format(name)) from None
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_numbers(name: str, values, dtype=complex, ndim=None) -> np.ndarray:
    """`values` as an array of `dtype` (float or complex) with finite
    entries, and with `ndim` dimensions unless `ndim` is None.

    An ndarray of integer, float or, for a complex `dtype`, complex dtype
    (one that `dtype` holds) is converted without a look at its entries,
    and without a copy where it is already of `dtype`.  Anything else
    (nested lists, say) is checked one entry per Python type by
    `require_real` (a complex entry, allowed only for a complex `dtype`, by
    its real part), so a string, a boolean or a ragged row is refused.  Then
    every entry must be finite."""
    complexes = (complex, np.complexfloating) if dtype is complex else ()
    # an ndarray or NumPy scalar whose numbers `dtype` holds (no list has a
    # dtype, and a bool is no number)
    if getattr(values, "dtype", bool) != bool and np.can_cast(values.dtype, dtype):
        values = np.asarray(values, dtype)
    else:
        entries = np.asarray(values, dtype=object)
        # the first entry of each type, the one an error quotes
        for v in {type(v): v for v in reversed(entries.ravel().tolist())}.values():
            require_real(name, v.real if isinstance(v, complexes) else v)
        try:
            values = entries.astype(dtype)
        except OverflowError:  # a later integer beyond the float range
            raise ValueError(_BEYOND_FLOAT.format(name)) from None
    if ndim is not None and values.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def require_integer(name: str, value) -> int:
    """`value` as an int, refused unless it is an integer (a NumPy one
    passes, a bool does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
