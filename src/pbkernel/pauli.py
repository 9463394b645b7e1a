"""Pauli-string sums, diagonal/state embeddings, and exact statevectors.

Operators are real-weighted sums of n-qubit Pauli strings.  A string is
a length-n text of letters I/X/Y/Z; letter position i acts on qubit i,
and qubit 0 occupies the MOST significant bit of a basis-state index
(matching the assignment convention of :mod:`pbkernel.pbf`).  Signs are
canonicalized into the rational coefficients, which keeps every sum
Hermitian by construction.  A :class:`PauliSum` is a {word: nonzero int}
table of numerators over one denominator, of the same base class as
:class:`pbkernel.pbf.PseudoBoolean` (``pbf._TermTable``), so construction,
equality, sums and scaling are one code; unlike a polynomial, a Pauli sum
is not hashable.

The Z-basis expansion of a diagonal penalty f is its spin polynomial:
substitute x_i = (1 - z_i)/2 (:func:`pbkernel.pbf.boolean_to_spin`) and
read each spin monomial z_T as the Z word on the qubits in T.
:func:`pbf_to_pauli`, :func:`pauli_to_pbf` and :func:`ising_form` are
readings of that one change of variables, and they pass its integer
numerators and denominator along.  One codec (``_pauli_masks``
and ``_pauli_word``, bit i = letter i) turns words into binary
symplectic x/z masks and back, here and in
:class:`pbkernel.stabilizer.SymplecticPauli`.

A statevector and a diagonal operator are each one exact table: integer
numerators over one denominator.  A :class:`StateVector` holds two
arrays ``(re, im)``, so amplitude k is the Gaussian rational
(re[k] + i im[k]) / denom, and denom is the least one (gcd(denom, every
numerator) = 1), so equal vectors hold equal arrays; the factors of i
that Y letters and S gates introduce need no other form.  A vector given
any float or complex amplitude holds float64 parts over 1, and every
operation runs the same code on them.  A :class:`DiagonalOperator` holds
one numerator array, which :func:`embed_diagonal` and :func:`embed_state`
write straight from the cube engine's value table and
:func:`pbkernel.gadgets.support_parent` writes from a support.

Every statevector action (:meth:`PauliSum.apply`,
:meth:`DiagonalOperator.apply` and :func:`pbkernel.stabilizer.apply_circuit`)
widens a copy of the arrays to the dtype of the package's one rule,
:func:`pbkernel.pbf._int_dtype` (int64 below 2^63, Python ints above),
applied to the bound 2 max(1, max|numerator|) times the caller's growth
bound: 2^(number of H gates) for a circuit, the sum of |coefficient
numerators| over their LCM for a Pauli sum, the largest |numerator| of a
diagonal.  Gates act on halves of the ``(2,)*n`` view of the copy, a
Pauli word is one gather by ``idx ^ flip``, one sign from the parity of
``idx & zmask`` and one rotation by i^(number of Y), and a diagonal is one
multiply.  Each result is reduced to least terms.  That one reading of a
word (``_word_action``: row j of P_w has i^ny * sign[j] in column src[j])
also writes :meth:`PauliSum.to_dense`, one scatter per word, and reads
:func:`dense_pauli_coefficients`, one 2^n gather per trace.

The per-entry forms are built on each read: :attr:`StateVector.amps`
gives one shared ``Fraction(0)`` per zero amplitude, a ``Fraction`` per
real amplitude and an :class:`ExactComplex` (a complex number with
Fraction components) only where the imaginary part is nonzero, or floats
and complexes for a float vector; :attr:`DiagonalOperator.diag` gives one
``Fraction`` per distinct value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from numbers import Complex, Integral, Rational
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError, NotDiagonalError, ParseError
from .expr import rational, records
from .pbf import (PseudoBoolean, _accumulate, _check_assignment, _coerce, _count, _int_dtype, _scaled,
                  _shared_fractions, _swap_order, _TermTable, boolean_to_spin, index_of, spin_to_boolean)

#: dense objects (statevectors, diagonals) are capped at 2^16 entries
STATE_CAP = 16
#: widest sum :meth:`PauliSum.to_dense` writes out as a 2^n x 2^n matrix
DENSE_CAP = 12
#: widest matrix :func:`dense_pauli_coefficients` expands, one 2^n gather per 4^n words
PAULI_BASIS_CAP = 6
#: bound on the Z-basis expansion: the keys the per-variable pass in
#: :func:`pbkernel.pbf.boolean_to_spin` can hold, min(sum of 2^|M| over the
#: monomials M, 2^n)
EXPANSION_CAP = 1 << 16

PAULI_LETTERS = "IXYZ"


def _pauli_masks(word: str) -> tuple:
    """(x, z) bitmasks of a Pauli word; bit i stands for letter i."""
    x = z = 0
    for i, ch in enumerate(word):
        if ch not in PAULI_LETTERS:
            raise ValueError(f"bad Pauli letter {ch!r}")
        x |= (ch in "XY") << i
        z |= (ch in "ZY") << i
    return x, z


def _pauli_word(x: int, z: int, n: int) -> str:
    """Inverse of :func:`_pauli_masks` for n letters."""
    return "".join("IXZY"[(x >> i & 1) | (z >> i & 1) << 1] for i in range(n))


class ExactComplex:
    """Complex number with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        """Each part is read by :func:`pbkernel.pbf._coerce`."""
        self.re, self.im = _coerce(re), _coerce(im)

    def __add__(self, other):
        if isinstance(other, Rational):  # an exact scalar, read as the constructor reads a part
            other = ExactComplex(other)
        if isinstance(other, ExactComplex):
            return ExactComplex(self.re + other.re, self.im + other.im)
        return complex(self) + other

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            other = ExactComplex(other)
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return complex(self) * other

    __rmul__ = __mul__

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = ExactComplex(other)
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        return complex(self) == other

    def __hash__(self):
        return hash(complex(self)) if self.im else hash(self.re)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


#: the one zero amplitude the constructors and the readers share
_ZERO = Fraction(0)


def _basis_index(x, n: int) -> int:
    """Basis-state index of x, an index in 0..2^n - 1 (any integral number) or an
    n-bit assignment (checked as :meth:`pbkernel.pbf.PseudoBoolean.eval` checks one)."""
    if isinstance(x, Integral):
        if not 0 <= x < 1 << n:
            raise ValueError(f"basis index {x} outside 0..{(1 << n) - 1}")
        return int(x)
    _check_assignment(x, n)
    return index_of(map(int, x))


def _odd_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (entries below 2^STATE_CAP)."""
    for shift in (8, 4, 2, 1):
        x = x ^ (x >> shift)
    return (x & 1).astype(bool)


def _word_action(word: str, idx: np.ndarray) -> tuple:
    """(src, sign, ny) of the Pauli word P_w on the basis indices idx = 0 .. 2^n - 1:
    row j of P_w has its one nonzero, i^ny * sign[j], in column src[j], so
    (P_w v)[j] = i^ny sign[j] v[src[j]]."""
    flip, zmask = _pauli_masks(word[::-1])  # letter 0 is the most significant bit
    src = idx ^ flip
    return src, np.where(_odd_parity(src & zmask), -1, 1), word.count("Y")


def _exact_parts(k: int, a) -> tuple | None:
    """(re, im) of an exact amplitude, as given (the table reader reads them),
    None for an inexact one; anything else is a TypeError naming the index k."""
    if isinstance(a, ExactComplex):
        return a.re, a.im
    if isinstance(a, Rational):
        return a, 0
    if not isinstance(a, Complex):
        raise TypeError(f"amplitude {k} is a {type(a).__name__}, not a number")
    return None


class StateVector:
    """Dense 2^n amplitude vector: amplitude k is (re[k] + i im[k]) / denom.

    An exact vector holds integer numerators in least terms (gcd(denom,
    every numerator) = 1), so equal vectors hold equal arrays.  A vector
    given any float or complex amplitude holds float64 parts over 1.
    """

    __slots__ = ("n", "re", "im", "denom")

    def __init__(self, arity: int, amps: Sequence):
        """Each amplitude is an :class:`ExactComplex` or a ``numbers.Rational``
        (exact), or another ``numbers.Complex``, which makes the vector a float
        one; anything else is a TypeError naming its index."""
        size = self._size(arity)
        if len(amps) != size:
            raise DimensionError(f"need {size} amplitudes, got {len(amps)}")
        parts = [_exact_parts(k, a) for k, a in enumerate(amps)]
        self.n, self.denom = arity, 1
        if any(p is None for p in parts):  # float64 (re, im) pairs
            pairs = np.array([complex(a) for a in amps]).view(np.float64)
        else:  # integer (re, im) pairs over their LCM, which is in least terms
            pairs, self.denom = _scaled(x for p in parts for x in p)
        self.re, self.im = pairs.reshape(-1, 2).T.copy()

    @classmethod
    def _of(cls, n: int, re: np.ndarray, im: np.ndarray | None = None, denom: int = 1) -> "StateVector":
        """The vector (re + i im) / denom (im zero when None), on these arrays
        or, when denom is not 1, on their quotients by the gcd of denom and
        every numerator (the zero vector over 1); every engine result is
        built here."""
        v = object.__new__(cls)
        v.n, v.re, v.im, v.denom = n, re, np.zeros_like(re) if im is None else im, denom
        if denom != 1 and not (v.re.any() or v.im.any()):
            v.denom = 1
        elif denom != 1:  # g <= max|numerator|, so the quotients keep the dtype
            g = math.gcd(denom, int(np.gcd.reduce(v.re)), int(np.gcd.reduce(v.im)))
            v.re, v.im, v.denom = v.re // g, v.im // g, denom // g
        return v

    @staticmethod
    def _size(arity: int) -> int:
        """The 2^arity amplitudes of a statevector, once the arity is within
        the cap; every constructor asks here before it allocates them."""
        if arity < 0 or arity > STATE_CAP:
            raise EnumerationCapError(f"statevector arity {arity} outside 0..{STATE_CAP}")
        return 1 << arity

    @classmethod
    def zeros(cls, arity: int) -> "StateVector":
        return cls._of(arity, np.zeros(cls._size(arity), dtype=np.int64))

    @classmethod
    def basis_state(cls, arity: int, x) -> "StateVector":
        re = np.zeros(cls._size(arity), dtype=np.int64)
        re[_basis_index(x, arity)] = 1
        return cls._of(arity, re)

    @classmethod
    def plus_state(cls, arity: int, normalized: bool = False) -> "StateVector":
        """Uniform superposition; integer amplitudes 1 unless normalized.

        The unnormalized version is 2^(n/2) times the unit-norm plus
        state, which keeps the amplitudes exact.
        """
        return cls._of(arity, np.full(cls._size(arity), 2.0 ** (-arity / 2) if normalized else 1))

    @classmethod
    def ghz_state(cls, arity: int, normalized: bool = False) -> "StateVector":
        """|0..0> + |1..1>, rational amplitudes unless normalized."""
        if arity < 1:
            raise ValueError("GHZ state needs at least one qubit")
        re = np.zeros(cls._size(arity), dtype=np.float64 if normalized else np.int64)
        re[[0, -1]] = 2.0 ** (-1 / 2) if normalized else 1
        return cls._of(arity, re)

    @property
    def exact(self) -> bool:
        """False for a vector of float64 parts."""
        return self.re.dtype != np.float64

    def _entries(self, idx: slice) -> list:
        """The amplitudes in the slice idx, in the types :attr:`amps` gives."""
        d, exact = self.denom, self.exact
        out = []
        for r, m in zip(self.re[idx].tolist(), self.im[idx].tolist()):
            if m:
                out.append(ExactComplex(Fraction(r, d), Fraction(m, d)) if exact else complex(r, m))
            else:
                out.append((Fraction(r, d) if exact else r) if r else _ZERO)
        return out

    @property
    def amps(self) -> list:
        """The amplitudes, built on each read: one shared ``Fraction(0)`` per
        zero, a ``Fraction`` per real amplitude and an :class:`ExactComplex`
        only where the imaginary part is nonzero; floats and complexes for a
        float vector."""
        return self._entries(slice(None))

    def amplitude(self, x) -> object:
        k = _basis_index(x, self.n)
        return self._entries(slice(k, k + 1))[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_numpy()))

    def to_numpy(self) -> np.ndarray:
        """complex(amplitude) per entry; Python's int / int is correctly
        rounded, where an int64 array divided in float64 would round twice."""
        d = self.denom
        return np.array([complex(r / d, m / d) for r, m in zip(self.re.tolist(), self.im.tolist())])

    def _nonzero(self, tol: float = 0.0) -> np.ndarray:
        """Mask of the nonzero amplitudes: exact for an exact vector, and
        |amplitude| > tol (a NaN counting as nonzero) for a float one."""
        if self.exact:
            return (self.re != 0) | (self.im != 0)
        return ~(np.hypot(self.re, self.im) <= tol)

    def is_zero(self, tol: float = 0.0) -> bool:
        return not self._nonzero(tol).any()

    def scaled(self, c) -> "StateVector":
        return StateVector(self.n, [c * a for a in self.amps])

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.n != other.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {other.n}")
        return StateVector(self.n, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + other.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.exact != other.exact:  # Fraction == float compares the float's exact value
            return self.amps == other.amps
        same = self.denom == other.denom and np.array_equal(self.re, other.re)
        return same and np.array_equal(self.im, other.im)

    def approx_equal(self, other: "StateVector", tol: float = 1e-9) -> bool:
        return self.n == other.n and bool(
            np.allclose(self.to_numpy(), other.to_numpy(), atol=tol)
        )

    def __repr__(self):
        return f"StateVector(n={self.n})"

    def _widened(self, growth: int) -> tuple:
        """Copies of (re, im) for arithmetic that multiplies entries by at
        most growth: exact numerators in the dtype
        :func:`pbkernel.pbf._int_dtype` gives the bound 2 * max(1,
        max|numerator|) * growth, float parts as they are."""
        dtype = np.float64
        if self.exact:
            peak = max(1, int(abs(self.re).max()), int(abs(self.im).max()))
            dtype = _int_dtype(2 * peak * growth)
        return self.re.astype(dtype), self.im.astype(dtype)


def _gate(parts: tuple, n: int, kind: str, target: int, control: int | None = None) -> None:
    """Apply one Clifford gate in place to the n-qubit arrays parts = (re, im);
    H is unnormalized (a + b, a - b).

    lo and hi are views of (re, im) with the target qubit 0 and 1, inside
    the control-1 slab when there is a control: qubit 0 is the first axis
    of the ``(2,)*n`` view, the target axis is swapped to the front, and
    slices, not ints, keep even n = 1 a view."""
    key = () if control is None else (slice(None),) * control + (slice(1, 2),)
    views = [a.reshape((2,) * n)[key].swapaxes(0, target) for a in parts]
    lo, hi = [a[:1] for a in views], [a[1:] for a in views]
    if kind == "s":  # times i on the target-1 half
        hi[0][...], hi[1][...] = -hi[1], hi[0].copy()
    elif kind == "z":
        for b in hi:
            b *= -1
    else:  # h mixes the halves; x, and cnot inside its control-1 slab, swap them
        for a, b in zip(lo, hi):
            a[...], b[...] = (a + b, a - b) if kind == "h" else (b.copy(), a.copy())


def _pauli_sum(parts: tuple, n: int, words: list, coeffs: list) -> tuple:
    """sum_w coeffs[w] P_w applied to the n-qubit arrays parts = (re, im), as new arrays."""
    (re, im), idx = parts, np.arange(1 << n)
    out_re, out_im = np.zeros((2, idx.size), dtype=re.dtype)
    for word, c in zip(words, coeffs):
        src, sign, ny = _word_action(word, idx)  # i^ny: a sign when ny & 2, then times i when ny & 1
        scale = sign.astype(re.dtype) * (-c if ny & 2 else c)
        t_re, t_im = re[src] * scale, im[src] * scale
        if ny & 1:  # times i
            t_re, t_im = -t_im, t_re
        out_re += t_re
        out_im += t_im
    return out_re, out_im


class DiagonalOperator:
    """Diagonal operator with exact rational entries, state-indexed: entry k
    is nums[k] / denom, over the LCM of the entries' denominators."""

    __slots__ = ("n", "nums", "denom")

    def __init__(self, arity: int, diag: Sequence):
        if arity < 0 or arity > STATE_CAP:
            raise EnumerationCapError(f"diagonal arity {arity} outside 0..{STATE_CAP}")
        if len(diag) != 1 << arity:
            raise DimensionError(f"need {1 << arity} entries, got {len(diag)}")
        self.n = arity
        self.nums, self.denom = _scaled(diag)

    @classmethod
    def _of(cls, n: int, nums: np.ndarray, denom: int) -> "DiagonalOperator":
        """The diagonal nums / denom, which must be in least terms."""
        op = object.__new__(cls)
        op.n, op.nums, op.denom = n, nums, denom
        return op

    @property
    def diag(self) -> list:
        """The entries, built on each read, one ``Fraction`` per distinct value."""
        return _shared_fractions(self.nums, self.denom)

    def apply(self, v: StateVector) -> StateVector:
        if v.n != self.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {v.n}")
        re, im = v._widened(int(abs(self.nums).max()))
        if v.exact:
            scale, denom = self.nums.astype(re.dtype), v.denom * self.denom
        else:  # each entry correctly rounded: Python's int / int
            scale, denom = np.array([x / self.denom for x in self.nums.tolist()]), 1
        return StateVector._of(v.n, re * scale, im * scale, denom)

    def kernel_indices(self) -> list:
        return np.flatnonzero(self.nums == 0).tolist()

    def __eq__(self, other):
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        return self.n == other.n and self.denom == other.denom and np.array_equal(self.nums, other.nums)

    def __repr__(self):
        return f"DiagonalOperator(n={self.n})"


def _embedded_table(f: PseudoBoolean, cap: int, what: str) -> tuple:
    """(nums, denom): f's values in state order over one denominator, which is
    in least terms because the values and the coefficients are integer
    combinations of each other.  The cap is read by :func:`_count`, and a
    cap above ``STATE_CAP`` counts as ``STATE_CAP``, so the check comes
    before the 2^n table exists."""
    cap = min(_count(cap, "cap"), STATE_CAP)
    if f.n > cap:
        raise EnumerationCapError(f"{what} embedding at arity {f.n} exceeds cap {cap}")
    vals, denom = f._cube_values(cap, f"{what} embedding")
    return _swap_order(vals, f.n), denom


def embed_diagonal(f: PseudoBoolean, cap: int = STATE_CAP) -> DiagonalOperator:
    """H_f with <x|H_f|x> = f(x)."""
    return DiagonalOperator._of(f.n, *_embedded_table(f, cap, "diagonal"))


def embed_state(f: PseudoBoolean, cap: int = STATE_CAP) -> StateVector:
    """The unnormalized state with amplitude f(x) on |x>."""
    nums, denom = _embedded_table(f, cap, "state")
    return StateVector._of(f.n, nums, denom=denom)


class PauliSum(_TermTable):
    """Hermitian sum of Pauli strings with exact rational coefficients."""

    __slots__ = ()

    @staticmethod
    def _arity(arity) -> int:
        n = _count(arity, "arity")
        if n < 0:
            raise ValueError(f"arity must be >= 0, got {arity}")
        return n

    def _key(self, letters) -> str:
        word = "".join(letters)
        if len(word) != self.n or any(ch not in PAULI_LETTERS for ch in word):
            raise ValueError(f"bad Pauli word {word!r} for {self.n} qubits")
        return word

    @classmethod
    def identity(cls, arity: int, coeff=1) -> "PauliSum":
        arity = cls._arity(arity)  # before "I" * arity reads a bool or fails on a float
        return cls(arity, {"I" * arity: coeff})

    def terms(self) -> list:
        """Sorted list of (letters, coefficient) pairs."""
        return sorted((w, Fraction(c, self._den)) for w, c in self._terms.items())

    def coefficient(self, letters: str) -> Fraction:
        return Fraction(self._terms.get("".join(letters), 0), self._den)

    def is_diagonal(self) -> bool:
        return all(set(w) <= {"I", "Z"} for w in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1) * other

    __mul__ = __rmul__ = _TermTable._times

    def __repr__(self):
        return f"PauliSum(n={self.n}, terms={len(self._terms)})"

    def apply(self, v: StateVector) -> StateVector:
        """Matrix-free action: each string is a bit-flip permutation with
        a +-1 / +-i phase per basis state, run on the statevector's arrays.

        Each output entry is a sum of the coefficient numerators times
        +-1 / +-i times one input numerator, which bounds the int64 check.
        """
        if v.n != self.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {v.n}")
        coeffs, den = list(self._terms.values()), self._den
        parts = v._widened(sum(map(abs, coeffs)))
        if not v.exact:  # each coefficient correctly rounded: Python's int / int
            coeffs, den = [c / den for c in coeffs], 1
        return StateVector._of(v.n, *_pauli_sum(parts, v.n, list(self._terms), coeffs), v.denom * den)

    def to_dense(self) -> np.ndarray:
        """Dense complex matrix; desk-scale only.  Each word adds c / den times
        i^ny * sign[j] at row j, column src[j] (:func:`_word_action`), to the
        real part or, for odd ny, the imaginary part."""
        if self.n > DENSE_CAP:
            raise EnumerationCapError(f"dense matrix at arity {self.n} is over cap {DENSE_CAP}")
        idx = np.arange(1 << self.n)
        out = np.zeros((idx.size, idx.size), dtype=complex)
        for word, c in self._terms.items():
            src, sign, ny = _word_action(word, idx)
            part = out.imag if ny & 1 else out.real
            part[idx, src] += c / self._den * (-sign if ny & 2 else sign)
        return out

    def to_text(self) -> str:
        """One term per line, '<coeff> <letters>', sorted by letters."""
        return "\n".join(f"{c} {w}" for w, c in self.terms())

    @classmethod
    def from_text(cls, text: str, arity: int | None = None) -> "PauliSum":
        pairs = []
        n = arity
        for lineno, parts in records(text):
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<coeff> <letters>'")
            coeff, word = rational(parts[0], lineno), parts[1]
            if n is None:
                n = len(word)
            if len(word) != n or any(ch not in PAULI_LETTERS for ch in word):
                raise ParseError(f"line {lineno}: bad Pauli word {word!r}")
            pairs.append((word, coeff))
        if n is None:
            raise ParseError("no terms found")
        return cls(n, _accumulate({}, pairs))


def pauli_cardinality(h: PauliSum) -> int:
    """Number of nonzero terms in the Pauli-basis expansion (identity counts)."""
    return len(h)


def pbf_to_pauli(f: PseudoBoolean) -> PauliSum:
    """Diagonal Z-basis expansion (x_i -> (I - Z_i)/2): the spin polynomial
    :func:`pbkernel.pbf.boolean_to_spin`, with z_T read as the Z word on T.
    The pass's table only holds subsets of the monomials M, so never more
    than min(sum 2^|M|, 2^n) keys; a count over ``EXPANSION_CAP`` raises
    EnumerationCapError before the pass starts."""
    count = min(sum(1 << mask.bit_count() for mask in f._terms), 1 << f.n)
    if count > EXPANSION_CAP:
        raise EnumerationCapError(
            f"Z-basis expansion needs {count} subset terms, over cap {EXPANSION_CAP}"
        )
    spin = boolean_to_spin(f)
    return PauliSum._of(f.n, {_pauli_word(0, zmask, f.n): c for zmask, c in spin._terms.items()}, spin._den)


def pauli_to_pbf(h: PauliSum) -> PseudoBoolean:
    """Exact inverse of :func:`pbf_to_pauli`; rejects X/Y letters."""
    if not h.is_diagonal():
        raise NotDiagonalError("operator has X or Y letters; not diagonal")
    spin = {_pauli_masks(word)[1]: c for word, c in h._terms.items()}
    return spin_to_boolean(PseudoBoolean._of(h.n, spin, h._den))


class IsingForm(NamedTuple):
    """Coefficients of a quadratic Z-basis expansion."""

    constant: Fraction
    fields: tuple  # h_l per qubit
    couplings: dict  # (l, k) with l < k -> J_lk


def ising_form(f: PseudoBoolean) -> IsingForm:
    """Fields and couplings of a degree-<=2 function's Z expansion, read off
    its spin polynomial :func:`pbkernel.pbf.boolean_to_spin`."""
    if f.degree > 2:
        raise ValueError(f"degree {f.degree} > 2; not an Ising-form function")
    form = boolean_to_spin(f)
    spin, den, n = form._terms, form._den, f.n
    fields = tuple(Fraction(spin.get(1 << l, 0), den) for l in range(n))
    pairs = [(l, k) for l in range(n) for k in range(l + 1, n) if 1 << l | 1 << k in spin]
    couplings = {(l, k): Fraction(spin[1 << l | 1 << k], den) for l, k in pairs}
    return IsingForm(Fraction(spin.get(0, 0), den), fields, couplings)


def dense_pauli_coefficients(mat: np.ndarray, tol: float = 1e-12) -> dict:
    """Pauli-basis coefficients of a dense Hermitian matrix.

    Trace inner products over all 4^n strings, each tr(P_w M) read as
    i^ny * sum_j sign[j] M[src[j], j] (:func:`_word_action`), one 2^n
    gather per word; intended for small n (the trivial-construction
    cardinality measurements).
    """
    size = mat.shape[0]
    n = size.bit_length() - 1
    if size == 0 or 1 << n != size or mat.shape != (size, size):
        raise DimensionError(f"matrix shape {mat.shape} is not square 2^n")
    if n > PAULI_BASIS_CAP:
        raise EnumerationCapError(f"4^{n} trace inner products is over cap 4^{PAULI_BASIS_CAP}")
    idx, coeffs = np.arange(size), {}
    for letters in product(PAULI_LETTERS, repeat=n):
        word = "".join(letters)
        src, sign, ny = _word_action(word, idx)
        c = (1, 1j, -1, -1j)[ny & 3] * (sign * mat[src, idx]).sum() / size
        if abs(c) > tol:
            coeffs[word] = complex(c)
    return coeffs
