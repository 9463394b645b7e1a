"""Pauli-string sums, diagonal/state embeddings, and exact statevectors.

Operators are real-weighted sums of n-qubit Pauli strings.  A string is
a length-n text of letters I/X/Y/Z; letter position i acts on qubit i,
and qubit 0 occupies the MOST significant bit of a basis-state index
(matching the assignment convention of :mod:`pbkernel.pbf`).  Signs are
canonicalized into the rational coefficients, which keeps every sum
Hermitian by construction.  A :class:`PauliSum` is a {word: nonzero
Fraction} table of the same base class as :class:`pbkernel.pbf.PseudoBoolean`
(``pbf._TermTable``), so equality, sums and scaling are one code; unlike a
polynomial, a Pauli sum is not hashable.

The Z-basis expansion of a diagonal penalty f is its spin polynomial:
substitute x_i = (1 - z_i)/2 (:func:`pbkernel.pbf.boolean_to_spin`) and
read each spin monomial z_T as the Z word on the qubits in T.
:func:`pbf_to_pauli`, :func:`pauli_to_pbf` and :func:`ising_form` are
readings of that one change of variables.  One codec (``_pauli_masks``
and ``_pauli_word``, bit i = letter i) turns words into binary
symplectic x/z masks and back, here and in
:class:`pbkernel.stabilizer.SymplecticPauli`.

Statevector amplitudes stay exact whenever the inputs are exact: real
amplitudes are Fractions and the factors of i introduced by Y letters
(or S gates) are handled by :class:`ExactComplex`, a complex number with
Fraction components.  Float and complex amplitudes are also accepted and
simply propagate.

Every statevector action (:meth:`PauliSum.apply` and
:func:`pbkernel.stabilizer.apply_circuit`) runs on one engine,
:class:`_Amplitudes`.  An exact vector becomes two integer arrays
``(re, im)`` over one common denominator, the LCM of every real and
imaginary denominator, so each amplitude is a Gaussian integer over it.
Their dtype is the package's one rule, :func:`pbkernel.pbf._int_dtype`
(int64 below 2^63, Python ints above), applied to the bound
2 max(1, max|numerator|) times the caller's growth bound (2^(number of H
gates) for a circuit, the sum of |coefficient numerators| over their LCM
for a Pauli sum), with one code path.  A vector with any float or complex
amplitude runs the same code on float64 ``(re, im)`` arrays.  Gates act
on halves of the ``(2,)*n`` view of the arrays, and a Pauli word is one
gather by ``idx ^ flip``, one sign from the parity of ``idx & zmask`` and
one rotation by i^(number of Y).
Results come back as one shared ``Fraction(0)`` per zero amplitude, a
``Fraction`` per real amplitude and an :class:`ExactComplex` only where
the imaginary part is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError, NotDiagonalError, ParseError
from .expr import rational, records
from .pbf import (PseudoBoolean, _check_assignment, _coerce, _int_dtype, _numerators, _TermTable,
                  boolean_to_spin, index_of, spin_to_boolean)

#: dense objects (statevectors, diagonals) are capped at 2^16 entries
STATE_CAP = 16
#: widest sum :meth:`PauliSum.to_dense` writes out as a 2^n x 2^n matrix
DENSE_CAP = 12
#: widest matrix :func:`dense_pauli_coefficients` expands, one trace per 4^n words
PAULI_BASIS_CAP = 6
#: bound on the Z-basis expansion: the keys the per-variable pass in
#: :func:`pbkernel.pbf.boolean_to_spin` can hold, min(sum of 2^|M| over the
#: monomials M, 2^n)
EXPANSION_CAP = 1 << 16

PAULI_LETTERS = "IXYZ"

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def _pauli_matrix(word: str) -> np.ndarray:
    """Dense matrix of one Pauli string: the Kronecker product, letter 0 first."""
    m = np.array([[1.0]], dtype=complex)
    for ch in word:
        m = np.kron(m, _PAULI_MATRICES[ch])
    return m


class ExactComplex:
    """Complex number with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re + other, self.im)
        return complex(self) + other

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        return complex(self) * other

    __rmul__ = __mul__

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return complex(self) == other

    def __hash__(self):
        return hash(complex(self)) if self.im else hash(self.re)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


#: the one zero amplitude the constructors and the engine share
_ZERO = Fraction(0)


def _amp_is_zero(value, tol: float = 0.0) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    if isinstance(value, ExactComplex):
        return value.re == 0 and value.im == 0
    return abs(value) <= tol


def _basis_index(x, n: int) -> int:
    """Basis-state index of x, an index in 0..2^n - 1 or an n-bit assignment
    (checked as :meth:`pbkernel.pbf.PseudoBoolean.eval` checks one)."""
    if isinstance(x, int):
        if not 0 <= x < 1 << n:
            raise ValueError(f"basis index {x} outside 0..{(1 << n) - 1}")
        return x
    _check_assignment(x, n)
    return index_of(map(int, x))


class StateVector:
    """Dense 2^n amplitude vector; exact scalars whenever inputs are exact."""

    __slots__ = ("n", "amps")

    def __init__(self, arity: int, amps: Sequence):
        size = self._size(arity)
        if len(amps) != size:
            raise DimensionError(f"need {size} amplitudes, got {len(amps)}")
        self.n = arity
        self.amps = list(amps)

    @staticmethod
    def _size(arity: int) -> int:
        """The 2^arity amplitudes of a statevector, once the arity is within
        the cap; every constructor asks here before it allocates them."""
        if arity < 0 or arity > STATE_CAP:
            raise EnumerationCapError(f"statevector arity {arity} outside 0..{STATE_CAP}")
        return 1 << arity

    @classmethod
    def zeros(cls, arity: int) -> "StateVector":
        return cls(arity, [_ZERO] * cls._size(arity))

    @classmethod
    def basis_state(cls, arity: int, x) -> "StateVector":
        size = cls._size(arity)
        idx = _basis_index(x, arity)
        amps = [_ZERO] * size
        amps[idx] = Fraction(1)
        return cls(arity, amps)

    @classmethod
    def plus_state(cls, arity: int, normalized: bool = False) -> "StateVector":
        """Uniform superposition; integer amplitudes 1 unless normalized.

        The unnormalized version is 2^(n/2) times the unit-norm plus
        state, which keeps the amplitudes exact.
        """
        size = cls._size(arity)
        if normalized:
            return cls(arity, [2.0 ** (-arity / 2)] * size)
        return cls(arity, [Fraction(1)] * size)

    @classmethod
    def ghz_state(cls, arity: int, normalized: bool = False) -> "StateVector":
        """|0..0> + |1..1>, rational amplitudes unless normalized."""
        if arity < 1:
            raise ValueError("GHZ state needs at least one qubit")
        end = 2.0 ** (-1 / 2) if normalized else Fraction(1)
        amps = [end] + [_ZERO] * (cls._size(arity) - 2) + [end]
        return cls(arity, amps)

    def amplitude(self, x) -> object:
        return self.amps[_basis_index(x, self.n)]

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_numpy()))

    def to_numpy(self) -> np.ndarray:
        return np.array([complex(a) for a in self.amps])

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(a is _ZERO or _amp_is_zero(a, tol) for a in self.amps)

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
        return self.n == other.n and all(
            a == b for a, b in zip(self.amps, other.amps)
        )

    def approx_equal(self, other: "StateVector", tol: float = 1e-9) -> bool:
        return self.n == other.n and bool(
            np.allclose(self.to_numpy(), other.to_numpy(), atol=tol)
        )

    def __repr__(self):
        return f"StateVector(n={self.n})"


def _odd_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (entries below 2^STATE_CAP)."""
    for shift in (8, 4, 2, 1):
        x = x ^ (x >> shift)
    return (x & 1).astype(bool)


class _Amplitudes:
    """The statevector engine: amplitude k is (re[k] + i im[k]) / denom.

    Exact vectors hold integer numerators over the LCM of every real and
    imaginary denominator, in the dtype :func:`pbkernel.pbf._int_dtype`
    gives the bound 2 * max(1, max|numerator|) * growth, where ``growth``
    bounds how much the caller's arithmetic can multiply an entry.  A vector
    with any float or complex amplitude holds float64 parts over denom 1.
    Every operation is the same code for all three dtypes.
    """

    __slots__ = ("n", "re", "im", "denom")

    def __init__(self, n: int, re: np.ndarray, im: np.ndarray, denom: int):
        self.n, self.re, self.im, self.denom = n, re, im, denom

    @classmethod
    def of(cls, v: StateVector, growth: int) -> "_Amplitudes":
        """The engine form of v, for arithmetic that multiplies entries by at most growth."""
        nonzero = {}  # index -> (re, im); only these are scaled
        for k, a in enumerate(v.amps):
            if a is _ZERO:
                continue
            if isinstance(a, ExactComplex):
                if a.re or a.im:
                    nonzero[k] = a.re, a.im
            elif isinstance(a, (float, complex)):
                z = np.array([complex(b) for b in v.amps])
                return cls(v.n, z.real.copy(), z.imag.copy(), 1)
            elif a:
                nonzero[k] = a, 0
        nums, denom = _numerators(x for pair in nonzero.values() for x in pair)
        re = np.zeros(1 << v.n, dtype=_int_dtype(2 * max(1, max(map(abs, nums), default=0)) * growth))
        im = re.copy()
        re[list(nonzero)], im[list(nonzero)] = nums[0::2], nums[1::2]
        return cls(v.n, re, im, denom)

    @property
    def exact(self) -> bool:
        return self.re.dtype != np.float64

    def state(self) -> StateVector:
        amps = [_ZERO] * (1 << self.n)
        nz = np.flatnonzero((self.re != 0) | (self.im != 0))
        d, exact = self.denom, self.exact
        for k, r, m in zip(nz.tolist(), self.re[nz].tolist(), self.im[nz].tolist()):
            if not exact:
                amps[k] = complex(r, m) if m else r
            elif m:
                amps[k] = ExactComplex(Fraction(r, d), Fraction(m, d))
            else:
                amps[k] = Fraction(r, d)
        return StateVector(self.n, amps)

    def _halves(self, target: int, control: int | None) -> tuple:
        """Views of (re, im) with the target qubit 0, then with it 1, inside
        the control-1 slab when there is a control; qubit 0 is the first axis."""
        out = []
        for bit in (0, 1):  # slices, not ints, so that even n = 1 gives views
            key = [slice(None)] * self.n
            key[target] = slice(bit, bit + 1)
            if control is not None:
                key[control] = slice(1, 2)
            out.append([a.reshape((2,) * self.n)[tuple(key)] for a in (self.re, self.im)])
        return out

    def gate(self, kind: str, target: int, control: int | None = None) -> None:
        """Apply one Clifford gate in place; H is unnormalized (a + b, a - b)."""
        lo, hi = self._halves(target, control)
        if kind == "h":
            for a, b in zip(lo, hi):
                old = a.copy()
                a += b
                b[...] = old - b
        elif kind == "s":  # times i on the target-1 half
            re, im = hi
            old = re.copy()
            re[...] = -im
            im[...] = old
        elif kind == "z":
            for b in hi:
                b[...] = -b
        else:  # x, or cnot inside its control-1 slab: swap the halves
            for a, b in zip(lo, hi):
                old = a.copy()
                a[...] = b
                b[...] = old

    def pauli_sum(self, words: list, coeffs: list, lcm: int) -> "_Amplitudes":
        """sum_w (coeffs[w] / lcm) P_w applied to this vector, as a new one."""
        idx = np.arange(1 << self.n)
        out_re = np.zeros(idx.size, dtype=self.re.dtype)
        out_im = np.zeros_like(out_re)
        for word, c in zip(words, coeffs):
            flip, zmask = _pauli_masks(word[::-1])  # letter 0 is the most significant bit
            src = idx ^ flip  # (P_w v)[j] = i^#Y (-1)^|src_j & zmask| v[src_j]
            scale = np.where(_odd_parity(src & zmask), -1, 1).astype(out_re.dtype) * c
            t_re, t_im = self.re[src] * scale, self.im[src] * scale
            ny = word.count("Y")
            if ny & 1:  # times i
                t_re, t_im = -t_im, t_re
            if ny & 2:
                out_re -= t_re
                out_im -= t_im
            else:
                out_re += t_re
                out_im += t_im
        return _Amplitudes(self.n, out_re, out_im, self.denom * lcm)


class DiagonalOperator:
    """Diagonal operator with exact rational entries, state-indexed."""

    __slots__ = ("n", "diag")

    def __init__(self, arity: int, diag: Sequence):
        if arity < 0 or arity > STATE_CAP:
            raise EnumerationCapError(f"diagonal arity {arity} outside 0..{STATE_CAP}")
        if len(diag) != 1 << arity:
            raise DimensionError(f"need {1 << arity} entries, got {len(diag)}")
        self.n = arity
        self.diag = [_coerce(v) for v in diag]

    def apply(self, v: StateVector) -> StateVector:
        if v.n != self.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {v.n}")
        return StateVector(self.n, [d * a for d, a in zip(self.diag, v.amps)])

    def kernel_indices(self) -> list:
        return [i for i, d in enumerate(self.diag) if d == 0]

    def __eq__(self, other):
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        return self.n == other.n and self.diag == other.diag

    def __repr__(self):
        return f"DiagonalOperator(n={self.n})"


def _embedded_table(f: PseudoBoolean, cap: int, what: str) -> list:
    """f's value table for an embedding; a cap above ``STATE_CAP`` counts as
    ``STATE_CAP``, so the check comes before the 2^n table exists."""
    cap = min(cap, STATE_CAP)
    if f.n > cap:
        raise EnumerationCapError(f"{what} embedding at arity {f.n} exceeds cap {cap}")
    return f.to_disjoint_form(cap=cap)


def embed_diagonal(f: PseudoBoolean, cap: int = STATE_CAP) -> DiagonalOperator:
    """H_f with <x|H_f|x> = f(x)."""
    return DiagonalOperator(f.n, _embedded_table(f, cap, "diagonal"))


def embed_state(f: PseudoBoolean, cap: int = STATE_CAP) -> StateVector:
    """The unnormalized state with amplitude f(x) on |x>."""
    return StateVector(f.n, _embedded_table(f, cap, "state"))


class PauliSum(_TermTable):
    """Hermitian sum of Pauli strings with exact rational coefficients."""

    __slots__ = ()

    def __init__(self, arity: int, terms: Mapping[str, object] | None = None):
        self.n = int(arity)
        data = {}
        if terms:
            for letters, coeff in terms.items():
                word = "".join(letters)
                if len(word) != self.n or any(ch not in PAULI_LETTERS for ch in word):
                    raise ValueError(f"bad Pauli word {word!r} for {self.n} qubits")
                c = _coerce(coeff)
                if c:
                    data[word] = c
        self._terms = data

    @classmethod
    def identity(cls, arity: int, coeff=1) -> "PauliSum":
        return cls(arity, {"I" * arity: coeff})

    def terms(self) -> list:
        """Sorted list of (letters, coefficient) pairs."""
        return sorted(self._terms.items())

    def coefficient(self, letters: str) -> Fraction:
        return self._terms.get("".join(letters), Fraction(0))

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
        a +-1 / +-i phase per basis state, run on :class:`_Amplitudes`.

        The coefficients become integer numerators over their LCM, and
        each output entry is a sum of those numerators times +-1 / +-i
        times one input numerator, which bounds the int64 check.
        """
        if v.n != self.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {v.n}")
        coeffs, lcm = _numerators(self._terms.values())
        amps = _Amplitudes.of(v, sum(map(abs, coeffs)))
        if not amps.exact:
            coeffs, lcm = [float(c) for c in self._terms.values()], 1
        return amps.pauli_sum(list(self._terms), coeffs, lcm).state()

    def to_dense(self) -> np.ndarray:
        """Dense complex matrix; desk-scale only."""
        if self.n > DENSE_CAP:
            raise EnumerationCapError(f"dense matrix at arity {self.n} is over cap {DENSE_CAP}")
        size = 1 << self.n
        out = np.zeros((size, size), dtype=complex)
        for word, coeff in self._terms.items():
            out += float(coeff) * _pauli_matrix(word)
        return out

    def to_text(self) -> str:
        """One term per line, '<coeff> <letters>', sorted by letters."""
        return "\n".join(f"{c} {w}" for w, c in self.terms())

    @classmethod
    def from_text(cls, text: str, arity: int | None = None) -> "PauliSum":
        terms: dict = {}
        n = arity
        for lineno, parts in records(text):
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<coeff> <letters>'")
            coeff, word = rational(parts[0], lineno), parts[1]
            if n is None:
                n = len(word)
            if len(word) != n or any(ch not in PAULI_LETTERS for ch in word):
                raise ParseError(f"line {lineno}: bad Pauli word {word!r}")
            terms[word] = terms.get(word, Fraction(0)) + coeff
        if n is None:
            raise ParseError("no terms found")
        return cls(n, terms)


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
    spin = boolean_to_spin(f)._terms
    return PauliSum._of(f.n, {_pauli_word(0, zmask, f.n): c for zmask, c in spin.items()})


def pauli_to_pbf(h: PauliSum) -> PseudoBoolean:
    """Exact inverse of :func:`pbf_to_pauli`; rejects X/Y letters."""
    if not h.is_diagonal():
        raise NotDiagonalError("operator has X or Y letters; not diagonal")
    spin = {_pauli_masks(word)[1]: c for word, c in h._terms.items()}
    return spin_to_boolean(PseudoBoolean(h.n, spin))


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
    spin, n = boolean_to_spin(f)._terms, f.n
    fields = tuple(spin.get(1 << l, Fraction(0)) for l in range(n))
    pairs = [(l, k) for l in range(n) for k in range(l + 1, n) if 1 << l | 1 << k in spin]
    couplings = {(l, k): spin[1 << l | 1 << k] for l, k in pairs}
    return IsingForm(spin.get(0, Fraction(0)), fields, couplings)


def dense_pauli_coefficients(mat: np.ndarray, tol: float = 1e-12) -> dict:
    """Pauli-basis coefficients of a dense Hermitian matrix.

    Brute-force trace inner products over all 4^n strings; intended for
    small n (the trivial-construction cardinality measurements).
    """
    size = mat.shape[0]
    n = size.bit_length() - 1
    if 1 << n != size or mat.shape != (size, size):
        raise DimensionError(f"matrix shape {mat.shape} is not square 2^n")
    if n > PAULI_BASIS_CAP:
        raise EnumerationCapError(f"4^{n} trace inner products is over cap 4^{PAULI_BASIS_CAP}")
    coeffs = {}
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in PAULI_LETTERS]
    for word in words:
        c = np.trace(_pauli_matrix(word) @ mat) / size
        if abs(c) > tol:
            coeffs[word] = complex(c)
    return coeffs
