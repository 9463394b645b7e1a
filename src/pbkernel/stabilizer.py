"""Clifford circuits, symplectic Pauli conjugation, projector parents.

A Pauli string is carried through a Clifford circuit in the binary
symplectic representation: an x bit-vector, a z bit-vector (bit i acts
on qubit i) and a tracked sign.  Conjugating the Hermitian string U P U+
gate by gate uses the standard tableau update rules, so circuits of any
width are handled without dense objects.

The projector-parent construction sums the conjugated one-spin
projectors U |1><1|_l U+ = (I - U Z_l U+)/2; the resulting operator is a
commuting Pauli sum annihilating U|0...0>, and the dimension of its
kernel is certified from the symplectic rank of the conjugated
generators (with sign consistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError, ParseError
from .expr import records
from .pauli import PauliSum, StateVector, _gate, _pauli_masks, _pauli_word
from .pbf import _accumulate

GATE_KINDS = ("h", "s", "x", "z", "cnot")

#: symbolic circuit width limit (monomial masks elsewhere are 64-bit)
MAX_QUBITS = 64
#: widest state whose dense projector :func:`trivial_parent` builds (4^n entries)
PROJECTOR_CAP = 10

@dataclass(frozen=True)
class CliffordGate:
    kind: str
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.kind == "cnot") != (self.control is not None):
            raise ValueError("cnot takes a control; single-qubit gates do not")
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must differ")


def h(q: int) -> CliffordGate:
    return CliffordGate("h", q)


def s(q: int) -> CliffordGate:
    return CliffordGate("s", q)


def x(q: int) -> CliffordGate:
    return CliffordGate("x", q)


def z(q: int) -> CliffordGate:
    return CliffordGate("z", q)


def cnot(control: int, target: int) -> CliffordGate:
    return CliffordGate("cnot", target, control)


@dataclass(frozen=True)
class CliffordCircuit:
    """Gate list applied left to right: the circuit unitary is g_m ... g_1."""

    n: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"circuit width must be 1..{MAX_QUBITS}, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            indices = (g.target,) if g.control is None else (g.target, g.control)
            for q in indices:
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {g} out of range for {self.n} qubits")

    def followed_by(self, other: "CliffordCircuit") -> "CliffordCircuit":
        """Run self, then other (unitary U_other * U_self)."""
        if self.n != other.n:
            raise DimensionError(f"width mismatch: {self.n} vs {other.n}")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        for g in self.gates:
            if g.kind == "cnot":
                lines.append(f"cnot {g.control + 1} {g.target + 1}")
            else:
                lines.append(f"{g.kind} {g.target + 1}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "CliffordCircuit":
        """Parse the 1-based text format ('qubits n' header, one gate per line).

        Diagnostics name the line and the index as written in the file.
        """
        n = None
        gates = []

        def number(token: str, what: str, high: int) -> int:
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"line {lineno}: bad {what} {token!r}") from None
            if not 1 <= value <= high:
                raise ParseError(f"line {lineno}: {what} {value} out of range 1..{high}")
            return value

        for lineno, parts in records(text.lower()):
            if parts[0] == "qubits":
                if n is not None or len(parts) != 2:
                    raise ParseError(f"line {lineno}: bad or repeated 'qubits' header")
                n = number(parts[1], "qubit count", MAX_QUBITS)
                continue
            if n is None:
                raise ParseError(f"line {lineno}: 'qubits n' header must come first")
            if parts[0] == "cnot":
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: cnot takes two indices")
                control, target = (number(t, "qubit index", n) - 1 for t in parts[1:])
                if control == target:
                    raise ParseError(f"line {lineno}: cnot control and target must differ")
                gates.append(cnot(control, target))
            elif parts[0] in GATE_KINDS:
                if len(parts) != 2:
                    raise ParseError(f"line {lineno}: {parts[0]} takes one index")
                gates.append(CliffordGate(parts[0], number(parts[1], "qubit index", n) - 1))
            else:
                raise ParseError(f"line {lineno}: unknown gate {parts[0]!r}")
        if n is None:
            raise ParseError("missing 'qubits n' header")
        return cls(n, tuple(gates))


@dataclass(frozen=True)
class SymplecticPauli:
    """Hermitian Pauli string as (x bits, z bits, sign); bit i = qubit i."""

    n: int
    x: int = 0
    z: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.x >> self.n or self.z >> self.n or self.x < 0 or self.z < 0:
            raise ValueError("x/z bits exceed the qubit count")

    @classmethod
    def from_letters(cls, letters: str, sign: int = 1) -> "SymplecticPauli":
        return cls(len(letters), *_pauli_masks(letters), sign)

    def letters(self) -> str:
        return _pauli_word(self.x, self.z, self.n)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def commutes(self, other: "SymplecticPauli") -> bool:
        if self.n != other.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __mul__(self, other: "SymplecticPauli") -> "SymplecticPauli":
        """Exact product; defined for commuting pairs (real sign)."""
        if self.n != other.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {other.n}")
        # with P(x, z) = i^(x.z) X^x Z^z (so Y = iXZ), moving Z^z1 past X^x2 gives
        # (-1)^(z1.x2), and X^x Z^z = i^(-x.z) P(x, z) re-forms the product's letters
        phase = (
            (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            + 2 * (self.z & other.x).bit_count()
            - ((self.x ^ other.x) & (self.z ^ other.z)).bit_count()
        ) & 3
        if phase & 1:
            raise ValueError("product of anticommuting strings has imaginary phase")
        sign = self.sign * other.sign * (1 if phase == 0 else -1)
        return SymplecticPauli(self.n, self.x ^ other.x, self.z ^ other.z, sign)


def _conjugate_gate(gate: CliffordGate, xbits: int, zbits: int, sign: int):
    t = 1 << gate.target
    if gate.kind == "h":
        if xbits & zbits & t:
            sign = -sign
        xt, zt = xbits & t, zbits & t
        xbits = (xbits & ~t) | zt
        zbits = (zbits & ~t) | xt
    elif gate.kind == "s":
        if xbits & zbits & t:
            sign = -sign
        zbits ^= xbits & t
    elif gate.kind == "x":
        if zbits & t:
            sign = -sign
    elif gate.kind == "z":
        if xbits & t:
            sign = -sign
    else:  # cnot
        c = 1 << gate.control
        xc, zc = bool(xbits & c), bool(zbits & c)
        xt, zt = bool(xbits & t), bool(zbits & t)
        if xc and zt and (xt == zc):
            sign = -sign
        if xc:
            xbits ^= t
        if zt:
            zbits ^= c
    return xbits, zbits, sign


def conjugate(circuit: CliffordCircuit, p: SymplecticPauli) -> SymplecticPauli:
    """U p U+ for the circuit unitary U, with exact sign tracking."""
    if circuit.n != p.n:
        raise DimensionError(f"arity mismatch: circuit {circuit.n} vs Pauli {p.n}")
    xbits, zbits, sign = p.x, p.z, p.sign
    for gate in circuit.gates:
        xbits, zbits, sign = _conjugate_gate(gate, xbits, zbits, sign)
    return SymplecticPauli(p.n, xbits, zbits, sign)


def conjugate_sum(circuit: CliffordCircuit, hsum: PauliSum) -> PauliSum:
    """Termwise conjugation of a Pauli sum, signs folded into coefficients."""
    if circuit.n != hsum.n:
        raise DimensionError(f"arity mismatch: circuit {circuit.n} vs sum {hsum.n}")
    images = ((conjugate(circuit, SymplecticPauli.from_letters(w)), c) for w, c in sorted(hsum._terms.items()))
    return PauliSum._of(circuit.n, _accumulate({}, ((q.letters(), q.sign * c) for q, c in images)), hsum._den)


def conjugated_generators(circuit: CliffordCircuit) -> list:
    """The images U Z_l U+ of the single-qubit Z generators."""
    return [
        conjugate(circuit, SymplecticPauli(circuit.n, 0, 1 << l))
        for l in range(circuit.n)
    ]


def projector_parent(circuit: CliffordCircuit) -> PauliSum:
    """Sum of conjugated projectors: sum_l (I - U Z_l U+) / 2.

    The n conjugated generators commute pairwise, the spectrum is
    {0, 1, .., n}, and U|0..0> spans the kernel when the generators are
    independent.
    """
    n = circuit.n
    pairs = [("I" * n, n)] + [(p.letters(), -p.sign) for p in conjugated_generators(circuit)]
    return PauliSum._of(n, _accumulate({}, pairs), 2)


def ghz_circuit(n: int) -> CliffordCircuit:
    """Hadamard on qubit 0 followed by the CNOT ladder 0->1->...->n-1."""
    if n < 2:
        raise ValueError(f"GHZ circuit needs n > 1, got {n}")
    gates = [h(0)] + [cnot(j, j + 1) for j in range(n - 1)]
    return CliffordCircuit(n, tuple(gates))


def kernel_dimension(generators: Sequence[SymplecticPauli]) -> int:
    """Dimension of the joint +1 eigenspace of commuting signed Paulis.

    Gaussian elimination over GF(2) with exact sign bookkeeping: a
    dependency that multiplies to -identity forces an empty kernel; each
    independent generator halves the space.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise DimensionError("generators act on different qubit counts")
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1:]:
            if not g1.commutes(g2):
                raise ValueError(f"generators {g1.letters()} and {g2.letters()} anticommute")
    pivots: dict = {}
    for g in gens:
        p = g
        while True:
            v = (p.x << n) | p.z
            if v == 0:
                if p.sign == -1:
                    return 0  # group contains -identity
                break
            lead = v.bit_length() - 1
            if lead in pivots:
                p = p * pivots[lead]
            else:
                pivots[lead] = p
                break
    return 1 << (n - len(pivots))


def apply_circuit(circuit: CliffordCircuit, v: StateVector) -> StateVector:
    """Exact gate-by-gate statevector application.

    Hadamards are applied unnormalized (|0> -> |0> + |1>), so the result
    equals 2^(k/2) U|v> with k the number of H gates; kernel membership
    and eigenvalue checks are scale-invariant, and amplitudes stay
    rational.  S gates introduce exact factors of i.

    The gates run on a widened copy of the state's arrays (see
    :mod:`pbkernel.pauli`): integer (re, im) numerators over one
    denominator, each gate one slice operation on the ``(2,)*n`` view
    (qubit 0 is the first axis, the most significant index bit).  Only H
    grows entries, by at most a factor 2, so 2^k is the growth bound the
    copy's dtype rule is given.  A float state runs the same gates on its
    float64 arrays.
    """
    if circuit.n != v.n:
        raise DimensionError(f"arity mismatch: circuit {circuit.n} vs state {v.n}")
    parts = v._widened(1 << sum(g.kind == "h" for g in circuit.gates))
    for g in circuit.gates:
        _gate(parts, v.n, g.kind, g.target, g.control)
    return StateVector._of(v.n, *parts, v.denom)


def trivial_parent(v: StateVector, tol: float = 1e-9) -> np.ndarray:
    """The rank-one complement I - |v><v| as a dense Hermitian matrix.

    Requires a normalized input; the result G satisfies G v = 0 and
    G^2 = G, but its Pauli expansion generally has exponentially many
    terms, which is the point of measuring it.
    """
    if v.n > PROJECTOR_CAP:
        raise EnumerationCapError(f"dense projector at arity {v.n} is over cap {PROJECTOR_CAP}")
    vec = v.to_numpy()
    if abs(np.linalg.norm(vec) - 1.0) > tol:
        raise ValueError(f"state norm {np.linalg.norm(vec):.6f} is not 1")
    return np.eye(len(vec), dtype=complex) - np.outer(vec, vec.conj())
