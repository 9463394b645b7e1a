"""Shared independent oracles for the test suite.

Everything here recomputes expected values through a different route
than the library code under test: naive term-by-term evaluation, the
per-point Fraction cube scans the library used before its exact integer
engine, dense numpy matrices built from hard-coded gate definitions, a
brute-force CNF solution scanner, and an exact minimal-face feasibility
decider.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pbkernel import PseudoBoolean


def assignments(n):
    """All length-n bit tuples in basis-state order (variable 0 first)."""
    return list(product((0, 1), repeat=n))


def naive_eval(pairs, x):
    """Term-by-term evaluation over (variable tuple, coefficient) pairs."""
    total = Fraction(0)
    for vars_, coeff in pairs:
        prod = Fraction(coeff)
        for i in vars_:
            prod *= x[i]
        total += prod
    return total


def random_pbf(rng: random.Random, n: int, max_terms: int = 8, max_degree: int | None = None,
               lo: int = -4, hi: int = 4) -> PseudoBoolean:
    """Random sparse integer-coefficient polynomial."""
    max_degree = n if max_degree is None else min(max_degree, n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, max_degree)
        vars_ = tuple(sorted(rng.sample(range(n), size)))
        coeff = rng.choice([c for c in range(lo, hi + 1) if c != 0])
        terms[vars_] = terms.get(vars_, 0) + coeff
    return PseudoBoolean.from_terms(n, terms)


def random_nonneg_pbf(rng: random.Random, n: int, max_terms: int = 4) -> PseudoBoolean:
    """Square of a small random polynomial: non-negative, stays sparse."""
    g = random_pbf(rng, n, max_terms=max_terms, lo=-2, hi=2)
    return g * g


# -- per-point Fraction cube scans (reference for the integer engine) ------

def _bits_of_varmask(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


def _varmask_to_state(mask, n):
    idx = 0
    for i in range(n):
        if mask & (1 << i):
            idx |= 1 << (n - 1 - i)
    return idx


def ref_value_table(f):
    """Values indexed by varmask (bit i = variable i): Fraction zeta loop."""
    size = 1 << f.n
    vals = [Fraction(0)] * size
    for mask, c in f.masked_terms().items():
        vals[mask] = c
    for i in range(f.n):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                vals[mask] += vals[mask ^ bit]
    return vals


def ref_to_disjoint_form(f):
    vals = ref_value_table(f)
    out = [Fraction(0)] * (1 << f.n)
    for mask, v in enumerate(vals):
        out[_varmask_to_state(mask, f.n)] = v
    return out


def ref_from_disjoint_form(table):
    """Moebius inversion of a state-order table, one Fraction at a time."""
    size = len(table)
    n = size.bit_length() - 1
    vals = [Fraction(0)] * size
    for idx in range(size):
        vals[_varmask_to_state(idx, n)] = Fraction(table[idx])
    for i in range(n):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                vals[mask] -= vals[mask ^ bit]
    return PseudoBoolean(n, {mask: c for mask, c in enumerate(vals) if c != 0})


def ref_kernel(f):
    return {_bits_of_varmask(m, f.n) for m, v in enumerate(ref_value_table(f)) if v == 0}


def ref_nonnegative(f):
    """(ok, witness): the first negative point in varmask order."""
    for mask, v in enumerate(ref_value_table(f)):
        if v < 0:
            return False, _bits_of_varmask(mask, f.n)
    return True, None


def ref_symmetry(f):
    """(profile values, witness pair) from one pass in varmask order."""
    seen = {}
    for mask, v in enumerate(ref_value_table(f)):
        w = mask.bit_count()
        if w not in seen:
            seen[w] = (v, _bits_of_varmask(mask, f.n))
        elif seen[w][0] != v:
            return None, (seen[w][1], _bits_of_varmask(mask, f.n))
    return tuple(seen[w][0] for w in range(f.n + 1)), None


def ref_minimize(f):
    table = ref_to_disjoint_form(f)
    best = min(table)
    points = assignments(f.n)
    return best, frozenset(points[i] for i, v in enumerate(table) if v == best)


def ref_energy(real, bits):
    """Z-basis energy of a feasible realization, spin by spin."""
    zs = [1 - 2 * b for b in bits]
    total = real.constant
    for l, h in enumerate(real.fields):
        total += h * zs[l]
    for (l, k), j in real.couplings.items():
        total += j * zs[l] * zs[k]
    return total


def ref_margin_check(real, target):
    """QuadraticRealization.verify by per-string energy evaluation."""
    for bits in assignments(real.n):
        e = ref_energy(real, bits)
        if bits in target:
            if e != 0:
                return False
        elif e < 1:
            return False
    return True


# -- dense quantum oracles (own hard-coded matrices) ------------------------

PAULI_NP = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

H_NP = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_NP = np.array([[1, 0], [0, 1j]], dtype=complex)


def dense_word(word: str) -> np.ndarray:
    m = np.array([[1.0]], dtype=complex)
    for ch in word:
        m = np.kron(m, PAULI_NP[ch])
    return m


def dense_pauli_sum(psum) -> np.ndarray:
    size = 1 << psum.n
    out = np.zeros((size, size), dtype=complex)
    for word, coeff in psum.terms():
        out += float(coeff) * dense_word(word)
    return out


def _embed_single(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for i in range(n):
        out = np.kron(out, mat if i == qubit else PAULI_NP["I"])
    return out


def dense_gate(gate, n: int) -> np.ndarray:
    """Unitary of one gate; qubit i sits at the i-th kron slot (MSB first)."""
    if gate.kind == "h":
        return _embed_single(H_NP, gate.target, n)
    if gate.kind == "s":
        return _embed_single(S_NP, gate.target, n)
    if gate.kind == "x":
        return _embed_single(PAULI_NP["X"], gate.target, n)
    if gate.kind == "z":
        return _embed_single(PAULI_NP["Z"], gate.target, n)
    size = 1 << n
    out = np.zeros((size, size), dtype=complex)
    cbit = 1 << (n - 1 - gate.control)
    tbit = 1 << (n - 1 - gate.target)
    for idx in range(size):
        j = idx ^ tbit if idx & cbit else idx
        out[j, idx] = 1.0
    return out


def dense_circuit(circuit) -> np.ndarray:
    u = np.eye(1 << circuit.n, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate(gate, circuit.n) @ u
    return u


def random_clifford_circuit(rng: random.Random, n: int, num_gates: int = 12):
    from pbkernel import CliffordCircuit, CliffordGate

    gates = []
    for _ in range(num_gates):
        kind = rng.choice(["h", "s", "x", "z", "cnot"] if n > 1 else ["h", "s", "x", "z"])
        if kind == "cnot":
            c, t = rng.sample(range(n), 2)
            gates.append(CliffordGate("cnot", t, c))
        else:
            gates.append(CliffordGate(kind, rng.randrange(n)))
    return CliffordCircuit(n, tuple(gates))


# -- Boolean / CNF oracle ----------------------------------------------------

def cnf_solutions(clauses, n) -> set:
    """All satisfying assignments by direct clause checking."""
    sols = set()
    for bits in assignments(n):
        ok = True
        for cl in clauses:
            if not any(
                (bits[abs(l) - 1] == 1) if l > 0 else (bits[abs(l) - 1] == 0)
                for l in cl
            ):
                ok = False
                break
        if ok:
            sols.add(bits)
    return sols


# -- exact feasibility by minimal-face enumeration ---------------------------

def _gauss_particular(rows, num_vars):
    """Particular exact solution of a stack of equality rows, or None."""
    m = [[Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(num_vars):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if all(v == 0 for v in m[i][:num_vars]) and m[i][num_vars] != 0:
            return None
    x = [Fraction(0)] * num_vars
    for i, col in enumerate(pivot_cols):
        x[col] = m[i][num_vars]
    return x


def face_enumeration_optimum(eqs, geqs, num_vars, objective, sense="min"):
    """Optimal value of a BOUNDED LP over free variables, or None if the
    system is infeasible.  The optimum of a bounded LP is attained on a
    face whose minimal faces attain the same value, and every minimal
    face is an active-set equality system, so scanning the particular
    solutions of all subset systems and keeping the best feasible
    objective is complete."""
    from itertools import combinations

    geq_list = list(geqs)
    best = None
    for k in range(len(geq_list) + 1):
        for subset in combinations(range(len(geq_list)), k):
            rows = list(eqs) + [geq_list[i] for i in subset]
            x = _gauss_particular(rows, num_vars)
            if x is None:
                continue
            if not all(
                sum(Fraction(c) * v for c, v in zip(coeffs, x)) >= rhs
                for coeffs, rhs in geq_list
            ):
                continue
            val = sum(Fraction(c) * v for c, v in zip(objective, x))
            if best is None:
                best = val
            elif sense == "min":
                best = min(best, val)
            else:
                best = max(best, val)
    return best


def face_enumeration_feasible(eqs, geqs, num_vars) -> bool:
    """Decide {x free : eq rows = rhs, geq rows >= rhs} exactly.

    A nonempty polyhedron has a minimal face, and every minimal face is
    the full solution set of the equality system formed by its active
    rows.  Enumerating subsets of the inequality rows, solving each
    equality system exactly, and testing the particular solution is
    therefore a complete decision procedure (independent of any LP
    pivoting).  Exponential in len(geqs): tiny instances only.
    """
    from itertools import combinations

    geq_list = list(geqs)
    for k in range(len(geq_list) + 1):
        for subset in combinations(range(len(geq_list)), k):
            rows = list(eqs) + [geq_list[i] for i in subset]
            x = _gauss_particular(rows, num_vars)
            if x is None:
                continue
            if all(
                sum(Fraction(c) * v for c, v in zip(coeffs, x)) >= rhs
                for coeffs, rhs in geq_list
            ):
                return True
    return False


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
