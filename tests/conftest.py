"""Shared independent oracles for the test suite.

Everything here recomputes expected values through a different route
than the library code under test: naive term-by-term evaluation, the
per-point Fraction cube scans the library used before its exact integer
engine, the per-entry table reader and Fraction minimum scan the library
used before it read each distinct value once, the ``np.unique`` value-table
writer and per-bit assignment tuples it used before its lookup tables, the
dense Fraction simplex tableau the library used before its fraction-free
integer tableau and the
Bareiss integer tableau it used before its primitive rows, the
list-built tableau constructor it used before its numpy one, the
``LPInstance`` constructor that coerced every entry to a ``Fraction``
before it built its integer rows without them, the ``spin_to_boolean``
plus zeta margin check it used before its Walsh-Hadamard pass, the
per-index gate and Pauli-term loops the library used before its integer
statevector engine, the per-variable and per-word Boolean/spin/Pauli-Z
conversions the library used before its one subset expansion, the
per-monomial subset expansion it used before its per-variable integer
pass, the 2^n value table and Moebius round trip of ``profile_to_pbf``
before its per-size differences, the Fraction re-checks of LP answers
and the per-point margin-row features the library used before its
integer LP rows and feature matrix, the realizability target loop, LP
build call, tableau constructor and Fraction certificate build it used
before its one target read and per-n cube features, the
term-by-term expression parser the library used before its one-pass
parse, and its tokenizer and one-pass parser before flat-term operands,
the hand-written add-and-drop-zero loops the library used before
its one term-table rule and that rule before an absent key took its
coefficient as given (the per-generator sum of the projector parent
among them), the ``parent clifford --verify`` command that conjugated
the generators again instead of reading them off the parent, the
per-qubit phase table of the Pauli product before its popcount rule,
the three scale * prod (X - r) expansion loops
``symmetric`` used before its one helper, the Fraction rational-root
search ``symmetric`` used before its one integer polynomial, the
Stirling back-substitution of ``canonical_to_power`` before its
falling-factorial rows, the ``parent support`` command that built the
2^n statevector of a state file and scanned it back for its support,
dense numpy
matrices built from hard-coded gate definitions, a brute-force CNF
solution scanner, an exact minimal-face feasibility decider, the
Kronecker-product builders of ``PauliSum.to_dense`` and
``dense_pauli_coefficients`` the library used before it read each Pauli
word as one gather, and the per-bit loop of ``one_body_kernel`` before
its assignment tuples came from the one tuple writer.

It also holds the views of the library's LP that only tests read: the
primitive rows of its integer tableau and its integer re-checks on
points and duals given as values.
"""

from __future__ import annotations

import math
import operator
import random
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pbkernel import PauliSum, PseudoBoolean, expr, gadgets, ising_kernel, stabilizer
from pbkernel.errors import DimensionError, NetlistError, ParseError
from pbkernel.ising_kernel import _check_duals_ints, _check_point_ints, _top
from pbkernel.pbf import _accumulate, _int_dtype, _numerators, _point_indices, _scaled, _swap_order


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


def ref_numerators(values):
    """``pbf._numerators`` before it grouped entries by object: every entry
    coerced and its numerator and denominator read once per entry."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    denom = math.lcm(*{v.denominator for v in values})
    if denom == 1:
        return [v.numerator for v in values], denom
    return [v.numerator * (denom // v.denominator) for v in values], denom


def ref_shared_fractions(nums, denom):
    """``pbf._shared_fractions`` before its range table and its dict for
    Python ints: a dict up to 2^8 entries, and above that one ``np.unique``
    and one gather, whatever the dtype and span."""
    if nums.size <= 1 << 8:
        values = nums.tolist()
        shared = {v: Fraction(v, denom) for v in set(values)}
        return list(map(shared.__getitem__, values))
    distinct, inverse = np.unique(nums, return_inverse=True)
    shared = np.array([Fraction(v, denom) for v in distinct.tolist()], dtype=object)
    return shared[inverse].tolist()


def ref_assignments(masks, n):
    """``pbf._assignments`` before its 8-bit chunk tables: one shift and mask
    per variable, then one tuple per row."""
    return list(map(tuple, ((masks[:, None] >> np.arange(n)) & 1).tolist()))


def ref_profile_to_pbf(p):
    """``symmetric.profile_to_pbf`` before its per-size differences: a 2^n
    value table by ``bit_count``, Moebius-inverted by ``from_disjoint_form``."""
    table = [p.values[idx.bit_count()] for idx in range(1 << p.n)]
    return PseudoBoolean.from_disjoint_form(table)


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
    """min() and an == scan over the reference Fraction table."""
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


# -- per-index statevector loops (the library's code before its engine) ------

def ref_mul_i_power(value, k: int):
    """value * i**k, staying exact for Fraction / ExactComplex inputs."""
    from pbkernel import ExactComplex

    k &= 3
    if k == 0:
        return value
    if isinstance(value, (complex, float)):
        return value * (1j**k)
    if k == 2:
        return -value
    if isinstance(value, ExactComplex):
        re, im = value.re, value.im
    else:
        re, im = value, Fraction(0)
    if k == 1:
        return ExactComplex(-im, re)
    return ExactComplex(im, -re)


def ref_apply_circuit(circuit, v):
    """Gate-by-gate application, one amplitude at a time (H unnormalized)."""
    from pbkernel import StateVector

    n = circuit.n
    amps = list(v.amps)
    size = 1 << n
    for gate in circuit.gates:
        t = 1 << (n - 1 - gate.target)
        if gate.kind == "h":
            for idx in range(size):
                if not idx & t:
                    a, b = amps[idx], amps[idx | t]
                    amps[idx], amps[idx | t] = a + b, a - b
        elif gate.kind == "s":
            for idx in range(size):
                if idx & t:
                    amps[idx] = ref_mul_i_power(amps[idx], 1)
        elif gate.kind == "x":
            for idx in range(size):
                if not idx & t:
                    amps[idx], amps[idx | t] = amps[idx | t], amps[idx]
        elif gate.kind == "z":
            for idx in range(size):
                if idx & t:
                    amps[idx] = -amps[idx]
        else:  # cnot
            c = 1 << (n - 1 - gate.control)
            for idx in range(size):
                if idx & c and not idx & t:
                    amps[idx], amps[idx | t] = amps[idx | t], amps[idx]
    return StateVector(n, amps)


def ref_pauli_apply(psum, v):
    """Pauli-sum action term by term, one amplitude at a time."""
    from pbkernel import StateVector

    n = psum.n
    out = [Fraction(0)] * (1 << n)
    for word, coeff in psum.terms():
        flip = zmask = y_count = 0
        for i, ch in enumerate(word):
            bit = 1 << (n - 1 - i)
            if ch in "XY":
                flip |= bit
            if ch in "ZY":
                zmask |= bit
            if ch == "Y":
                y_count += 1
        for idx, amp in enumerate(v.amps):
            if ref_amp_is_zero(amp):
                continue
            k = (y_count + 2 * (idx & zmask).bit_count()) & 3
            out[idx ^ flip] = out[idx ^ flip] + ref_mul_i_power(coeff * amp, k)
    return StateVector(n, out)


# -- list-form statevectors and diagonals (the library's code before one exact table)

def ref_amp_is_zero(value, tol: float = 0.0) -> bool:
    """One amplitude's zero test: exact for Fractions and ExactComplex values,
    |value| <= tol for floats and complexes."""
    from pbkernel import ExactComplex

    if isinstance(value, (int, Fraction)):
        return value == 0
    if isinstance(value, ExactComplex):
        return value.re == 0 and value.im == 0
    return abs(value) <= tol


def ref_amps(values) -> list:
    """The amplitudes a statevector built from ``values`` reads back: the shared
    zero for each zero, a Fraction where the imaginary part is zero and an
    ExactComplex elsewhere; once any entry is a float or complex, each entry's
    complex(), as a float where its imaginary part is zero."""
    from pbkernel import ExactComplex
    from pbkernel.pauli import _ZERO

    out = []
    inexact = any(isinstance(a, (float, complex, np.floating, np.complexfloating)) for a in values)
    for a in values:
        if inexact:
            z = complex(a)
            out.append(_ZERO if z == 0 else z if z.imag else z.real)
            continue
        if isinstance(a, ExactComplex):
            re, im = a.re, a.im
        else:
            re, im = Fraction(int(a) if isinstance(a, np.integer) else a), 0
        out.append(_ZERO if re == im == 0 else ExactComplex(re, im) if im else Fraction(re))
    return out


def ref_state_eq(u, v) -> bool:
    return u.n == v.n and all(a == b for a, b in zip(u.amps, v.amps))


def ref_is_zero(v, tol: float = 0.0) -> bool:
    return all(ref_amp_is_zero(a, tol) for a in v.amps)


def ref_to_numpy(values) -> np.ndarray:
    return np.array([complex(a) for a in values])


def ref_support(v, tol: float = 1e-12):
    """gadgets.support as one zero test per amplitude."""
    from pbkernel.pbf import bits_of

    return gadgets.SupportSet(v.n, frozenset(
        bits_of(idx, v.n) for idx, amp in enumerate(v.amps) if not ref_amp_is_zero(amp, tol)))


def ref_diag(values) -> list:
    """A diagonal's entries as the list-form operator held them."""
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values]


def ref_diagonal_apply(diag, v):
    """A diagonal's action, one product per entry."""
    from pbkernel import StateVector

    return StateVector(v.n, [d * a for d, a in zip(diag, v.amps)])


def ref_kernel_indices(diag) -> list:
    return [i for i, d in enumerate(diag) if d == 0]


# -- Boolean / spin / Pauli-Z conversions (the library's code before one expansion)

def ref_substitute_affine(f, alpha, beta):
    """Replace every variable v by (alpha + beta * v'), one variable at a time."""
    terms: dict = {}
    for mask, c in f.masked_terms().items():
        expansion = {0: c}
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            nxt: dict = {}
            for sub, coeff in expansion.items():
                a = coeff * alpha
                if a:
                    nxt[sub] = nxt.get(sub, Fraction(0)) + a
                b = coeff * beta
                if b:
                    nxt[sub | (1 << i)] = nxt.get(sub | (1 << i), Fraction(0)) + b
            expansion = nxt
        for sub, coeff in expansion.items():
            s = terms.get(sub, Fraction(0)) + coeff
            if s:
                terms[sub] = s
            else:
                terms.pop(sub, None)
    return PseudoBoolean(f.n, terms)


def ref_subset_substitute_affine(f, alpha, beta):
    """``pbf._substitute_affine`` before its per-variable integer pass: the
    monomial c * v_M becomes the sum over subsets T of M of
    c * alpha^(|M|-|T|) * beta^|T| * v'_T, one dict update per subset."""
    terms: dict = {}
    ratio = beta / alpha
    for mask, c in f.masked_terms().items():
        ladder = [c * alpha ** mask.bit_count()]
        for _ in range(mask.bit_count()):
            ladder.append(ladder[-1] * ratio)
        sub = mask
        while True:
            terms[sub] = terms.get(sub, 0) + ladder[sub.bit_count()]
            if not sub:
                break
            sub = (sub - 1) & mask
    return PseudoBoolean(f.n, terms)


def ref_boolean_to_spin(f):
    return ref_substitute_affine(f, Fraction(1, 2), Fraction(-1, 2))


def ref_spin_to_boolean(g):
    return ref_substitute_affine(g, Fraction(1), Fraction(-2))


def ref_pbf_to_pauli(f):
    """x_i -> (I - Z_i)/2 per monomial: a signed 2^-|M| subset loop."""
    from pbkernel import PauliSum

    n = f.n
    acc: dict = {}
    for mask, coeff in f.masked_terms().items():
        scale = coeff / (1 << mask.bit_count())
        sub = mask
        while True:
            sign = -1 if sub.bit_count() & 1 else 1
            acc[sub] = acc.get(sub, Fraction(0)) + sign * scale
            if sub == 0:
                break
            sub = (sub - 1) & mask
    terms = {}
    for zmask, c in acc.items():
        if c:
            terms["".join("Z" if zmask & (1 << i) else "I" for i in range(n))] = c
    return PauliSum(n, terms)


def ref_pauli_to_pbf(h):
    """Z_T = prod (1 - 2 x_i): a (-2)^|S| subset loop per word."""
    acc: dict = {}
    for word, coeff in h.terms():
        zmask = 0
        for i, ch in enumerate(word):
            if ch == "Z":
                zmask |= 1 << i
        sub = zmask
        while True:
            acc[sub] = acc.get(sub, Fraction(0)) + coeff * Fraction((-2) ** sub.bit_count())
            if sub == 0:
                break
            sub = (sub - 1) & zmask
    return PseudoBoolean(h.n, acc)


def ref_ising_form(f):
    """(constant, fields, couplings) by looking up one n-letter word each."""
    ps = ref_pbf_to_pauli(f)
    n = f.n
    constant = ps.coefficient("I" * n)
    fields = tuple(ps.coefficient("".join("Z" if i == l else "I" for i in range(n)))
                   for l in range(n))
    couplings = {}
    for l in range(n):
        for k in range(l + 1, n):
            c = ps.coefficient("".join("Z" if i in (l, k) else "I" for i in range(n)))
            if c:
                couplings[(l, k)] = c
    return constant, fields, couplings


def ref_letter_masks(letters):
    """(x, z) of a Pauli word, bit i = letter i, as SymplecticPauli read it."""
    xbits = zbits = 0
    for i, ch in enumerate(letters):
        if ch in "XY":
            xbits |= 1 << i
        if ch in "ZY":
            zbits |= 1 << i
        if ch not in "IXYZ":
            raise ValueError(f"bad Pauli letter {ch!r}")
    return xbits, zbits


def ref_letters(x, z, n):
    return "".join("IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)] for i in range(n))


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


def ref_to_dense(psum) -> np.ndarray:
    """The Kronecker sum: each word's dense matrix times c / den, in ``_terms`` order."""
    size = 1 << psum.n
    out = np.zeros((size, size), dtype=complex)
    for word, c in psum._terms.items():
        out += c / psum._den * dense_word(word)
    return out


def ref_dense_pauli_coefficients(mat: np.ndarray, tol: float = 1e-12) -> dict:
    """tr(P_w M) / 2^n for every word, each P_w a Kronecker product multiplied out."""
    size = mat.shape[0]
    coeffs = {}
    for letters in product("IXYZ", repeat=size.bit_length() - 1):
        word = "".join(letters)
        c = np.trace(dense_word(word) @ mat) / size
        if abs(c) > tol:
            coeffs[word] = complex(c)
    return coeffs


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


# -- the one-body kernel before the one tuple writer ------------------------


def ref_one_body_kernel(form, explicit_cap: int = 20):
    """``one_body_kernel`` with its per-bit loop: each kernel row written bit by bit."""
    if form.offset > 0:
        return ising_kernel.OneBodyKernel({}, (), True, frozenset())
    pinned = {k: 1 - form.tau[k] for k, c in enumerate(form.coeffs) if c > 0}
    free = tuple(k for k, c in enumerate(form.coeffs) if c == 0)
    assignments = None
    if form.n <= explicit_cap:
        assignments = set()
        for free_bits in range(1 << len(free)):
            row = [0] * form.n
            for k, v in pinned.items():
                row[k] = v
            for j, k in enumerate(free):
                row[k] = (free_bits >> j) & 1
            assignments.add(tuple(row))
        assignments = frozenset(assignments)
    return ising_kernel.OneBodyKernel(pinned, free, False, assignments)


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


# -- random LP instances -----------------------------------------------------

def fuzz_lp(rng: random.Random):
    """Small integer LP: at most 3 variables, 1 equality and 3 inequality
    rows, a random sign pattern and sense."""
    from pbkernel import LPInstance

    nv = rng.randint(1, 3)
    return LPInstance(
        num_vars=nv,
        objective=[Fraction(rng.randint(-3, 3)) for _ in range(nv)],
        eq=[
            ([Fraction(rng.randint(-3, 3)) for _ in range(nv)],
             Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 1))
        ],
        geq=[
            ([Fraction(rng.randint(-3, 3)) for _ in range(nv)],
             Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3))
        ],
        nonneg=[rng.random() < 0.6 for _ in range(nv)],
        sense=rng.choice(["min", "max"]),
    )


def random_target(rng: random.Random):
    """(target set, n): a random proper nonempty subset of {0,1}^n, n = 2..3."""
    n = rng.randint(2, 3)
    size = rng.randint(1, (1 << n) - 1)
    return set(rng.sample(assignments(n), size)), n


def rational_lp(rng: random.Random):
    """LP on rational data with a distinct denominator LCM per row, rows
    with negative right-hand sides, free variables, mixed eq/geq rows,
    either sense, and sometimes a redundant equality (a rational multiple
    of another row) whose artificial stays basic after phase 1."""
    from pbkernel import LPInstance

    def rat():
        return Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 4, 5, 6, 9)))

    nv = rng.randint(1, 5)
    eq = [([rat() for _ in range(nv)], rat()) for _ in range(rng.randint(0, 2))]
    geq = [([rat() for _ in range(nv)], rat()) for _ in range(rng.randint(0, 4))]
    if eq and rng.random() < 0.4:
        k = Fraction(rng.choice((-3, -2, -1, 1, 2)), rng.choice((1, 2, 5, 7)))
        coeffs, rhs = rng.choice(eq)
        eq.insert(rng.randint(0, len(eq)), ([k * c for c in coeffs], k * rhs))
    return LPInstance(
        num_vars=nv,
        objective=[rat() for _ in range(nv)],
        eq=eq,
        geq=geq,
        nonneg=[rng.random() < 0.6 for _ in range(nv)],
        sense=rng.choice(["min", "max"]),
    )


# -- LP constructor (reference for the integer rows built without Fractions) --

class _RefCoerced(dict):
    """value -> its Fraction, coerced once per distinct value."""

    def __missing__(self, value):
        self[value] = exact = value if isinstance(value, Fraction) else Fraction(value)
        return exact


def _ref_stack(rows: list, width: int) -> np.ndarray:
    """Integer rows (coefficients, rhs, _) as one read-only array: int64
    when every |entry| is below 2^63, else Python ints."""
    for dtype in (np.int64, object):
        matrix = np.empty((len(rows), width + 1), dtype)
        try:
            for i, (coeffs, rhs, _) in enumerate(rows):
                matrix[i, :-1], matrix[i, -1] = coeffs, rhs
        except OverflowError:
            continue
        top = max(int(matrix.max(initial=0)), -int(matrix.min(initial=0)))
        if (top < 1 << 63) == (dtype is np.int64):
            break
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class RefLPInstance:
    """``LPInstance`` as it was before it built its integer rows without
    ``Fraction``s: every entry coerced in the constructor to a Fraction
    shared by every entry equal to it, and the public ``Fraction`` rows
    kept beside the integer ones."""

    num_vars: int
    objective: tuple
    eq: tuple = ()
    geq: tuple = ()
    nonneg: tuple = ()
    sense: str = "min"
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _lcm: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        coerce = _RefCoerced().__getitem__
        obj = tuple(map(coerce, self.objective))
        if len(obj) != self.num_vars:
            raise DimensionError("objective length != num_vars")
        nonneg = tuple(self.nonneg) if self.nonneg else (True,) * self.num_vars
        if len(nonneg) != self.num_vars:
            raise DimensionError("nonneg length != num_vars")

        ints = []

        def rows(raw):
            out = []
            for coeffs, rhs in raw:
                if isinstance(coeffs, np.ndarray):
                    entries = coeffs.tolist()
                    own = coeffs.dtype.kind in "iu" and np.can_cast(coeffs.dtype, np.int64)
                else:
                    coeffs = entries = list(coeffs)
                    own = all(type(c) is int for c in entries)
                exact = tuple(map(coerce, entries))
                if len(exact) != self.num_vars:
                    raise DimensionError("row width != num_vars")
                out.append((exact, coerce(rhs)))
                if own and type(rhs) is int:
                    ints.append((coeffs, rhs, 1))
                else:
                    nums, denom = ref_numerators((*exact, out[-1][1]))
                    ints.append((nums[:-1], nums[-1], denom))
            return tuple(out)

        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "nonneg", nonneg)
        object.__setattr__(self, "eq", rows(self.eq))
        object.__setattr__(self, "geq", rows(self.geq))
        object.__setattr__(self, "_matrix", _ref_stack(ints, self.num_vars))
        object.__setattr__(self, "_lcm", tuple(lcm for *_, lcm in ints))


# -- test-side views of the library's LP ---------------------------------------

def primitive_rows(tab) -> np.ndarray:
    """The primitive rows of a library ``_Tableau``: Q T0 over its row gcds, in
    the dtype ``_int_dtype(2 top^2)``."""
    rows = tab.K @ tab.T0T.T
    rows //= np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
    return rows.astype(_int_dtype(2 * _top(rows) ** 2))


def int_check_point(lp, x) -> None:
    """The library's primal check on a point given as one value per variable."""
    nums, denom = _numerators(x)
    _check_point_ints(lp, {v: a for v, a in enumerate(nums) if a}, denom)


def int_check_duals(lp, y, objective, sense: str) -> Fraction:
    """The library's dual check on duals and an objective given as values."""
    return _check_duals_ints(lp, *_numerators(y), _numerators(objective), sense)


# -- Fraction simplex tableau (reference for the integer tableau) -----------

class RefUnbounded(Exception):
    """Raised by a reference tableau's ``run`` on an unbounded LP; ``col``
    is the entering column."""

    def __init__(self, col):
        self.col = col


class RefTableau:
    """Dense Fraction simplex tableau with Bland's anti-cycling rule: the
    solver the library used before its fraction-free integer tableau."""

    def __init__(self, lp):
        self.lp = lp
        self.cols = []  # ("var", v, sign) | ("surplus", row) | ("art", row)
        for v in range(lp.num_vars):
            self.cols.append(("var", v, 1))
            if not lp.nonneg[v]:
                self.cols.append(("var", v, -1))
        nstruct = len(self.cols)
        rows = []
        self.sigma = []  # std row = sigma * original row
        refs = lp.row_refs()
        for ref in refs:
            coeffs, rhs = (lp.eq if ref[0] == "eq" else lp.geq)[ref[1]]
            rows.append((list(coeffs), rhs, ref))
        m = len(rows)
        surplus_col = {}
        for i, (coeffs, rhs, ref) in enumerate(rows):
            if ref[0] == "geq":
                surplus_col[i] = nstruct + len(surplus_col)
        ncols = nstruct + len(surplus_col)
        self.matrix = []
        self.rhs = []
        self.refs = []
        for i, (coeffs, rhs, ref) in enumerate(rows):
            row = [Fraction(0)] * ncols
            for j, col in enumerate(self.cols):
                _, v, sign = col
                if coeffs[v]:
                    row[j] = sign * coeffs[v]
            if i in surplus_col:
                row[surplus_col[i]] = Fraction(-1)
            sigma = 1
            if rhs < 0:
                sigma = -1
                row = [-val for val in row]
                rhs = -rhs
            self.sigma.append(sigma)
            self.matrix.append(row)
            self.rhs.append(rhs)
            self.refs.append(ref)
        for _ in surplus_col:
            self.cols.append(("surplus", None))
        # initial basis: a negated geq row exposes its surplus at +1;
        # everything else gets an artificial column
        self.basis = [None] * m
        self.init_col = [None] * m
        self.init_cost = [Fraction(0)] * m
        self.artificial = set()
        for i in range(m):
            j = surplus_col.get(i)
            if j is not None and self.matrix[i][j] == 1:
                self.basis[i] = j
                self.init_col[i] = j
                continue
            col = len(self.cols)
            self.cols.append(("art", i))
            self.artificial.add(col)
            for r in range(m):
                self.matrix[r].append(Fraction(1) if r == i else Fraction(0))
            self.basis[i] = col
            self.init_col[i] = col
            self.init_cost[i] = Fraction(1)

    @property
    def ncols(self):
        return len(self.cols)

    def _pivot(self, r, j, z):
        row = self.matrix[r]
        piv = row[j]
        if piv != 1:
            inv = 1 / piv
            self.matrix[r] = row = [val * inv for val in row]
            self.rhs[r] *= inv
        for i in range(len(self.matrix)):
            if i == r:
                continue
            factor = self.matrix[i][j]
            if factor:
                other = self.matrix[i]
                self.matrix[i] = [a - factor * b for a, b in zip(other, row)]
                self.rhs[i] -= factor * self.rhs[r]
        factor = z[j]
        if factor:
            for k in range(len(z)):
                z[k] -= factor * row[k]
        self.basis[r] = j

    def run(self, cost, banned):
        z = list(cost)
        for i, b in enumerate(self.basis):
            if cost[b]:
                factor = cost[b]
                row = self.matrix[i]
                for k in range(len(z)):
                    z[k] -= factor * row[k]
        while True:
            basic = set(self.basis)
            enter = None
            for j in range(self.ncols):
                if j in banned or j in basic:
                    continue
                if z[j] < 0:
                    enter = j
                    break
            if enter is None:
                return z
            leave = None
            best = None
            for i, row in enumerate(self.matrix):
                a = row[enter]
                if a > 0:
                    theta = self.rhs[i] / a
                    if best is None or theta < best or (
                        theta == best and self.basis[i] < self.basis[leave]
                    ):
                        best = theta
                        leave = i
            if leave is None:
                raise RefUnbounded(enter)
            self._pivot(leave, enter, z)

    def objective_value(self, cost):
        return sum(
            (cost[b] * self.rhs[i] for i, b in enumerate(self.basis)), Fraction(0)
        )

    def solution(self):
        x = [Fraction(0)] * self.lp.num_vars
        for i, b in enumerate(self.basis):
            kind = self.cols[b]
            if kind[0] == "var":
                x[kind[1]] += kind[2] * self.rhs[i]
        return x

    def row_multipliers(self, cost, z):
        out = []
        for i in range(len(self.matrix)):
            j = self.init_col[i]
            y = cost[j] - z[j]
            out.append(self.sigma[i] * y)
        return out


def _ref_extract_ray(tab, enter):
    ray_std = {enter: Fraction(1)}
    for i, b in enumerate(tab.basis):
        a = tab.matrix[i][enter]
        if a:
            ray_std[b] = -a
    ray = {}
    for j, delta in ray_std.items():
        col = tab.cols[j]
        if col[0] == "var":
            ray[col[1]] = ray.get(col[1], Fraction(0)) + col[2] * delta
    return {v: d for v, d in ray.items() if d}


# -- Fraction re-checks of LP answers and margin rows -------------------------

def ref_verify_certificate(lp, cert):
    """Exact check that a certificate proves 0 >= 1 (Fraction sums)."""
    combo = [Fraction(0)] * lp.num_vars
    total_rhs = Fraction(0)
    for (kind, i), mult in cert:
        coeffs, rhs = (lp.eq if kind == "eq" else lp.geq)[i]
        if kind == "geq" and mult < 0:
            raise AssertionError("negative multiplier on an inequality row")
        for v in range(lp.num_vars):
            combo[v] += mult * coeffs[v]
        total_rhs += mult * rhs
    for v in range(lp.num_vars):
        if lp.nonneg[v]:
            if combo[v] > 0:
                raise AssertionError(f"certificate leaves positive weight on x{v}")
        elif combo[v] != 0:
            raise AssertionError(f"certificate leaves free variable x{v} uncancelled")
    if total_rhs <= 0:
        raise AssertionError("certificate right-hand side is not positive")


def ref_check_point(lp, x):
    for v in range(lp.num_vars):
        if lp.nonneg[v] and x[v] < 0:
            raise AssertionError("negative value on a sign-constrained variable")
    for coeffs, rhs in lp.eq:
        if sum((c * xv for c, xv in zip(coeffs, x)), Fraction(0)) != rhs:
            raise AssertionError("equality row violated")
    for coeffs, rhs in lp.geq:
        if sum((c * xv for c, xv in zip(coeffs, x)), Fraction(0)) < rhs:
            raise AssertionError("inequality row violated")


def ref_check_duals(lp, duals, value):
    refs = lp.row_refs()
    rows = [
        (lp.eq if kind == "eq" else lp.geq)[i] for kind, i in refs
    ]
    for (kind, _), y in zip(refs, duals):
        if kind == "geq":
            if lp.sense == "min" and y < 0:
                raise AssertionError("min-sense inequality dual must be >= 0")
            if lp.sense == "max" and y > 0:
                raise AssertionError("max-sense inequality dual must be <= 0")
    bound = sum((y * rhs for y, (_, rhs) in zip(duals, rows)), Fraction(0))
    if bound != value:
        raise AssertionError("dual bound does not match the optimal value")
    for v in range(lp.num_vars):
        w = sum((y * coeffs[v] for y, (coeffs, _) in zip(duals, rows)), Fraction(0))
        c = lp.objective[v]
        if not lp.nonneg[v]:
            if w != c:
                raise AssertionError(f"dual equality violated on free x{v}")
        elif lp.sense == "min":
            if w > c:
                raise AssertionError(f"dual feasibility violated on x{v}")
        elif w < c:
            raise AssertionError(f"dual feasibility violated on x{v}")


def ref_check_ray(lp, ray):
    vec = [ray.get(v, Fraction(0)) for v in range(lp.num_vars)]
    for v in range(lp.num_vars):
        if lp.nonneg[v] and vec[v] < 0:
            raise AssertionError("ray leaves the variable cone")
    for coeffs, _ in lp.eq:
        if sum((c * d for c, d in zip(coeffs, vec)), Fraction(0)) != 0:
            raise AssertionError("ray violates an equality row")
    for coeffs, _ in lp.geq:
        if sum((c * d for c, d in zip(coeffs, vec)), Fraction(0)) < 0:
            raise AssertionError("ray violates an inequality row")
    gain = sum((lp.objective[v] * vec[v] for v in range(lp.num_vars)), Fraction(0))
    if lp.sense == "max" and gain <= 0:
        raise AssertionError("ray does not improve a max objective")
    if lp.sense == "min" and gain >= 0:
        raise AssertionError("ray does not improve a min objective")


def ref_pair_order(n):
    return [(l, k) for l in range(n) for k in range(l + 1, n)]


def ref_features(bits, pairs):
    """The margin-row feature vector (1, z_l, z_l z_k) of one point, z = 1 - 2x."""
    zs = [1 - 2 * b for b in bits]
    return [1] + zs + [zs[l] * zs[k] for l, k in pairs]


def ref_verify_infeasibility(real, target, n):
    """Farkas check of a realizability certificate with per-point
    feature vectors and Fraction sums."""
    pairs = ref_pair_order(n)
    dim = 1 + n + len(pairs)
    combo = [Fraction(0)] * dim
    mass = Fraction(0)
    for bits, mult in real.certificate:
        if bits not in target:
            if mult < 0:
                raise AssertionError("negative multiplier on a margin row")
            mass += mult
        phi = ref_features(bits, pairs)
        for d in range(dim):
            combo[d] += mult * phi[d]
    if any(c != 0 for c in combo):
        raise AssertionError("certificate does not cancel the feature columns")
    if mass <= 0:
        raise AssertionError("certificate has no mass on the margin rows")


def ref_simplex_solve(lp):
    """``simplex_solve`` on the Fraction tableau, with the Fraction
    re-checks above on every exit."""
    from pbkernel.ising_kernel import SimplexResult

    tab = RefTableau(lp)
    m = len(tab.matrix)
    if tab.artificial:
        cost1 = [Fraction(1) if j in tab.artificial else Fraction(0) for j in range(tab.ncols)]
        z1 = tab.run(cost1, banned=set())
        value1 = tab.objective_value(cost1)
        if value1 > 0:
            mults = tab.row_multipliers(cost1, z1)
            scaled = [y / value1 for y in mults]
            certificate = [(ref, y) for ref, y in zip(lp.row_refs(), scaled) if y != 0]
            ref_verify_certificate(lp, certificate)
            return SimplexResult(status="infeasible", certificate=certificate)
        for i in range(m):
            if tab.basis[i] in tab.artificial:
                for j in range(tab.ncols):
                    if j not in tab.artificial and tab.matrix[i][j] != 0:
                        tab._pivot(i, j, z1)
                        break
    sign = 1 if lp.sense == "min" else -1
    cost2 = [Fraction(0)] * tab.ncols
    for j, col in enumerate(tab.cols):
        if col[0] == "var":
            cost2[j] = sign * col[2] * lp.objective[col[1]]
    try:
        z2 = tab.run(cost2, banned=tab.artificial)
    except RefUnbounded as unb:
        ray = _ref_extract_ray(tab, unb.col)
        ref_check_ray(lp, ray)
        return SimplexResult(status="unbounded", ray=ray)
    x = tab.solution()
    value = sum((lp.objective[v] * x[v] for v in range(lp.num_vars)), Fraction(0))
    ref_check_point(lp, x)
    mults = tab.row_multipliers(cost2, z2)
    duals = tuple(sign * y for y in mults)
    ref_check_duals(lp, duals, value)
    return SimplexResult(status="optimal", x=tuple(x), value=value, duals=duals)


# -- a realizability decision before its one target read, its gathered LP rows,
#    its lean tableau constructor and its integer certificate build -------------

def ref_read_target(S, n):
    """(target, idx): the target loop before the one read (``int()`` per entry,
    then one ``index_of`` per point), and the points S first, then the rest."""
    from pbkernel.pbf import index_of

    target = set()
    for item in S:
        bits = tuple(int(b) for b in item)
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"bad bit string {reprlib.repr(item)} for n = {n}")
        target.add(bits)
    if not target:
        raise ValueError("S must be nonempty")
    on_s = np.zeros(1 << n, dtype=bool)
    on_s[[index_of(bits) for bits in target]] = True
    return target, np.concatenate([np.flatnonzero(on_s), np.flatnonzero(~on_s)])


def ref_feature_rows(idx, n):
    """The margin-row features of the points ``idx``, one ``np.hstack`` per call."""
    z = 1 - 2 * ((np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    first, second = np.triu_indices(n, 1)
    return np.hstack([np.ones((len(z), 1), dtype=np.int64), z, z[:, first] * z[:, second]])


def ref_realizability_lp(idx, ns, n):
    """The LP build call before the gathered rows: one feature row per point,
    each LP row a column of that matrix, read by the constructor row by row."""
    from pbkernel import LPInstance

    return LPInstance(
        num_vars=len(idx),
        objective=[0] * ns + [1] * (len(idx) - ns),
        eq=[(column, 0) for column in ref_feature_rows(idx, n).T],
        nonneg=[False] * ns + [True] * (len(idx) - ns),
        sense="max",
    )


def ref_tableau_fields(lp):
    """The fields ``_Tableau.__init__`` set before its per-variable source:
    T0 built by rows and transposed, ``var`` and ``sign`` by a cumulative sum,
    every |entry| bound read off the arrays."""
    import itertools

    from pbkernel.pbf import _int_dtype

    def top(a):
        return max(int(a.max(initial=0)), -int(a.min(initial=0)))

    out = {}
    free = np.logical_not(lp.nonneg, dtype=bool)
    var = out["var"] = np.repeat(np.arange(lp.num_vars), 1 + free)
    sign = out["sign"] = np.ones(len(var), dtype=np.int64)
    sign[np.cumsum(1 + free)[free] - 1] = -1
    neq, m = lp._neq, len(lp._lcm)
    sigma = out["sigma"] = [-1 if b < 0 else 1 for b in lp._matrix[:, -1].tolist()]
    surplus = len(var) - neq
    art = [i < neq or s > 0 for i, s in enumerate(sigma)]
    first_art = out["first_art"] = surplus + m
    arts = itertools.count(first_art)
    init_col = out["init_col"] = [next(arts) if a else surplus + i for i, a in enumerate(art)]
    ncols = out["ncols"] = next(arts)
    out["basis"] = list(init_col)
    L = math.lcm(*(l for a, l in zip(art, lp._lcm) if a))
    weights = [L // l if a else 0 for a, l in zip(art, lp._lcm)]
    obj, denom = lp._cost
    bound = max(top(lp._matrix), *lp._lcm, *map(abs, obj), 0)
    dtype = _int_dtype((sum(weights) + 1) * bound)
    nums, lcm, sign_, sigma_, weights, obj = (
        np.asarray(v, dtype) for v in (lp._matrix, lp._lcm, sign, sigma, weights, obj)
    )
    R = m + 1 + (ncols > first_art)
    T0 = np.zeros((R + 1, ncols + 1), dtype)
    rows = T0[:m]
    rows[:, : len(var)] = nums[:, var] * sign_
    rows[:, -1] = nums[:, -1]
    geq = np.arange(neq, m)
    rows[geq, surplus + geq] = -lcm[neq:]
    rows *= sigma_[:, None]
    rows[np.arange(m), init_col] = lcm
    T0[m, : len(var)] = (1 if lp.sense == "min" else -1) * obj[var] * sign_
    if R > m + 1:
        T0[-2] = -(weights @ rows)
        T0[-2, first_art:-1] = 0
    out["scale"] = []
    for z, d in zip(T0[m:R], (denom, L)):
        g = int(np.gcd.reduce(z)) or 1
        z //= g
        out["scale"].append([g, d])
    K = np.eye(R, R + 1, dtype=dtype)
    K[:, -1] = T0[:R, -1]
    out["growth"] = 2 * (R + 1) * top(T0)
    cast = _int_dtype(out["growth"] * top(K) ** 2)
    out["K"], out["T0T"] = K.astype(cast), np.ascontiguousarray(T0.T, cast)
    return out


def ref_certificate(ray, idx, ns, n):
    """The certificate build before the ray's integer numerators: a Fraction
    sum of the margin mass, one Fraction division and one ``bits_of`` per entry."""
    from pbkernel.pbf import bits_of

    total = sum((d for j, d in ray.items() if j >= ns), Fraction(0))
    if total <= 0:
        raise AssertionError("unbounded ray carries no inequality mass")
    return [(bits_of(int(idx[j]), n), ray[j] / total) for j in sorted(ray)]


def ref_quadratic_realizability(S, n):
    """``quadratic_realizability`` from the four references above and the
    library's solve and re-checks."""
    target, idx = ref_read_target(S, n)
    ns = len(target)
    result = ising_kernel.simplex_solve(ref_realizability_lp(idx, ns, n))
    if result.status == "optimal":
        w = result.duals
        pairs = [(l, k) for l in range(n) for k in range(l + 1, n)]
        real = ising_kernel.QuadraticRealization(
            feasible=True, n=n, constant=w[0], fields=w[1 : n + 1], couplings=dict(zip(pairs, w[n + 1 :]))
        )
        assert real.verify(target)
        return real
    real = ising_kernel.QuadraticRealization(feasible=False, n=n, certificate=ref_certificate(result.ray, idx, ns, n))
    ising_kernel.verify_infeasibility(real, target, n)
    return real


# -- Bareiss integer tableau (reference for the primitive-row tableau) -------

class RefBareissTableau:
    """Dense fraction-free simplex tableau with Bland's anti-cycling rule:
    the solver the library used before its primitive-row tableau.

    Row i of the input is cleared by the LCM L_i of its own denominators,
    so the initial basis (surplus and artificial unit columns) has
    determinant ``den`` = prod(L_i).  Each row of ``matrix`` holds
    den * (B^-1 [A | b])_i as Python ints, right-hand side last, where B
    is the current basis and den > 0 its absolute determinant in the
    cleared system.  By Cramer's rule every entry is a minor of the
    cleared data, so the pivot update (p * a - f * b) // den is exact
    (Bareiss 1968, Edmonds 1967).  The reduced-cost row ``z`` carries the
    same update at den * zscale * (c - c_B B^-1 [A | b]), zscale being the
    LCM of the cost denominators, so its signs are the exact ones.
    """

    def __init__(self, lp: LPInstance):
        self.lp = lp
        self.cols = []  # ("var", v, sign) | ("surplus", None) | ("art", row)
        for v in range(lp.num_vars):
            self.cols.append(("var", v, 1))
            if not lp.nonneg[v]:
                self.cols.append(("var", v, -1))
        struct = [(v, sign) for _, v, sign in self.cols]
        cleared = list(zip(lp._matrix.tolist(), lp._lcm))  # (numerators, L) per row
        neq, m = len(lp.eq), len(cleared)
        self.sigma = [-1 if row[-1] < 0 else 1 for row, _ in cleared]  # std row = sigma * row
        # initial basis: a negated geq row exposes its surplus at +1;
        # everything else gets an artificial column
        surplus = len(struct) - neq  # geq row i has its surplus in column surplus + i
        self.init_col = [surplus + i if i >= neq and self.sigma[i] < 0 else None for i in range(m)]
        self.cols += [("surplus", None)] * (m - neq)
        for i in range(m):
            if self.init_col[i] is None:
                self.init_col[i] = len(self.cols)
                self.cols.append(("art", i))
        self.artificial = {j for j, col in enumerate(self.cols) if col[0] == "art"}
        self.basis = list(self.init_col)
        self.den = math.prod(lcm for _, lcm in cleared)
        self.matrix = []
        for i, (nums, lcm) in enumerate(cleared):
            scale = self.sigma[i] * (self.den // lcm)
            row = [sign * scale * nums[v] for v, sign in struct]
            row += [0] * (self.ncols - len(row)) + [scale * nums[-1]]
            if i >= neq:
                row[surplus + i] = -self.sigma[i] * self.den
            row[self.init_col[i]] = self.den
            self.matrix.append(row)
        self.z = None
        self.zscale = 1

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def _pivot(self, r: int, j: int) -> None:
        prow = self.matrix[r]
        p = prow[j]
        if p < 0:
            self.matrix[r] = prow = [-a for a in prow]
            p = -p
        den = self.den
        self.matrix = [
            row if i == r else _bareiss_eliminate(row, prow, p, den, j)
            for i, row in enumerate(self.matrix)
        ]
        self.z = _bareiss_eliminate(self.z, prow, p, den, j)
        self.den = p
        self.basis[r] = j

    def run(self, cost: list, banned: set) -> None:
        """Bland-rule simplex on the given cost vector, leaving the final
        reduced-cost row in ``z``.  Raises RefUnbounded on an unbounded LP."""
        self.zscale = math.lcm(*(c.denominator for c in cost))
        scaled = [c.numerator * (self.zscale // c.denominator) for c in cost]
        z = [self.den * c for c in scaled] + [0]
        for i, b in enumerate(self.basis):
            if scaled[b]:
                z = [a - scaled[b] * v for a, v in zip(z, self.matrix[i])]
        self.z = z
        while True:
            basic = set(self.basis)
            enter = None
            for j in range(self.ncols):
                if j in banned or j in basic:
                    continue
                if self.z[j] < 0:
                    enter = j
                    break
            if enter is None:
                return
            # exact min of rhs / a over a > 0; den cancels from the ratio
            leave = None
            for i, row in enumerate(self.matrix):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = row[-1] * self.matrix[leave][enter]
                    rhs = self.matrix[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave is None:
                raise RefUnbounded(enter)
            self._pivot(leave, enter)

    def objective_value(self) -> Fraction:
        return Fraction(-self.z[-1], self.den * self.zscale)

    def solution(self) -> list:
        x = [Fraction(0)] * self.lp.num_vars
        for i, b in enumerate(self.basis):
            kind = self.cols[b]
            if kind[0] == "var":
                x[kind[1]] += kind[2] * Fraction(self.matrix[i][-1], self.den)
        return x

    def row_multipliers(self, cost: list) -> list:
        """Multipliers per original row from the initial identity columns."""
        out = []
        for i in range(len(self.matrix)):
            j = self.init_col[i]
            y = cost[j] - Fraction(self.z[j], self.den * self.zscale)
            out.append(self.sigma[i] * y)
        return out


def _bareiss_eliminate(row: list, prow: list, p: int, den: int, j: int) -> list:
    """One row of the fraction-free pivot update (exact division)."""
    f = row[j]
    if f:
        return [(p * a - f * b) // den for a, b in zip(row, prow)]
    if p == den:
        return row
    return [p * a // den for a in row]

def _ref_bareiss_extract_ray(tab, enter):
    ray_std = {enter: Fraction(1)}
    for i, b in enumerate(tab.basis):
        a = tab.matrix[i][enter]
        if a:
            ray_std[b] = Fraction(-a, tab.den)
    cols = ((tab.cols[j], delta) for j, delta in ray_std.items())
    return _accumulate({}, ((col[1], col[2] * delta) for col, delta in cols if col[0] == "var"))


def ref_bareiss_simplex_solve(lp):
    """``simplex_solve`` on the Bareiss tableau, with the library's integer
    re-checks on every exit."""
    from pbkernel.ising_kernel import SimplexResult, _check_ray, verify_certificate

    tab = RefBareissTableau(lp)
    m = len(tab.matrix)
    if tab.artificial:
        cost1 = [Fraction(1) if j in tab.artificial else Fraction(0) for j in range(tab.ncols)]
        tab.run(cost1, banned=set())
        value1 = tab.objective_value()
        if value1 > 0:
            mults = zip(lp.row_refs(), tab.row_multipliers(cost1))
            certificate = [(ref, y / value1) for ref, y in mults if y]
            verify_certificate(lp, certificate)
            return SimplexResult(status="infeasible", certificate=certificate)
        for i in range(m):
            if tab.basis[i] in tab.artificial:
                for j in range(tab.ncols):
                    if j not in tab.artificial and tab.matrix[i][j] != 0:
                        tab._pivot(i, j)
                        break
    sign = 1 if lp.sense == "min" else -1
    cost2 = [Fraction(0)] * tab.ncols
    for j, col in enumerate(tab.cols):
        if col[0] == "var":
            cost2[j] = sign * col[2] * lp.objective[col[1]]
    try:
        tab.run(cost2, banned=tab.artificial)
    except RefUnbounded as unb:
        ray = _ref_bareiss_extract_ray(tab, unb.col)
        _check_ray(lp, ray)
        return SimplexResult(status="unbounded", ray=ray)
    x = tab.solution()
    value = sum((lp.objective[v] * x[v] for v in range(lp.num_vars)), Fraction(0))
    int_check_point(lp, x)
    duals = tuple(sign * y for y in tab.row_multipliers(cost2))
    if int_check_duals(lp, duals, lp.objective, lp.sense) != value:
        raise AssertionError("dual bound does not match the optimal value")
    return SimplexResult(status="optimal", x=tuple(x), value=value, duals=duals)


# -- list-built tableau rows and the zeta margin check (references for the
# -- numpy-built tableau and the Walsh-Hadamard pass) --------------------------

def ref_narrow(rows: list) -> np.ndarray:
    """Integer rows as one int64 array when every |entry| is below 2^31,
    else as one array of Python ints."""
    limit = 1 << 31
    try:
        small = np.array(rows, dtype=np.int64)
        if -limit < small.min() and small.max() < limit:
            return small
    except OverflowError:
        pass
    return np.array(rows, dtype=object)


class RefListTableau:
    """The primitive-row tableau with the constructor the library used
    before its numpy one: one list comprehension per LP row, the phase-1
    costs summed column by column over ``zip(*rows)``, then ``ref_narrow``."""

    def __init__(self, lp):
        self.lp = lp
        self.cols = []  # ("var", v, sign) | ("surplus", None) | ("art", row)
        for v in range(lp.num_vars):
            self.cols.append(("var", v, 1))
            if not lp.nonneg[v]:
                self.cols.append(("var", v, -1))
        struct = [(v, sign) for _, v, sign in self.cols]
        cleared = list(zip(lp._matrix.tolist(), lp._lcm))  # (numerators, L) per row
        neq, m = len(lp.eq), len(cleared)
        self.sigma = [-1 if row[-1] < 0 else 1 for row, _ in cleared]  # std row = sigma * row
        surplus = len(struct) - neq  # geq row i has its surplus in column surplus + i
        self.init_col = [surplus + i if i >= neq and self.sigma[i] < 0 else None for i in range(m)]
        self.cols += [("surplus", None)] * (m - neq)
        for i in range(m):
            if self.init_col[i] is None:
                self.init_col[i] = len(self.cols)
                self.cols.append(("art", i))
        self.artificial = {j for j, col in enumerate(self.cols) if col[0] == "art"}
        self.real = np.array([col[0] != "art" for col in self.cols], dtype=bool)
        self.basis = list(self.init_col)
        rows = []
        for i, (nums, lcm) in enumerate(cleared):
            row = [self.sigma[i] * sign * nums[v] for v, sign in struct]
            row += [0] * (self.ncols - len(row)) + [self.sigma[i] * nums[-1]]
            if i >= neq:
                row[surplus + i] = -self.sigma[i] * lcm
            row[self.init_col[i]] = lcm
            rows.append(row)
        obj, denom = _numerators(lp.objective)
        flip = 1 if lp.sense == "min" else -1
        cost = [flip * sign * obj[v] for v, sign in struct]
        costs = [(cost + [0] * (self.ncols + 1 - len(cost)), denom)]
        if self.artificial:
            art = [(j in self.artificial, lcm) for j, (_, lcm) in zip(self.init_col, cleared)]
            L = math.lcm(*(lcm for is_art, lcm in art if is_art))
            weights = [L // lcm if is_art else 0 for is_art, lcm in art]
            z = [-sum(map(operator.mul, weights, col)) for col in zip(*rows)]
            costs.append(([0 if j in self.artificial else c for j, c in enumerate(z)], L))
        self.scale = []
        for z, denom in costs:
            g = math.gcd(*z) or 1
            rows.append([v // g for v in z])
            self.scale.append([g, denom])
        self.matrix = ref_narrow(rows)

    @property
    def ncols(self):
        return len(self.cols)


def ref_zeta_verify(real, target):
    """``QuadraticRealization.verify`` as the library ran it before its
    Walsh-Hadamard pass: ``spin_to_boolean``, then the zeta transform."""
    if not real.feasible:
        return False
    vals, denom = real._boolean_form()._cube_values(real.n, "margin check")
    on_s = np.zeros(vals.size, dtype=bool)
    on_s[_point_indices(target, real.n)] = True
    vals = _swap_order(vals, real.n)
    return bool((vals[on_s] == 0).all() and (vals[~on_s] >= denom).all())


# -- the expression tokenizer and parser before flat-term operands ------------
# (their own copy, so a tokenizer or term bug in expr cannot hide behind them)


def _ref_line_col(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


def _ref_digit_run(text: str, i: int) -> int:
    """``expr._digit_run``: the per-character digit loop, with the
    interpreter's digit limit read once per number."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit and j - i > limit:
        raise ParseError(f"number of {j - i} digits over {limit} at {_ref_line_col(text, i)}", i)
    return j


def ref_tokenize(text: str):
    """``expr._tokenize`` before it read each digit run with one regex match."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()/":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdecimal():
            j = _ref_digit_run(text, i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x" or (ch == "~" and i + 1 < n and text[i + 1] == "x"):
            comp = ch == "~"
            j = i + (2 if comp else 1)
            k = _ref_digit_run(text, j)
            if k == j:
                raise ParseError(f"expected a variable index after 'x' at {_ref_line_col(text, i)}", i)
            idx = int(text[j:k])
            if idx <= 0:
                raise ParseError(f"variable index must be >= 1, got {idx} at {_ref_line_col(text, i)}", i)
            tokens.append(("~var" if comp else "var", idx, i))
            i = k
            continue
        raise ParseError(f"unexpected character {ch!r} at {_ref_line_col(text, i)}", i)
    return tokens


class _RefRunParser:
    """``expr._Parser`` before flat-term operands: a ``peek``/``take`` call
    per token, operands built through ``PseudoBoolean.__init__``, the sign
    applied to the finished term, and a run of plain variables multiplied
    in as one monomial."""

    def __init__(self, tokens, arity, text=""):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.text = text

    def where(self, pos):
        return _ref_line_col(self.text, pos) if pos >= 0 else "end of input"

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r} at {self.where(tok[2])}", tok[2])
        self.pos += 1
        return tok

    def check_product(self, pos, count):
        if count > expr.PRODUCT_CAP:
            raise ParseError(
                f"product at {self.where(pos)} needs {count} term products, over cap {expr.PRODUCT_CAP}",
                pos,
            )

    def parse_expr(self) -> PseudoBoolean:
        table = {}
        while True:
            negate, term = self.parse_term()
            pairs = term.masked_terms().items()
            _accumulate(table, ((m, -c) for m, c in pairs) if negate else pairs)
            if self.peek()[0] not in ("+", "-"):
                break
        return PseudoBoolean(self.arity, table)

    def parse_term(self) -> tuple:
        negate = False
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                negate = not negate
        if self.peek()[0] == "int":
            acc = PseudoBoolean.constant(self.arity, self.parse_rational())
        else:
            acc = self.parse_factor()
        run = 0
        while self.peek()[0] == "*":
            pos = self.take()[2]
            kind, value, _ = self.peek()
            if kind == "var":
                if not run:
                    self.check_product(pos, len(acc.masked_terms()))
                self.take()
                run |= 1 << (value - 1)
                continue
            factor = self.parse_factor()
            if run:
                acc, run = acc * PseudoBoolean(self.arity, {run: 1}), 0
            self.check_product(pos, len(acc.masked_terms()) * len(factor.masked_terms()))
            acc = acc * factor
        if run:
            acc = acc * PseudoBoolean(self.arity, {run: 1})
        return negate, acc

    def parse_rational(self) -> Fraction:
        num = self.take("int")[1]
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.take("int")
            if den_tok[1] == 0:
                raise ParseError(f"zero denominator at {self.where(den_tok[2])}", den_tok[2])
            return Fraction(num, den_tok[1])
        return Fraction(num)

    def parse_factor(self) -> PseudoBoolean:
        kind, value, pos = self.peek()
        if kind == "var":
            self.take()
            return PseudoBoolean.variable(self.arity, value - 1)
        if kind == "~var":
            self.take()
            return 1 - PseudoBoolean.variable(self.arity, value - 1)
        if kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(
            f"expected a variable, '(' or number, found {kind!r} at {self.where(pos)}", pos
        )


class _RefParser(_RefRunParser):
    """The term-by-term grammar walk: ``acc = acc +/- t`` per term, and one
    ``__mul__`` per factor, each checked against ``expr.PRODUCT_CAP``."""

    def parse_expr(self) -> PseudoBoolean:
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> PseudoBoolean:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        kind = self.peek()[0]
        if kind == "int":
            acc = PseudoBoolean.constant(self.arity, self.parse_rational())
        else:
            acc = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            factor = self.parse_factor()
            count = len(acc.masked_terms()) * len(factor.masked_terms())
            if count > expr.PRODUCT_CAP:
                raise ParseError(
                    f"product at {self.where(pos)} needs {count} term products, over cap {expr.PRODUCT_CAP}",
                    pos,
                )
            acc = acc * factor
        return acc if sign > 0 else -acc


class _RefOnePassParser(_RefRunParser):
    """The one-pass parse with its sum table updated by a hand-written loop
    (products still go through ``PseudoBoolean.__mul__``)."""

    def parse_expr(self) -> PseudoBoolean:
        table = {}
        while True:
            negate, term = self.parse_term()
            for mask, c in term.masked_terms().items():
                s = table.get(mask, 0) + (-c if negate else c)
                if s:
                    table[mask] = s
                else:
                    table.pop(mask, None)
            if self.peek()[0] not in ("+", "-"):
                break
        return PseudoBoolean(self.arity, table)


def ref_parse(text: str, arity: int | None = None, parser=_RefParser) -> PseudoBoolean:
    """``expr.parse`` on the term-by-term parser (or on ``parser``)."""
    tokens = ref_tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    max_idx = max((v for k, v, _ in tokens if k in ("var", "~var")), default=0)
    if arity is None:
        arity = max_idx
    elif max_idx and arity < max_idx:
        raise ParseError(f"expression uses x{max_idx} but arity {arity} was requested", 0)
    parser = parser(tokens, arity, text)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        tok = parser.peek()
        raise ParseError(
            f"trailing input starting with {tok[0]!r} at {parser.where(tok[2])}", tok[2]
        )
    return result


def ref_one_pass_parse(text: str, arity: int | None = None) -> PseudoBoolean:
    return ref_parse(text, arity, _RefOnePassParser)


# -- the add-and-drop-zero loops the library wrote out before pbf._accumulate --

def ref_accumulate(table, pairs):
    """``pbf._accumulate`` before an absent key took its coefficient as
    given: every pair adds into ``table.get(key, 0)``."""
    for key, c in pairs:
        s = table.get(key, 0) + c
        if s:
            table[key] = s
        else:
            table.pop(key, None)
    return table


def ref_add(f, g):
    """``f + g``: g's terms added into a copy of f's table."""
    terms = f.masked_terms()
    for mask, c in g.masked_terms().items():
        s = terms.get(mask, Fraction(0)) + c
        if s:
            terms[mask] = s
        else:
            terms.pop(mask, None)
    return PseudoBoolean(f.n, terms)


def ref_mul(f, g):
    """``f * g``: every pair of terms, f's outer, g's inner."""
    terms = {}
    for m1, c1 in f.masked_terms().items():
        for m2, c2 in g.masked_terms().items():
            mask = m1 | m2
            s = terms.get(mask, Fraction(0)) + c1 * c2
            if s:
                terms[mask] = s
            else:
                terms.pop(mask, None)
    return PseudoBoolean(f.n, terms)


def ref_embed(f, arity, mapping=None):
    """``f.embed(arity, mapping)``, range-checking only the variables a term uses."""
    if mapping is None:
        mapping = list(range(f.n))
    terms = {}
    for mask, c in f.masked_terms().items():
        new_mask = 0
        for i in range(f.n):
            if mask & (1 << i):
                j = mapping[i]
                if not 0 <= j < arity:
                    raise ValueError(f"mapped index {j} out of range for arity {arity}")
                new_mask |= 1 << j
        s = terms.get(new_mask, Fraction(0)) + c
        if s:
            terms[new_mask] = s
        else:
            terms.pop(new_mask, None)
    return PseudoBoolean(arity, terms)


def ref_clamp(f, var, value):
    """``gadgets.clamp`` for an in-range variable and a bit value."""
    bit = 1 << var
    low = bit - 1
    terms = {}
    for mask, c in f.masked_terms().items():
        if mask & bit:
            if value == 0:
                continue
            mask ^= bit
        new_mask = (mask & low) | ((mask >> 1) & ~low)
        s = terms.get(new_mask, Fraction(0)) + c
        if s:
            terms[new_mask] = s
        else:
            terms.pop(new_mask, None)
    return PseudoBoolean(f.n - 1, terms)


def ref_compose(netlist):
    """``gadgets.compose`` as one ``ref_add`` per gate, then one ``ref_clamp`` per pin."""
    members = netlist._validated_gadgets()
    names = netlist.variable_order()
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    clamp_names = [name for name, _ in netlist.clamps]
    if len(set(clamp_names)) != len(clamp_names):
        raise NetlistError("a wire is clamped more than once")
    total = PseudoBoolean.zero(arity)
    for idx, (inst, gadget) in enumerate(zip(netlist.gates, members)):
        mapping = []
        input_iter = iter(inst.inputs)
        slack_counter = 0
        for role in gadget.roles:
            if role == gadgets.ROLE_INPUT:
                mapping.append(index[next(input_iter)])
            elif role == gadgets.ROLE_OUTPUT:
                mapping.append(index[inst.output])
            else:
                mapping.append(index[f"__slack{idx}_{slack_counter}"])
                slack_counter += 1
        total = ref_add(total, ref_embed(gadget.penalty, arity, mapping))
    for name, value in sorted(netlist.clamps, key=lambda kv: -index[kv[0]]):
        total = ref_clamp(total, index[name], value)
    return total


def ref_pauli_add(h, k):
    """``h + k`` for Pauli sums: k's terms added into a copy of h's table."""
    terms = {w: h.coefficient(w) for w in h._terms}  # h's key order, read as Fractions
    for w, c in ((w, k.coefficient(w)) for w in k._terms):
        s = terms.get(w, Fraction(0)) + c
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)
    return PauliSum(h.n, terms)


def ref_conjugate_sum(circuit, hsum):
    """``stabilizer.conjugate_sum``: conjugated words in sorted input order."""
    terms = {}
    for word, coeff in hsum.terms():
        q = stabilizer.conjugate(circuit, stabilizer.SymplecticPauli.from_letters(word))
        w = q.letters()
        c = terms.get(w, Fraction(0)) + q.sign * coeff
        if c:
            terms[w] = c
        else:
            terms.pop(w, None)
    return PauliSum(circuit.n, terms)


# exponent of i in the single-qubit product P(x1,z1) * P(x2,z2),
# with P(0,0)=I, P(1,0)=X, P(0,1)=Z, P(1,1)=Y
REF_PROD_PHASE = {
    (0, 0, 0, 0): 0, (0, 0, 1, 0): 0, (0, 0, 0, 1): 0, (0, 0, 1, 1): 0,
    (1, 0, 0, 0): 0, (0, 1, 0, 0): 0, (1, 1, 0, 0): 0,
    (1, 0, 1, 0): 0, (0, 1, 0, 1): 0, (1, 1, 1, 1): 0,
    (1, 0, 0, 1): 3, (0, 1, 1, 0): 1,
    (1, 0, 1, 1): 1, (1, 1, 1, 0): 3,
    (1, 1, 0, 1): 1, (0, 1, 1, 1): 3,
}


def ref_pauli_mul(a, b):
    """``SymplecticPauli.__mul__`` with one phase-table lookup per qubit."""
    phase = 0
    for i in range(a.n):
        key = ((a.x >> i) & 1, (a.z >> i) & 1, (b.x >> i) & 1, (b.z >> i) & 1)
        phase += REF_PROD_PHASE[key]
    phase &= 3
    if phase & 1:
        raise ValueError("product of anticommuting strings has imaginary phase")
    sign = a.sign * b.sign * (1 if phase == 0 else -1)
    return stabilizer.SymplecticPauli(a.n, a.x ^ b.x, a.z ^ b.z, sign)


def ref_cmd_parent_clifford(args):
    """``parent clifford`` as the CLI ran it before it read the generators
    off the parent: ``--verify`` conjugates them once more through
    ``conjugated_generators``."""
    from pbkernel import cli, pauli

    circuit = stabilizer.CliffordCircuit.from_text(cli._read(args.circuitfile))
    parent = stabilizer.projector_parent(circuit)
    payload = {
        "command": "parent clifford",
        "qubits": circuit.n,
        "terms": [[str(c), w] for w, c in parent.terms()],
    }
    human = parent.to_text().splitlines()
    failed = False
    if args.verify:
        gens = stabilizer.conjugated_generators(circuit)
        kdim = stabilizer.kernel_dimension(gens)
        annihilates = None
        if circuit.n <= 12:
            state = stabilizer.apply_circuit(
                circuit, pauli.StateVector.basis_state(circuit.n, 0)
            )
            annihilates = parent.apply(state).is_zero()
        ok = kdim == 1 and annihilates is not False
        payload["verify"] = {
            "kernel_dimension": kdim,
            "annihilates_state": annihilates,
            "ok": ok,
        }
        human.append(f"verify: kernel dimension {kdim}, annihilates state: {annihilates}")
        failed = not ok
    cli._emit(payload, args.json, human)
    return 1 if failed else 0


def ref_projector_parent(circuit):
    """``stabilizer.projector_parent`` adding one one-term sum per generator."""
    n = circuit.n
    half = Fraction(1, 2)
    total = PauliSum.identity(n, Fraction(n, 2))
    for p in stabilizer.conjugated_generators(circuit):
        total = total + PauliSum(n, {p.letters(): -half * p.sign})
    return total


# -- the scale * prod (X - r) loops of symmetric before its one expansion ------

def ref_expand_exact(scale, roots):
    """``reconstruct``'s Fraction loop."""
    poly = [scale]
    for r in roots:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= r * c
        poly = nxt
    return poly


def ref_expand_complex(scale, roots):
    """``reconstruct``'s complex loop, before its imaginary-part check."""
    poly = [complex(scale)]
    for r in roots:
        rc = complex(r)
        nxt = [0j] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= rc * c
        poly = nxt
    return poly


def ref_delta_poly(k):
    """``delta_product_form``'s loop over the integer roots 1..k-1, before padding."""
    poly = [Fraction((-1) ** (k - 1), math.factorial(k - 1))]
    for j in range(1, k):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= j * c
        poly = nxt
    return poly


# -- the exact root search of symmetric before its one integer polynomial ------

def ref_divisors(m: int) -> list:
    """``symmetric._divisors`` as it was when the search below used it."""
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def ref_rational_roots(coeffs: list) -> tuple:
    """``symmetric._rational_roots`` with a Fraction Horner pass per candidate,
    Fraction synthetic division and re-clearing to integers after every root."""
    roots = []
    poly = list(coeffs)
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    while len(poly) > 1:
        ints = _scaled(poly)[0].tolist()
        content = math.gcd(*ints)
        ints = [v // content for v in ints]
        if abs(ints[0]) > 10**15 or abs(ints[-1]) > 10**15:
            break
        found = None
        for p in ref_divisors(ints[0]):
            for q in ref_divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(poly):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        # exact synthetic division by (X - found)
        new = [Fraction(0)] * (len(poly) - 1)
        carry = Fraction(0)
        for k in range(len(poly) - 1, 0, -1):
            carry = poly[k] + carry * found
            new[k - 1] = carry
        poly = new
        while len(poly) > 1 and poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
    return roots, poly


# -- canonical_to_power before its falling-factorial rows ---------------------

def ref_canonical_to_power(a):
    """Solve a = B c with the Stirling matrix B by back substitution."""
    from pbkernel import symmetric
    from pbkernel.pbf import _coerce

    a = [_coerce(v) for v in a]
    n = len(a) - 1
    if n == 0:
        return symmetric.SymmetricForm(0, (a[0],))
    B = symmetric.stirling_matrix(n)
    c = [Fraction(0)] * (n + 1)
    c[0] = a[0]
    for i in range(n, 0, -1):
        acc = a[i]
        for j in range(i + 1, n + 1):
            acc -= B[i - 1][j - 1] * c[j]
        c[i] = acc / B[i - 1][i - 1]
    return symmetric.SymmetricForm(n, tuple(c))


# -- parent support through a dense statevector --------------------------------

def _ref_amplitude(token: str, lineno: int) -> Fraction:
    """One amplitude of a state file, with the exponent-digit guard."""
    import sys

    from pbkernel.errors import PBKernelError

    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    _, sep, exponent = token.lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    over = digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit)
    if sep and limit and over:
        raise PBKernelError(f"state line {lineno}: decimal exponent over {limit} digits")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise PBKernelError(f"state line {lineno}: zero denominator") from None


def ref_load_state(text: str):
    """A state file's 2^n statevector, one ``Fraction(0)`` per absent string."""
    from pbkernel import cli, pauli
    from pbkernel.errors import EnumerationCapError, PBKernelError
    from pbkernel.pbf import index_of

    entries, lines = {}, {}  # basis index -> amplitude, and the line that gave it
    n = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PBKernelError(f"state line {lineno}: expected 'bits re im'")
        if any(ch not in "01" for ch in parts[0]):
            raise PBKernelError(f"bad bit string {parts[0]!r}")
        bits = tuple(int(ch) for ch in parts[0])
        if n is None:
            n = len(bits)
            if n > pauli.STATE_CAP:
                raise EnumerationCapError(f"statevector arity {n} outside 0..{pauli.STATE_CAP}")
        elif len(bits) != n:
            raise PBKernelError(f"state line {lineno}: inconsistent width")
        idx = index_of(bits)
        if idx in lines:
            raise PBKernelError(f"state line {lineno}: basis string {parts[0]} repeats line {lines[idx]}")
        lines[idx] = lineno
        re, im = (_ref_amplitude(token, lineno) for token in parts[1:])
        entries[idx] = pauli.ExactComplex(re, im)
    if n is None:
        raise PBKernelError("state file has no amplitude lines")
    return pauli.StateVector(n, [entries.get(i, Fraction(0)) for i in range(1 << n)])


def ref_cmd_parent_support(args):
    """``parent support`` as the CLI ran it when it built the statevector and
    had ``gadgets.support`` scan it back."""
    from pbkernel import cli

    sup = gadgets.support(ref_load_state(cli._read(args.statefile)))
    op = gadgets.support_parent(sup)
    payload = {
        "command": "parent support",
        "arity": sup.n,
        "support": sorted(cli._bitstring(x) for x in sup.members),
        "diag": [str(v) for v in op.diag],
    }
    human = [f"support size {len(sup.members)}"] + payload["support"]
    cli._emit(payload, args.json, human)
    return 0


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
