"""Independent exact oracles for the benchmark's output checks.

Nothing here imports pbkernel.  Every expected answer is computed from
the generated inputs with the benchmark's own code: integer value tables
through an int64 subset-sum (zeta) transform, direct evaluation of Ising
forms in Fractions, and a plain simulation of gate netlists.  A checker
raises :class:`CheckFailed` when an answer disagrees.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np


class CheckFailed(Exception):
    """A library answer disagreed with the benchmark's own oracle."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def bits_of_mask(mask: int, n: int) -> tuple:
    """Assignment tuple (entry i = variable i) of a varmask."""
    return tuple((mask >> i) & 1 for i in range(n))


def bitstring(bits) -> str:
    return "".join(str(b) for b in bits)


# -- integer value tables -------------------------------------------------


def value_table(n: int, terms: dict) -> np.ndarray:
    """f(x) for every x, indexed by varmask (bit i = variable i).

    ``terms`` maps monomial masks to ints.  The zeta transform adds each
    lower half-cube into the upper one, axis by axis; every partial sum
    is bounded by the sum of absolute coefficients, checked below.
    """
    if sum(abs(c) for c in terms.values()) >= 1 << 62:
        raise ValueError("coefficients too large for the int64 oracle")
    vals = np.zeros(1 << n, dtype=np.int64)
    for mask, c in terms.items():
        vals[mask] += c
    cube = vals.reshape((2,) * n) if n else vals
    for axis in range(n):
        lead = (slice(None),) * axis
        cube[lead + (1,)] += cube[lead + (0,)]
    return vals


def state_order(vals: np.ndarray, n: int) -> np.ndarray:
    """Reorder a varmask-indexed table so variable 0 is the top index bit."""
    if n == 0:
        return vals
    return vals.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1))).ravel()


def weights(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    w = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        w += (idx >> i) & 1
    return w


def weight_profile(n: int, vals: np.ndarray):
    """Values per Hamming weight if f is symmetric, else None."""
    w = weights(n)
    profile = []
    for k in range(n + 1):
        at = vals[w == k]
        if (at != at[0]).any():
            return None
        profile.append(int(at[0]))
    return profile


def literal_product(mask_pos: int, mask_neg: int) -> dict:
    """Multilinear expansion of prod_{i in pos} x_i * prod_{j in neg} (1 - x_j)."""
    out = {mask_pos: 1}
    neg = mask_neg
    while neg:
        bit = neg & -neg
        neg ^= bit
        nxt: dict = {}
        for m, c in out.items():
            nxt[m] = nxt.get(m, 0) + c
            nxt[m | bit] = nxt.get(m | bit, 0) - c
        out = nxt
    return out


def add_terms(acc: dict, terms: dict, scale: int = 1) -> dict:
    for m, c in terms.items():
        s = acc.get(m, 0) + scale * c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


# -- enum checks ------------------------------------------------------------


def check_kernel(n: int, terms: dict, kernel) -> None:
    vals = value_table(n, terms)
    want = {bits_of_mask(m, n) for m in np.flatnonzero(vals == 0).tolist()}
    expect(set(kernel) == want, f"kernel has {len(kernel)} points, oracle {len(want)}")


def check_nonnegative(n: int, terms: dict, ok: bool, witness) -> None:
    vals = value_table(n, terms)
    expect(ok == bool(vals.min() >= 0), f"non-negativity verdict {ok} is wrong")
    if not ok:
        expect(witness is not None and len(witness) == n, "missing witness")
        mask = sum(b << i for i, b in enumerate(witness))
        expect(vals[mask] < 0, f"witness {bitstring(witness)} is not negative")


def check_minimum(n: int, terms: dict, value, argmin) -> None:
    vals = value_table(n, terms)
    best = int(vals.min())
    expect(value == best, f"minimum {value} != oracle {best}")
    want = {bits_of_mask(m, n) for m in np.flatnonzero(vals == best).tolist()}
    expect(set(argmin) == want, f"argmin has {len(argmin)} points, oracle {len(want)}")


def check_symmetry(n: int, terms: dict, profile, witness, rebuilt_terms) -> None:
    vals = value_table(n, terms)
    want = weight_profile(n, vals)
    if want is not None:
        expect(profile is not None, "symmetric input reported asymmetric")
        expect(list(profile) == want, "weight profile differs from the oracle")
        expect(rebuilt_terms == terms, "the profile does not expand back to the input")
        return
    expect(profile is None, "asymmetric input reported symmetric")
    a, b = witness
    ma = sum(v << i for i, v in enumerate(a))
    mb = sum(v << i for i, v in enumerate(b))
    expect(sum(a) == sum(b), "witness points have different weights")
    expect(vals[ma] != vals[mb], "witness points have equal values")


def check_round_trip(n: int, terms: dict, table, back_terms: dict) -> None:
    vals = state_order(value_table(n, terms), n).tolist()
    expect(len(table) == len(vals), "disjoint-form table has the wrong length")
    expect(list(table) == vals, "disjoint-form table differs from the oracle")
    expect(back_terms == terms, "Moebius inversion did not return the input coefficients")


# -- realizability checks ----------------------------------------------------


def features(bits, n: int) -> list:
    z = [1 - 2 * b for b in bits]
    return [1] + z + [z[l] * z[k] for l, k in combinations(range(n), 2)]


def check_realization(n: int, target: set, answer: dict, verdict) -> None:
    """``answer`` holds ``feasible`` and either c0/h/J or a certificate.

    ``verdict`` is the family's known answer, or None when unknown.
    Feasible: the form is 0 on S and >= 1 elsewhere on all 2^n strings.
    Infeasible: the multipliers cancel every feature, are non-negative
    off S, and put positive mass on the margin rows.
    """
    if verdict is not None:
        expect(answer["feasible"] == verdict, f"verdict {answer['feasible']} != known {verdict}")
    if answer["feasible"]:
        c0, h, J = answer["c0"], answer["h"], answer["J"]
        expect(len(h) == n, "wrong number of fields")
        for idx in range(1 << n):
            bits = tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
            z = [1 - 2 * b for b in bits]
            e = c0 + sum(h[l] * z[l] for l in range(n))
            e += sum(j * z[l] * z[k] for (l, k), j in J.items())
            if bits in target:
                expect(e == 0, f"form is {e} on target string {bitstring(bits)}")
            else:
                expect(e >= 1, f"form is {e} < 1 off the target at {bitstring(bits)}")
        return
    dim = 1 + n + n * (n - 1) // 2
    combo = [Fraction(0)] * dim
    mass = Fraction(0)
    for bits, mult in answer["certificate"]:
        expect(len(bits) == n, "certificate row has the wrong width")
        if bits not in target:
            expect(mult >= 0, "negative multiplier on a margin row")
            mass += mult
        for d, phi in enumerate(features(bits, n)):
            combo[d] += mult * phi
    expect(all(c == 0 for c in combo), "certificate does not cancel the features")
    expect(mass > 0, "certificate has no margin mass")


# -- netlists ------------------------------------------------------------------

GATES = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a: 1 - a,
}


def netlist_kernel(gates: list, clamps: dict) -> tuple:
    """Wire names and consistent assignments of a topologically ordered netlist.

    Returns (free wire names sorted, set of bit strings over them).  The
    XOR gadget's slack carries the AND of its inputs on the kernel.
    """
    driven = {g["output"] for g in gates}
    primaries = sorted({w for g in gates for w in g["inputs"]} - driven)
    names = set(primaries) | driven
    for idx, g in enumerate(gates):
        if g["type"] == "xor":
            names.add(f"__slack{idx}_0")
    free = sorted(n for n in names if n not in clamps)
    rows = set()
    for code in range(1 << len(primaries)):
        wire = {p: (code >> i) & 1 for i, p in enumerate(primaries)}
        for idx, g in enumerate(gates):
            ins = [wire[w] for w in g["inputs"]]
            wire[g["output"]] = GATES[g["type"]](*ins)
            if g["type"] == "xor":
                wire[f"__slack{idx}_0"] = ins[0] & ins[1]
        if all(wire[w] == v for w, v in clamps.items()):
            rows.add("".join(str(wire[w]) for w in free))
    return free, rows


# -- univariate polynomials ------------------------------------------------------


def poly_from_roots(scale: Fraction, roots) -> list:
    """Ascending coefficients of scale * prod (X - r)."""
    poly = [Fraction(scale)]
    for r in roots:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= r * c
        poly = nxt
    return poly


def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def numeric_roots_match(poly: list, scale: complex, roots: list, tol: float = 1e-6) -> bool:
    """scale * prod (X - root) reproduces ``poly`` (ascending) within tol."""
    acc = [complex(scale)]
    for r in roots:
        nxt = [0j] * (len(acc) + 1)
        for k, c in enumerate(acc):
            nxt[k + 1] += c
            nxt[k] -= r * c
        acc = nxt
    if len(acc) != len(poly):
        return False
    size = max(abs(float(c)) for c in poly)
    return all(abs(a - float(c)) <= tol * size for a, c in zip(acc, poly))


def symmetric_terms(n: int, values) -> dict:
    """Multilinear coefficients (by mask) of the symmetric function with
    the given value per Hamming weight (Moebius inversion over weights)."""
    out = {}
    for k in range(n + 1):
        a = sum((-1) ** (k - j) * comb(k, j) * Fraction(values[j]) for j in range(k + 1))
        if a:
            for vars_ in combinations(range(n), k):
                out[sum(1 << i for i in vars_)] = a
    return out


def eval_terms(terms: dict, bits) -> Fraction:
    xmask = sum(b << i for i, b in enumerate(bits))
    return sum((c for m, c in terms.items() if m & xmask == m), Fraction(0))


def expression_text(terms: dict) -> str:
    """Render {mask: coefficient} in the expression grammar (1-based x)."""
    if not terms:
        return "0"
    parts = []
    for mask in sorted(terms, key=lambda m: (bin(m).count("1"), m)):
        c = Fraction(terms[mask])
        factors = [f"x{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
