"""One-body penalty classification and the Ising Kernel decision procedure.

The classification side builds the elementary non-negative penalties:
one-body forms c_0 + sum c_k x_k^(tau_k) with their closed-form kernels,
the product of two one-body forms whose kernel is {0^n, 1^n}, and the
squared form with a one-dimensional kernel.

The decision side answers: given a set S of bit strings, is there a
quadratic diagonal (Ising) form vanishing exactly on S and positive
elsewhere?  The open-cone existence question is scale invariant, so it
is normalized to the margin system

    f(s) = 0  for s in S,      f(x) >= 1  for x not in S,

over the 1 + n + n(n-1)/2 unknowns (c0, h_l, J_lk of the Z-basis form).
Feasibility is decided by an exact-rational two-phase simplex with
Bland's rule; the margin system itself has 2^n rows, so the solve runs
on its dual (whose row count is the number of unknowns) and recovers
either a coefficient vector (from the optimal dual multipliers) or a
Farkas certificate (from the unbounded ray).  Both outcomes are
re-verified exhaustively in exact arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError
from .pbf import PseudoBoolean, _coerce, _point_indices, _swap_order, bits_of, spin_to_boolean

#: brute-force cap for the realizability decision (2^n constraint rows)
REALIZABILITY_CAP = 12


# ---------------------------------------------------------------------------
# one-body forms and their derived models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneBodyForm:
    """g = offset + sum_k coeffs[k] * x_k^(tau[k]).

    ``tau[k] = 1`` keeps x_k, ``tau[k] = 0`` complements it (1 - x_k).
    Coefficients and offset are restricted to non-negative rationals,
    which keeps the form a penalty function.
    """

    coeffs: tuple
    tau: tuple
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        coeffs = tuple(_coerce(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", _coerce(self.offset))
        if len(self.tau) != len(coeffs):
            raise DimensionError("tau and coefficient lengths differ")
        if any(t not in (0, 1) for t in self.tau):
            raise ValueError("tau entries must be bits")
        if any(c < 0 for c in coeffs):
            raise ValueError("one-body coefficients must be non-negative")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    @property
    def n(self) -> int:
        return len(self.coeffs)


def one_body(form: OneBodyForm) -> PseudoBoolean:
    """Expand the one-body form into its multilinear polynomial."""
    n = form.n
    terms: dict = {(): form.offset}
    for k, (c, t) in enumerate(zip(form.coeffs, form.tau)):
        if c == 0:
            continue
        if t == 1:
            terms[(k,)] = terms.get((k,), Fraction(0)) + c
        else:
            terms[()] = terms.get((), Fraction(0)) + c
            terms[(k,)] = terms.get((k,), Fraction(0)) - c
    return PseudoBoolean.from_terms(n, terms)


class OneBodyKernel(NamedTuple):
    """Closed-form kernel description of a one-body form.

    Positions with positive coefficient are pinned to the complement of
    tau; zero-coefficient positions are free.  ``assignments`` is the
    explicit kernel set when the arity is small enough to enumerate.
    """

    pinned: dict
    free: tuple
    empty: bool
    assignments: frozenset | None


def one_body_kernel(form: OneBodyForm, explicit_cap: int = 20) -> OneBodyKernel:
    if form.offset > 0:
        return OneBodyKernel({}, (), True, frozenset())
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
    return OneBodyKernel(pinned, free, False, assignments)


def ghz_quadratic(c: Sequence, a: Sequence) -> PseudoBoolean:
    """(sum c_k x_k) * (sum a_k - sum a_k x_k); kernel {0^n, 1^n}.

    The kernel statement needs every coefficient strictly positive: a
    zero c_k (or a_k) frees that bit in the corresponding factor and the
    kernel grows past the two fully-aligned strings.
    """
    c = [_coerce(v) for v in c]
    a = [_coerce(v) for v in a]
    if len(c) != len(a) or not c:
        raise DimensionError("coefficient vectors must share a positive length")
    if any(v < 0 for v in c + a):
        raise ValueError("coefficients must be non-negative")
    if any(v == 0 for v in c + a):
        warnings.warn("zero coefficient: kernel may strictly contain {0^n, 1^n}", stacklevel=2)
    n = len(c)
    first = PseudoBoolean.from_terms(n, {(k,): c[k] for k in range(n)})
    second = PseudoBoolean.constant(n, sum(a, Fraction(0))) + PseudoBoolean.from_terms(
        n, {(k,): -a[k] for k in range(n)}
    )
    return first * second


def square_form(form: OneBodyForm) -> PseudoBoolean:
    """f^2 for a one-body f; with offset 0 and all c_k > 0 the kernel is
    the single string complementing tau, and the spectrum is the set of
    squared one-body energies."""
    if any(c == 0 for c in form.coeffs):
        warnings.warn("zero coefficient: squared kernel is degenerate", stacklevel=2)
    f = one_body(form)
    return f * f


# ---------------------------------------------------------------------------
# exact-rational linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPInstance:
    """min/max objective . x subject to eq rows (= rhs), geq rows (>= rhs).

    ``nonneg[i]`` constrains x_i >= 0; False leaves it free.  All data is
    coerced to Fraction.
    """

    num_vars: int
    objective: tuple
    eq: tuple = ()
    geq: tuple = ()
    nonneg: tuple = ()
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        obj = tuple(_coerce(v) for v in self.objective)
        if len(obj) != self.num_vars:
            raise DimensionError("objective length != num_vars")
        nonneg = tuple(self.nonneg) if self.nonneg else (True,) * self.num_vars
        if len(nonneg) != self.num_vars:
            raise DimensionError("nonneg length != num_vars")

        def rows(raw):
            out = []
            for coeffs, rhs in raw:
                coeffs = tuple(_coerce(v) for v in coeffs)
                if len(coeffs) != self.num_vars:
                    raise DimensionError("row width != num_vars")
                out.append((coeffs, _coerce(rhs)))
            return tuple(out)

        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "nonneg", nonneg)
        object.__setattr__(self, "eq", rows(self.eq))
        object.__setattr__(self, "geq", rows(self.geq))

    def row_refs(self) -> list:
        return [("eq", i) for i in range(len(self.eq))] + [
            ("geq", i) for i in range(len(self.geq))
        ]


@dataclass
class SimplexResult:
    """Outcome of an exact simplex solve.

    * optimal: ``x`` and ``value`` are set; ``duals`` holds one exact
      multiplier per row (eq rows first) satisfying LP duality for the
      solved sense.
    * infeasible: ``certificate`` lists (row reference, multiplier)
      pairs; the combination cancels every variable and leaves the
      contradiction 0 >= 1.
    * unbounded: ``ray`` is an improving feasible direction by variable
      index.
    """

    status: str
    x: tuple | None = None
    value: Fraction | None = None
    duals: tuple | None = None
    certificate: list | None = None
    ray: dict | None = None


class _Tableau:
    """Dense exact simplex tableau with Bland's anti-cycling rule."""

    def __init__(self, lp: LPInstance):
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
    def ncols(self) -> int:
        return len(self.cols)

    def _pivot(self, r: int, j: int, z: list) -> None:
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

    def run(self, cost: list, banned: set) -> list:
        """Bland-rule simplex on the given cost vector; returns the final
        reduced-cost row.  Raises on unbounded via _Unbounded."""
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
                raise _Unbounded(enter)
            self._pivot(leave, enter, z)

    def objective_value(self, cost: list) -> Fraction:
        return sum(
            (cost[b] * self.rhs[i] for i, b in enumerate(self.basis)), Fraction(0)
        )

    def solution(self) -> list:
        x = [Fraction(0)] * self.lp.num_vars
        for i, b in enumerate(self.basis):
            kind = self.cols[b]
            if kind[0] == "var":
                x[kind[1]] += kind[2] * self.rhs[i]
        return x

    def row_multipliers(self, cost: list, z: list) -> list:
        """Multipliers per original row from the initial identity columns."""
        out = []
        for i in range(len(self.matrix)):
            j = self.init_col[i]
            y = cost[j] - z[j]
            out.append(self.sigma[i] * y)
        return out


class _Unbounded(Exception):
    def __init__(self, col):
        self.col = col


def simplex_solve(lp: LPInstance) -> SimplexResult:
    """Exact two-phase simplex; every exit path is verified exactly.

    Feasible points satisfy all rows by substitution, infeasibility
    certificates are checked to cancel all variables with positive
    right-hand side, and unbounded rays are checked to be feasible
    improving directions.
    """
    tab = _Tableau(lp)
    m = len(tab.matrix)

    # phase 1: minimize the artificial sum
    if tab.artificial:
        cost1 = [Fraction(1) if j in tab.artificial else Fraction(0) for j in range(tab.ncols)]
        z1 = tab.run(cost1, banned=set())
        value1 = tab.objective_value(cost1)
        if value1 > 0:
            mults = tab.row_multipliers(cost1, z1)
            certificate = _infeasibility_certificate(lp, mults, value1)
            return SimplexResult(status="infeasible", certificate=certificate)
        # drive leftover artificials out of the basis (degenerate pivots;
        # their rows carry rhs 0, so any nonzero entry will do)
        for i in range(m):
            if tab.basis[i] in tab.artificial:
                for j in range(tab.ncols):
                    if j not in tab.artificial and tab.matrix[i][j] != 0:
                        tab._pivot(i, j, z1)
                        break

    # phase 2
    sign = 1 if lp.sense == "min" else -1
    cost2 = [Fraction(0)] * tab.ncols
    for j, col in enumerate(tab.cols):
        if col[0] == "var":
            cost2[j] = sign * col[2] * lp.objective[col[1]]
    try:
        z2 = tab.run(cost2, banned=tab.artificial)
    except _Unbounded as unb:
        ray = _extract_ray(tab, unb.col)
        _check_ray(lp, ray)
        return SimplexResult(status="unbounded", ray=ray)
    x = tab.solution()
    value = sum((lp.objective[v] * x[v] for v in range(lp.num_vars)), Fraction(0))
    _check_point(lp, x)
    mults = tab.row_multipliers(cost2, z2)
    duals = tuple(sign * y for y in mults)
    _check_duals(lp, duals, value)
    return SimplexResult(status="optimal", x=tuple(x), value=value, duals=duals)


def _infeasibility_certificate(lp: LPInstance, mults: list, value1: Fraction) -> list:
    refs = lp.row_refs()
    scaled = [y / value1 for y in mults]
    cert = [(ref, y) for ref, y in zip(refs, scaled) if y != 0]
    verify_certificate(lp, cert)
    return cert


def verify_certificate(lp: LPInstance, cert: list) -> None:
    """Exact check that a certificate proves 0 >= 1.

    The weighted row combination must cancel free variables, have
    non-positive weight on sign-constrained variables, use non-negative
    multipliers on inequality rows, and combine right-hand sides to a
    positive value (normalized to 1).
    """
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


def _check_point(lp: LPInstance, x: list) -> None:
    for v in range(lp.num_vars):
        if lp.nonneg[v] and x[v] < 0:
            raise AssertionError("negative value on a sign-constrained variable")
    for coeffs, rhs in lp.eq:
        if sum((c * xv for c, xv in zip(coeffs, x)), Fraction(0)) != rhs:
            raise AssertionError("equality row violated")
    for coeffs, rhs in lp.geq:
        if sum((c * xv for c, xv in zip(coeffs, x)), Fraction(0)) < rhs:
            raise AssertionError("inequality row violated")


def _check_duals(lp: LPInstance, duals: tuple, value: Fraction) -> None:
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


def _extract_ray(tab: _Tableau, enter: int) -> dict:
    ray_std = {enter: Fraction(1)}
    for i, b in enumerate(tab.basis):
        a = tab.matrix[i][enter]
        if a:
            ray_std[b] = -a
    ray: dict = {}
    for j, delta in ray_std.items():
        col = tab.cols[j]
        if col[0] == "var":
            ray[col[1]] = ray.get(col[1], Fraction(0)) + col[2] * delta
    return {v: d for v, d in ray.items() if d}


def _check_ray(lp: LPInstance, ray: dict) -> None:
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


# ---------------------------------------------------------------------------
# the Ising Kernel decision
# ---------------------------------------------------------------------------


def _pair_order(n: int) -> list:
    return [(l, k) for l in range(n) for k in range(l + 1, n)]


def _features(bits: Sequence[int], pairs: list) -> list:
    zs = [1 - 2 * b for b in bits]
    return [1] + zs + [zs[l] * zs[k] for l, k in pairs]


@dataclass
class QuadraticRealization:
    """Answer to the Ising Kernel Problem for a target set S.

    Feasible: Z-basis coefficients of a diagonal quadratic form that is
    zero on S and >= 1 elsewhere.  Infeasible: an exact Farkas
    certificate, i.e. non-negative multipliers on the margin rows
    combining to 0 >= 1.
    """

    feasible: bool
    n: int
    constant: Fraction | None = None
    fields: tuple | None = None
    couplings: dict | None = None
    certificate: list | None = None

    def _boolean_form(self) -> PseudoBoolean:
        fields = {(l,): h for l, h in enumerate(self.fields)}
        spin = PseudoBoolean.from_terms(self.n, {(): self.constant, **fields, **self.couplings})
        return spin_to_boolean(spin)

    def energy(self, bits: Sequence[int]) -> Fraction:
        if not self.feasible:
            raise ValueError("infeasible realization has no energy function")
        return self._boolean_form().eval(bits)

    def verify(self, target: set) -> bool:
        """Exhaustive margin check, uncapped (the decision capped n): the
        scaled values denom * f(x) must be 0 on S and at least denom off S."""
        if not self.feasible:
            return False
        vals, denom = self._boolean_form()._cube_values(self.n, "margin check")
        on_s = np.zeros(vals.size, dtype=bool)
        on_s[_point_indices(target, self.n)] = True
        vals = _swap_order(vals, self.n)
        return bool((vals[on_s] == 0).all() and (vals[~on_s] >= denom).all())

    def to_dict(self) -> dict:
        if self.feasible:
            return {
                "feasible": True,
                "c0": str(self.constant),
                "h": [str(h) for h in self.fields],
                "J": [
                    [l + 1, k + 1, str(j)]
                    for (l, k), j in sorted(self.couplings.items())
                    if j
                ],
            }
        return {
            "feasible": False,
            "certificate": [
                ["".join(map(str, bits)), str(mult)] for bits, mult in self.certificate
            ],
        }


def quadratic_realizability(
    S, n: int, cap: int = REALIZABILITY_CAP
) -> QuadraticRealization:
    """Decide whether some quadratic Ising form has kernel exactly S.

    For diagonal operators the span condition of the Ising Kernel
    Problem reduces to the set-level margin system; see the module
    docstring for the normalization and the dual-form solve.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        raise EnumerationCapError(f"2^{n} margin rows exceed cap 2^{cap}")
    target = set()
    for item in S:
        bits = tuple(int(b) for b in item)
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"bad bit string {item!r} for n = {n}")
        target.add(bits)
    if not target:
        raise ValueError("S must be nonempty")

    pairs = _pair_order(n)
    dim = 1 + n + len(pairs)
    s_list = sorted(target)
    others = [
        bits_of(idx, n) for idx in range(1 << n) if bits_of(idx, n) not in target
    ]
    feat = {bits: _features(bits, pairs) for bits in s_list + others}

    # dual of {phi(s).w = 0, phi(x).w >= 1}: free v per s row, u >= 0 per
    # x row, maximize sum(u) subject to sum v phi(s) + sum u phi(x) = 0.
    num_vars = len(s_list) + len(others)
    lp = LPInstance(
        num_vars=num_vars,
        objective=[Fraction(0)] * len(s_list) + [Fraction(1)] * len(others),
        eq=[
            (
                [feat[b][d] for b in s_list] + [feat[b][d] for b in others],
                Fraction(0),
            )
            for d in range(dim)
        ],
        nonneg=[False] * len(s_list) + [True] * len(others),
        sense="max",
    )
    result = simplex_solve(lp)
    if result.status == "optimal":
        if result.value != 0:
            raise AssertionError("dual optimum must be zero when the margin system is feasible")
        w = result.duals
        constant = w[0]
        fields = tuple(w[1 + l] for l in range(n))
        couplings = {pair: w[1 + n + i] for i, pair in enumerate(pairs)}
        real = QuadraticRealization(
            feasible=True,
            n=n,
            constant=constant,
            fields=fields,
            couplings=couplings,
        )
        if not real.verify(target):
            raise AssertionError("recovered coefficients fail the margin re-verification")
        return real
    if result.status != "unbounded":
        raise AssertionError(f"unexpected simplex status {result.status}")
    ray = result.ray
    total = sum(
        (ray.get(len(s_list) + i, Fraction(0)) for i in range(len(others))), Fraction(0)
    )
    if total <= 0:
        raise AssertionError("unbounded ray carries no inequality mass")
    certificate = []
    for i, bits in enumerate(s_list):
        mult = ray.get(i, Fraction(0)) / total
        if mult:
            certificate.append((bits, mult))
    for i, bits in enumerate(others):
        mult = ray.get(len(s_list) + i, Fraction(0)) / total
        if mult:
            certificate.append((bits, mult))
    real = QuadraticRealization(feasible=False, n=n, certificate=certificate)
    verify_infeasibility(real, target, n)
    return real


def verify_infeasibility(
    real: QuadraticRealization, target: set, n: int
) -> None:
    """Exact Farkas check: the certificate multipliers cancel every
    feature column, are non-negative off S, and carry unit total mass on
    the margin rows, so any form vanishing on S would need 0 >= 1."""
    pairs = _pair_order(n)
    dim = 1 + n + len(pairs)
    combo = [Fraction(0)] * dim
    mass = Fraction(0)
    for bits, mult in real.certificate:
        if bits not in target:
            if mult < 0:
                raise AssertionError("negative multiplier on a margin row")
            mass += mult
        phi = _features(bits, pairs)
        for d in range(dim):
            combo[d] += mult * phi[d]
    if any(c != 0 for c in combo):
        raise AssertionError("certificate does not cancel the feature columns")
    if mass <= 0:
        raise AssertionError("certificate has no mass on the margin rows")
