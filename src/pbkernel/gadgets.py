"""Gate gadgets, netlist composition, clamping, and support parents.

A gadget is a non-negative quadratic penalty whose kernel is exactly the
truth table of a Boolean gate, with inputs/output (and possibly slack)
variables in a fixed role order.  Sums of gadget penalties with shared
wires intersect their kernels, so a wired network's kernel is the set of
assignments that satisfy every gate simultaneously; clamping the output
to 1 and minimizing then enumerates the preimage of 1.

Every gadget is verified exhaustively at construction time:
non-negativity over all assignments and kernel projection equal to the
advertised truth table.  Each library gadget is built, and so verified,
once per process, on the first call of its builder; every later call
returns that same immutable :class:`Gadget`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationCapError, NetlistError
from .pbf import (DEFAULT_ENUMERATION_CAP, PseudoBoolean, _accumulate, _assignments, _count, _point_indices,
                  _swap_order, index_of)
from .pauli import STATE_CAP, DiagonalOperator, StateVector

ROLE_INPUT = "input"
ROLE_OUTPUT = "output"
ROLE_SLACK = "slack"


@dataclass(frozen=True)
class Gadget:
    """Penalty function embedding a gate's truth table in its kernel.

    ``roles`` labels each penalty variable; ``graph`` is the set of rows
    (inputs..., output) the kernel must project onto.  Construction runs
    the exhaustive soundness check.
    """

    name: str
    penalty: PseudoBoolean
    roles: tuple
    graph: frozenset

    def __post_init__(self):
        if len(self.roles) != self.penalty.n:
            raise ValueError("one role per penalty variable required")
        if any(r not in (ROLE_INPUT, ROLE_OUTPUT, ROLE_SLACK) for r in self.roles):
            raise ValueError(f"bad role in {self.roles}")
        check = self.penalty.is_nonnegative()
        if not check.ok:
            raise ValueError(f"{self.name}: penalty is negative at {check.witness}")
        visible = [i for i, r in enumerate(self.roles) if r != ROLE_SLACK]
        projected = {tuple(row[i] for i in visible) for row in self.penalty.kernel()}
        if projected != self.graph:
            raise ValueError(
                f"{self.name}: kernel projects to {sorted(projected)}, "
                f"expected {sorted(self.graph)}"
            )

    @property
    def num_inputs(self) -> int:
        return sum(1 for r in self.roles if r == ROLE_INPUT)

    @property
    def num_slacks(self) -> int:
        return sum(1 for r in self.roles if r == ROLE_SLACK)


def _gate_graph(num_inputs, fn):
    return frozenset(
        tuple(bits) + (fn(*bits),) for bits in product((0, 1), repeat=num_inputs)
    )


@functools.cache
def and_gadget() -> Gadget:
    """AND(x, y; p) = xy - 2xp - 2yp + 3p."""
    pen = PseudoBoolean.from_terms(
        3, {(0, 1): 1, (0, 2): -2, (1, 2): -2, (2,): 3}
    )
    return Gadget("and", pen, (ROLE_INPUT, ROLE_INPUT, ROLE_OUTPUT), _gate_graph(2, lambda a, b: a & b))


@functools.cache
def or_gadget() -> Gadget:
    """OR(x, y; p) = xy + x + y - 2xp - 2yp + p."""
    pen = PseudoBoolean.from_terms(
        3, {(0, 1): 1, (0,): 1, (1,): 1, (0, 2): -2, (1, 2): -2, (2,): 1}
    )
    return Gadget("or", pen, (ROLE_INPUT, ROLE_INPUT, ROLE_OUTPUT), _gate_graph(2, lambda a, b: a | b))


@functools.cache
def not_gadget() -> Gadget:
    """NOT(x; p) = (x + p - 1)^2 = 2xp - x - p + 1."""
    pen = PseudoBoolean.from_terms(2, {(0, 1): 2, (0,): -1, (1,): -1, (): 1})
    return Gadget("not", pen, (ROLE_INPUT, ROLE_OUTPUT), _gate_graph(1, lambda a: 1 - a))


@functools.cache
def xor_gadget() -> Gadget:
    """XOR(x, y; p, s) = (x + y - p - 2s)^2 with one slack s.

    A quadratic kernel embedding of parity needs a slack variable; this
    one is the half-adder identity x + y = (x xor y) + 2(x and y) squared,
    so on the kernel the slack carries the AND of the inputs.
    """
    n = 4
    lin = (
        PseudoBoolean.variable(n, 0)
        + PseudoBoolean.variable(n, 1)
        - PseudoBoolean.variable(n, 2)
        - 2 * PseudoBoolean.variable(n, 3)
    )
    pen = lin * lin
    return Gadget(
        "xor",
        pen,
        (ROLE_INPUT, ROLE_INPUT, ROLE_OUTPUT, ROLE_SLACK),
        _gate_graph(2, lambda a, b: a ^ b),
    )


GATE_BUILDERS = {
    "and": and_gadget,
    "or": or_gadget,
    "not": not_gadget,
    "xor": xor_gadget,
}


def _slack_name(gate: int, j: int) -> str:
    """The generated wire name of slack pin j of the gate at position ``gate``."""
    return f"__slack{gate}_{j}"


@dataclass(frozen=True)
class GateInstance:
    type: str
    inputs: tuple
    output: str


@dataclass(frozen=True)
class Netlist:
    """Wiring of gadget instances plus clamp pins.

    Wires are variable names; using a gate's output name as another
    gate's input contracts the two legs.  Fan-out (one output feeding
    several inputs) is allowed; two gates driving one wire are not.
    Slack pins get generated names, ``__slack<gate>_<j>`` for slack j of
    the gate at position <gate>; a gate wire may not take one of them.
    """

    gates: tuple
    clamps: tuple = ()

    @classmethod
    def from_dict(cls, data: Mapping) -> "Netlist":
        """Read ``{"gates": [{"type", "inputs", "output"}, ...], "clamps": {wire: bit}}``.

        Wire names are strings, ``inputs`` is a list of them and clamp
        values are the ints 0 or 1 (not a bool, not a float); any other shape
        is a :class:`NetlistError`.
        """
        if not isinstance(data, Mapping):
            raise NetlistError(f"netlist must be an object, got {type(data).__name__}")
        entries = data.get("gates", [])
        if not isinstance(entries, (list, tuple)):
            raise NetlistError(f"'gates' must be a list of gate objects, got {type(entries).__name__}")
        gates = []
        for idx, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise NetlistError(f"gate {idx}: expected an object, got {type(entry).__name__}")
            missing = [key for key in ("type", "inputs", "output") if key not in entry]
            if missing:
                raise NetlistError(f"gate {idx}: missing {missing[0]!r}")
            inputs, output = entry["inputs"], entry["output"]
            if not isinstance(inputs, (list, tuple)):
                raise NetlistError(f"gate {idx}: 'inputs' must be a list of wire names")
            if not all(isinstance(w, str) for w in (*inputs, output)):
                raise NetlistError(f"gate {idx}: wire names must be strings")
            gates.append(GateInstance(str(entry["type"]).lower(), tuple(inputs), output))
        clamps = data.get("clamps", {})
        if not isinstance(clamps, Mapping):
            raise NetlistError(f"'clamps' must be an object, got {type(clamps).__name__}")
        for wire, value in clamps.items():
            if type(value) is not int or value not in (0, 1):  # not true, not 1.0
                raise NetlistError(f"clamp on wire {wire!r}: value must be 0 or 1, got {value!r}")
        return cls(tuple(gates), tuple(sorted((str(k), v) for k, v in clamps.items())))

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        return cls.from_dict(json.loads(text))

    def _validated_gadgets(self) -> list:
        out = []
        drivers = set()
        for idx, inst in enumerate(self.gates):
            builder = GATE_BUILDERS.get(inst.type)
            if builder is None:
                raise NetlistError(f"gate {idx}: unknown type {inst.type!r}")
            gadget = builder()
            if len(inst.inputs) != gadget.num_inputs:
                raise NetlistError(
                    f"gate {idx} ({inst.type}): takes {gadget.num_inputs} inputs, "
                    f"got {len(inst.inputs)}"
                )
            if inst.output in drivers:
                raise NetlistError(f"wire {inst.output!r} is driven by two gates")
            if inst.output in inst.inputs:
                raise NetlistError(f"gate {idx}: output {inst.output!r} feeds itself")
            drivers.add(inst.output)
            out.append(gadget)
        return out

    def variable_order(self) -> list:
        """All wire names (generated slack names included), sorted."""
        gadgets = self._validated_gadgets()
        slacks = {_slack_name(idx, j): idx for idx, g in enumerate(gadgets) for j in range(g.num_slacks)}
        names = set(slacks)
        for idx, inst in enumerate(self.gates):
            for wire in (*inst.inputs, inst.output):
                if wire in slacks:
                    raise NetlistError(
                        f"gate {idx}: wire {wire!r} is the generated name of a slack of gate {slacks[wire]}"
                    )
                names.add(wire)
        for name, _ in self.clamps:
            if name not in names:
                raise NetlistError(f"clamp on unknown wire {name!r}")
        return sorted(names)


def compose(netlist: Netlist) -> PseudoBoolean:
    """Sum of member penalties after wire identification, clamps applied.

    By the sum-to-intersection rule the kernel of the sum is the set of
    wire assignments satisfying every gate's truth table at once.
    """
    gadgets = netlist._validated_gadgets()
    names = netlist.variable_order()
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    clamp_names = [name for name, _ in netlist.clamps]
    if len(set(clamp_names)) != len(clamp_names):
        raise NetlistError("a wire is clamped more than once")
    seated = []  # every re-seated gadget, summed in gate order
    for idx, (inst, gadget) in enumerate(zip(netlist.gates, gadgets)):
        mapping = []
        input_iter = iter(inst.inputs)
        slack_counter = 0
        for role in gadget.roles:
            if role == ROLE_INPUT:
                mapping.append(index[next(input_iter)])
            elif role == ROLE_OUTPUT:
                mapping.append(index[inst.output])
            else:
                mapping.append(index[_slack_name(idx, slack_counter)])
                slack_counter += 1
        seated.append(gadget.penalty.embed(arity, mapping))
    total = PseudoBoolean._sum(arity, seated)
    for name, value in sorted(netlist.clamps, key=lambda kv: -index[kv[0]]):
        total = clamp(total, index[name], value)
    return total


def clamp(f: PseudoBoolean, var: int, value: int) -> PseudoBoolean:
    """Substitute a constant for one variable and drop it.

    The arity shrinks by one and higher variable indices shift down.
    """
    var = _count(var, "variable index")  # True and 1.0 name no variable; np.int64(1) does
    if not 0 <= var < f.n:
        raise ValueError(f"variable {var} out of range for arity {f.n}")
    value = _count(value, "clamp value")  # True and 1.0 are not bits; np.int64(1) is
    if value not in (0, 1):
        raise ValueError(f"clamp value must be 0 or 1, got {value!r}")
    bit = 1 << var
    low = bit - 1
    # keep the bits below var and shift those above it down one; bit var itself drops out
    pairs = (((m & low) | (m >> 1 & ~low), c) for m, c in f._terms.items() if value or not m & bit)
    return PseudoBoolean._of(f.n - 1, _accumulate({}, pairs), f._den)


class MinimizeResult(NamedTuple):
    value: Fraction
    argmin: frozenset  # all minimizing assignments


def minimize_bruteforce(
    f: PseudoBoolean, cap: int = DEFAULT_ENUMERATION_CAP
) -> MinimizeResult:
    """Exact global minimum and the full argmin set over {0,1}^n.

    The minimum and the argmin are read off the integer cube array, which is
    in varmask order, so the argmin tuples come out in that order.  The
    ``Fraction`` table is still built first: it raises the cap refusal with
    its message, the value is its shared ``Fraction`` at the first minimizer,
    and it is the one call through which ``gadget compose --minimize``
    reaches ``to_disjoint_form``, which the benchmark self-test pins for the
    cli-mix workload.  Dropping the table (one ``Fraction`` for the value) is
    the last step of the ROADMAP's minimize-on-the-cube item, once the
    benchmark re-pins that call.
    """
    table = f.to_disjoint_form(cap=cap)
    vals, _ = f._cube_values(cap, "disjoint-form table")
    argmin = _assignments(np.flatnonzero(vals == vals.min()), f.n)
    return MinimizeResult(table[index_of(argmin[0])], frozenset(argmin))


def sat_embed(clauses: Sequence[Sequence[int]], num_vars: int) -> PseudoBoolean:
    """Non-negative penalty whose kernel is the satisfying set of a CNF.

    Clauses use DIMACS literals (1-based, negative = complemented) of
    width 1..3.  Width-2 clauses clamp an OR gadget's output to 1, which
    reduces to the product of the complemented literals; width-3 clauses
    chain two ORs and keep the intermediate wire as one slack variable.
    Slack variables are appended after the problem variables in clause
    order, so kernel rows project onto the first ``num_vars`` positions.
    """
    clauses = [tuple(cl) for cl in clauses]
    if not clauses:
        raise ValueError("empty formula")
    for cl in clauses:
        if not 1 <= len(cl) <= 3:
            raise ValueError(f"clause width {len(cl)} not in 1..3")
        for lit in cl:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"bad literal {lit} for {num_vars} variables")
    slack_total = sum(1 for cl in clauses if len(cl) == 3)
    arity = num_vars + slack_total

    def literal(lit: int) -> PseudoBoolean:
        v = PseudoBoolean.variable(arity, abs(lit) - 1)
        return v if lit > 0 else 1 - v

    def or_penalty(a: PseudoBoolean, b: PseudoBoolean, p: PseudoBoolean) -> PseudoBoolean:
        return a * b + a + b - 2 * a * p - 2 * b * p + p

    total = PseudoBoolean.zero(arity)
    slack_idx = num_vars
    for cl in clauses:
        lits = [literal(lit) for lit in cl]
        if len(cl) == 1:
            total = total + (1 - lits[0])
        elif len(cl) == 2:
            total = total + (1 - lits[0]) * (1 - lits[1])
        else:
            w = PseudoBoolean.variable(arity, slack_idx)
            slack_idx += 1
            total = total + or_penalty(lits[0], lits[1], w)
            total = total + (1 - w) * (1 - lits[2])
    return total


class SupportSet(NamedTuple):
    """Basis strings carrying nonzero amplitude (a state's flattening)."""

    n: int
    members: frozenset


def support(v: StateVector, tol: float = 1e-12) -> SupportSet:
    """Exact for rational amplitudes; |amp| > tol for float amplitudes."""
    nonzero = np.flatnonzero(_swap_order(v._nonzero(tol), v.n))  # varmask order
    return SupportSet(v.n, frozenset(_assignments(nonzero, v.n)))


def support_parent(s: SupportSet) -> DiagonalOperator:
    """Diagonal indicator of the complement of the support.

    Annihilates exactly the span of the support strings; degenerate
    whenever the support has more than one element.
    """
    if not s.members:
        raise ValueError("empty support has no parent")
    if s.n > STATE_CAP:
        raise EnumerationCapError(f"arity {s.n} over diagonal cap {STATE_CAP}")
    nums = np.ones(1 << s.n, dtype=np.int64)
    nums[_point_indices(s.members, s.n)] = 0
    return DiagonalOperator._of(s.n, nums, 1)
