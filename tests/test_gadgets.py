"""Gate gadgets, netlist composition, clamping, SAT embedding, support."""

import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pbkernel import (
    Netlist,
    NetlistError,
    PseudoBoolean,
    StateVector,
    and_gadget,
    clamp,
    compose,
    embed_state,
    minimize_bruteforce,
    not_gadget,
    or_gadget,
    parse,
    sat_embed,
    support,
    support_parent,
    symmetric_ising,
    xor_gadget,
)
from pbkernel import gadgets
from pbkernel.cli import main
from pbkernel.gadgets import GATE_BUILDERS, GateInstance
from conftest import assignments, cnf_solutions, random_pbf

DELTA3 = parse("1 - x1 - x2 - x3 + x2*x3 + x1*x3 + x1*x2")

GATE_SEMANTICS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "not": lambda a: 1 - a,
    "xor": lambda a, b: a ^ b,
}


class TestGateGadgets:
    def test_and_kernel(self):
        g = and_gadget()
        assert g.penalty.kernel() == {(a, b, a & b) for a, b in product((0, 1), repeat=2)}

    def test_or_penalizes_violations(self):
        g = or_gadget()
        assert g.penalty.eval((1, 1, 0)) == 3
        assert g.penalty.kernel() == {(a, b, a | b) for a, b in product((0, 1), repeat=2)}

    def test_not_is_perfect_square(self):
        g = not_gadget()
        square = parse("(x1 + x2 - 1)*(x1 + x2 - 1)")
        assert g.penalty == square

    def test_xor_projection_and_unique_slack(self):
        g = xor_gadget()
        rows = g.penalty.kernel()
        assert {(a, b, p) for a, b, p, _ in rows} == {
            (a, b, a ^ b) for a, b in product((0, 1), repeat=2)
        }
        # exactly one consistent slack per truth-table row; the slack is
        # the carry bit of the half adder
        by_visible = {}
        for a, b, p, s_val in rows:
            by_visible.setdefault((a, b, p), []).append(s_val)
        for (a, b, _), slacks in by_visible.items():
            assert slacks == [a & b]

    def test_bad_gadget_rejected(self):
        from pbkernel import Gadget

        negative = PseudoBoolean.variable(2, 0) - 1
        with pytest.raises(ValueError):
            Gadget("broken", negative, ("input", "output"), frozenset())


#: each gate type three times on shared wires: 3 inputs, 12 outputs, 3 slacks
CHAIN = {"gates": [
    {"type": t, "inputs": ins, "output": out}
    for t, ins, out in [
        ("and", ["a", "b"], "p1"), ("or", ["a", "c"], "p2"), ("xor", ["p1", "p2"], "p3"),
        ("not", ["p3"], "p4"), ("and", ["p4", "c"], "p5"), ("or", ["p5", "b"], "p6"),
        ("xor", ["p6", "a"], "p7"), ("not", ["p7"], "p8"), ("and", ["p8", "p2"], "p9"),
        ("or", ["p9", "p1"], "p10"), ("xor", ["p10", "c"], "p11"), ("not", ["p11"], "p12"),
    ]
]}


class TestOneBuildPerProcess:
    @pytest.mark.parametrize("builder", GATE_BUILDERS.values(), ids=GATE_BUILDERS)
    def test_every_call_returns_the_one_verified_gadget(self, builder):
        first = builder()
        assert builder() is first
        fresh = builder.__wrapped__()
        assert fresh is not first
        assert (fresh.name, fresh.penalty, fresh.roles, fresh.graph) == (
            first.name, first.penalty, first.roles, first.graph
        )

    def test_compose_verifies_each_gate_type_once(self, monkeypatch):
        checked = {"is_nonnegative": [], "kernel": []}  # the polynomial of each call
        for attr, calls in checked.items():
            check = getattr(PseudoBoolean, attr)
            monkeypatch.setattr(PseudoBoolean, attr,
                                lambda self, *a, check=check, calls=calls: calls.append(self) or check(self, *a))
        for builder in GATE_BUILDERS.values():
            builder.cache_clear()
        netlist = Netlist.from_dict(CHAIN)
        compose(netlist)
        penalties = sorted(id(builder().penalty) for builder in GATE_BUILDERS.values())
        assert {attr: sorted(map(id, calls)) for attr, calls in checked.items()} == {
            "is_nonnegative": penalties, "kernel": penalties
        }
        for calls in checked.values():
            calls.clear()
        compose(netlist)
        assert checked == {"is_nonnegative": [], "kernel": []}

    @pytest.mark.parametrize("clamps, count", [  # one kernel row per consistent input abc
        ([], 8),
        (["--clamp", "p12=1"], 5),  # abc in 000 001 010 100 111
        (["--clamp", "p3=0", "--clamp", "b=1"], 3),  # p1 = p2: abc in 010 110 111
    ])
    def test_json_matches_uncached_builders(self, capsys, monkeypatch, tmp_path, clamps, count):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(CHAIN))
        argv = ["gadget", "compose", str(path), *clamps, "--minimize", "--json"]
        outputs = []
        for builders in ({}, {key: b.__wrapped__ for key, b in GATE_BUILDERS.items()}):
            with monkeypatch.context() as patch:
                for key, builder in builders.items():
                    patch.setitem(gadgets.GATE_BUILDERS, key, builder)
                assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["minimum"] == "0" and len(payload["argmin"]) == count


class TestCompose:
    def or_and_netlist(self, clamps=()):
        return Netlist.from_dict(
            {
                "gates": [
                    {"type": "or", "inputs": ["x1", "x2"], "output": "w"},
                    {"type": "and", "inputs": ["w", "y2"], "output": "p"},
                ],
                "clamps": dict(clamps),
            }
        )

    def test_or_into_and_kernel(self):
        netlist = self.or_and_netlist()
        names = netlist.variable_order()
        assert names == ["p", "w", "x1", "x2", "y2"]
        penalty = compose(netlist)
        expect = set()
        for x1, x2, y2 in product((0, 1), repeat=3):
            w = x1 | x2
            row = {"x1": x1, "x2": x2, "y2": y2, "w": w, "p": w & y2}
            expect.add(tuple(row[name] for name in names))
        assert penalty.kernel() == expect

    def test_single_gadget_passthrough(self):
        netlist = Netlist.from_dict(
            {"gates": [{"type": "and", "inputs": ["a", "b"], "output": "c"}]}
        )
        penalty = compose(netlist)
        # names sort to [a, b, c], matching the gadget's own variable order
        assert penalty == and_gadget().penalty

    def test_kernel_is_intersection_of_members(self):
        netlist = self.or_and_netlist()
        names = netlist.variable_order()
        idx = {n: i for i, n in enumerate(names)}
        or_pen = or_gadget().penalty.embed(5, [idx["x1"], idx["x2"], idx["w"]])
        and_pen = and_gadget().penalty.embed(5, [idx["w"], idx["y2"], idx["p"]])
        assert compose(netlist).kernel() == or_pen.kernel() & and_pen.kernel()

    def test_random_networks_match_direct_evaluation(self, rng):
        for _ in range(10):
            num_inputs = rng.randint(2, 3)
            wires = [f"in{i}" for i in range(num_inputs)]
            gates = []
            for gi in range(rng.randint(1, 4)):
                gtype = rng.choice(["and", "or", "not", "xor"])
                k = 1 if gtype == "not" else 2
                inputs = [rng.choice(wires) for _ in range(k)]
                out = f"g{gi}"
                gates.append({"type": gtype, "inputs": inputs, "output": out})
                wires.append(out)
            netlist = Netlist.from_dict({"gates": gates})
            names = netlist.variable_order()
            named = [n for n in names if not n.startswith("__slack")]
            penalty = compose(netlist)
            expect = set()
            for bits in product((0, 1), repeat=num_inputs):
                values = {f"in{i}": b for i, b in enumerate(bits)}
                for g in gates:
                    values[g["output"]] = GATE_SEMANTICS[g["type"]](
                        *(values[w] for w in g["inputs"])
                    )
                expect.add(tuple(values[n] for n in named))
            visible = [names.index(n) for n in named]
            got = {tuple(row[i] for i in visible) for row in penalty.kernel()}
            assert got == expect
            assert penalty.is_nonnegative().ok

    def test_fan_out_allowed(self):
        netlist = Netlist.from_dict(
            {
                "gates": [
                    {"type": "not", "inputs": ["a"], "output": "na"},
                    {"type": "and", "inputs": ["na", "na"], "output": "c"},
                ]
            }
        )
        penalty = compose(netlist)  # names [a, c, na]
        assert penalty.kernel() == {(0, 1, 1), (1, 0, 0)}

    def test_double_driver_rejected(self):
        with pytest.raises(NetlistError):
            compose(
                Netlist.from_dict(
                    {
                        "gates": [
                            {"type": "not", "inputs": ["a"], "output": "w"},
                            {"type": "not", "inputs": ["b"], "output": "w"},
                        ]
                    }
                )
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(NetlistError):
            compose(Netlist.from_dict({"gates": [{"type": "nand", "inputs": ["a", "b"], "output": "c"}]}))

    def test_self_loop_rejected(self):
        with pytest.raises(NetlistError):
            compose(Netlist.from_dict({"gates": [{"type": "not", "inputs": ["a"], "output": "a"}]}))

    def test_duplicate_clamp_rejected(self):
        with pytest.raises(NetlistError):
            compose(
                Netlist(
                    (GateInstance("not", ("a",), "b"),),
                    (("b", 0), ("b", 1)),
                )
            )

    def test_unknown_clamp_wire_rejected(self):
        with pytest.raises(NetlistError):
            compose(
                Netlist.from_dict(
                    {
                        "gates": [{"type": "not", "inputs": ["a"], "output": "b"}],
                        "clamps": {"zz": 1},
                    }
                )
            )

    def test_wire_named_like_a_generated_slack_rejected(self):
        gates = [
            {"type": "and", "inputs": ["a", "b"], "output": "c"},
            {"type": "xor", "inputs": ["c", "d"], "output": "e"},
            {"type": "not", "inputs": ["__slack1_0"], "output": "f"},
        ]
        with pytest.raises(NetlistError, match=r"^gate 2: wire '__slack1_0' is .* slack of gate 1$"):
            compose(Netlist.from_dict({"gates": gates}))
        # a name no gate generates is an ordinary wire
        gates[2]["inputs"] = ["__slack0_0"]
        names = Netlist.from_dict({"gates": gates}).variable_order()
        assert names == ["__slack0_0", "__slack1_0", "a", "b", "c", "d", "e", "f"]
        assert compose(Netlist.from_dict({"gates": gates})).n == len(names)

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, np.int64(1), Fraction(1)])
    def test_a_clamp_is_the_int_0_or_1(self, value):
        # equal to a bit is not enough: a bool or a float is not a clamp value
        gates = [{"type": "not", "inputs": ["a"], "output": "b"}]
        with pytest.raises(NetlistError, match=r"^clamp on wire 'b': value must be 0 or 1, got "):
            Netlist.from_dict({"gates": gates, "clamps": {"b": value}})
        for bit in (0, 1):
            netlist = Netlist.from_dict({"gates": gates, "clamps": {"b": bit}})
            assert netlist.clamps == (("b", bit),) and type(netlist.clamps[0][1]) is int

    def test_from_json_reads_the_gates_and_clamps(self):
        text = (
            '{"gates": [{"type": "OR", "inputs": ["x1", "x2"], "output": "w"},'
            ' {"type": "not", "inputs": ["w"], "output": "v"}], "clamps": {"v": 0, "x1": 1}}'
        )
        want = Netlist(
            (GateInstance("or", ("x1", "x2"), "w"), GateInstance("not", ("w",), "v")),
            (("v", 0), ("x1", 1)),
        )
        assert Netlist.from_json(text) == want
        with pytest.raises(NetlistError, match="netlist must be an object"):
            Netlist.from_json("[]")


class TestClamp:
    def test_substitutes_and_compacts(self):
        f = PseudoBoolean.from_terms(2, {(0, 1): 1})  # x1 x2
        assert clamp(f, 1, 1) == PseudoBoolean.variable(1, 0)
        assert clamp(f, 1, 0).is_zero()

    def test_clamping_delta_everywhere_gives_one(self):
        g = DELTA3
        for _ in range(3):
            g = clamp(g, g.n - 1, 1)
        assert g == PseudoBoolean.constant(0, 1)

    def test_matches_evaluation(self, rng):
        f = random_pbf(rng, 5)
        g = clamp(f, 2, 1)
        for bits in assignments(4):
            full = bits[:2] + (1,) + bits[2:]
            assert g.eval(bits) == f.eval(full)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clamp(DELTA3, 3, 1)

    @pytest.mark.parametrize("value", [True, 1.0, 2, -1, "x"])
    def test_value_that_is_not_a_bit(self, value):
        # True and 1.0 clamped x2 to 1 with no error
        f = PseudoBoolean.from_terms(2, {(0, 1): 1})
        with pytest.raises(ValueError, match=repr(value)):
            clamp(f, 1, value)

    def test_numpy_integer_and_decimal_string_bits(self):
        # read as pbf._count reads a count: the string "0" clamps to 0, though it is truthy
        f = PseudoBoolean.from_terms(2, {(0, 1): 1})
        for one, zero in ((np.int64(1), np.int64(0)), ("1", "0")):
            assert clamp(f, 1, one) == PseudoBoolean.variable(1, 0)
            assert clamp(f, 1, zero).is_zero()


class TestMinimize:
    def test_nonnegative_min_is_kernel(self):
        res = minimize_bruteforce(DELTA3)
        assert res.value == 0
        assert res.argmin == frozenset(DELTA3.kernel())

    def test_clamped_or_and_network(self):
        netlist = TestCompose().or_and_netlist(clamps={"p": 1})
        penalty = compose(netlist)
        # free variable order after clamping p: [w, x1, x2, y2]
        res = minimize_bruteforce(penalty)
        assert res.value == 0
        projected = {(x1, x2, y2) for w, x1, x2, y2 in res.argmin}
        assert projected == {
            (x1, x2, y2)
            for x1, x2, y2 in product((0, 1), repeat=3)
            if (x1 | x2) & y2 == 1
        }

    def test_symmetric_ising_zero_set_vs_argmin(self):
        # J=2, h=-1/2: value at weight w is w(w-2)/2, so the kernel lies on
        # the weight-0 and weight-2 hyperplanes while the true minimum -1/2
        # sits at weight 1 (the model is not non-negative)
        f = symmetric_ising(2, Fraction(-1, 2), 4)
        assert {sum(x) for x in f.kernel()} == {0, 2}
        res = minimize_bruteforce(f)
        assert res.value == Fraction(-1, 2)
        assert {sum(x) for x in res.argmin} == {1}


class TestSatEmbed:
    def test_single_clause_projection(self):
        f = sat_embed([(1, 2)], 2)
        assert f.kernel() == {(0, 1), (1, 0), (1, 1)}

    def test_contradiction_has_empty_kernel(self):
        f = sat_embed([(1,), (-1,)], 1)
        assert f.kernel() == set()
        assert min(f.to_disjoint_form()) >= 1

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError):
            sat_embed([], 3)

    def test_wide_clause_rejected(self):
        with pytest.raises(ValueError):
            sat_embed([(1, 2, 3, 4)], 4)

    def test_random_3sat_matches_enumeration(self, rng):
        for _ in range(10):
            n = rng.randint(3, 6)
            clauses = []
            for _ in range(rng.randint(1, 5)):
                width = rng.randint(1, 3)
                vars_ = rng.sample(range(1, n + 1), width)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
            f = sat_embed(clauses, n)
            assert f.is_nonnegative().ok
            got = {row[:n] for row in f.kernel()}
            assert got == cnf_solutions(clauses, n)

    def test_satisfiable_iff_nonempty_kernel(self, rng):
        clauses = [(1, 2, 3), (-1, -2, -3), (1, -2)]
        f = sat_embed(clauses, 3)
        assert (len(cnf_solutions(clauses, 3)) > 0) == (len(f.kernel()) > 0)


class TestSupport:
    def test_ghz_support(self):
        sup = support(StateVector.ghz_state(3))
        assert sup.members == {(0, 0, 0), (1, 1, 1)}

    def test_plus_state_support_is_everything(self):
        sup = support(StateVector.plus_state(4))
        assert len(sup.members) == 16

    def test_state_embedding_duality(self, rng):
        f = random_pbf(rng, 4)
        sup = support(embed_state(f))
        ker = f.kernel()
        assert sup.members | ker == set(assignments(4))
        assert sup.members & ker == set()

    def test_support_parent_annihilates_ghz(self):
        sup = support(StateVector.ghz_state(3))
        op = support_parent(sup)
        assert op.apply(StateVector.ghz_state(3)).is_zero()
        assert op.diag[0] == 0 and op.diag[7] == 0
        assert sum(1 for d in op.diag if d == 0) == 2

    def test_full_support_gives_zero_operator(self):
        sup = support(StateVector.plus_state(3))
        op = support_parent(sup)
        assert all(d == 0 for d in op.diag)

    def test_kernel_count_equals_support_size(self, rng):
        f = random_pbf(rng, 4)
        v = embed_state(f)
        if v.is_zero():
            return
        op = support_parent(support(v))
        assert len(op.kernel_indices()) == len(support(v).members)

    def test_empty_support_rejected(self):
        from pbkernel import SupportSet

        with pytest.raises(ValueError):
            support_parent(SupportSet(2, frozenset()))

    def test_float_amplitudes_use_tolerance(self):
        v = StateVector(1, [1e-15, 0.5])
        assert support(v).members == {(1,)}
