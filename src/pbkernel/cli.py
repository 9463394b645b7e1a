"""Command-line front end.

Subcommands mirror the library surface::

    pbkernel pbf kernel|eval|nonneg|pauli EXPRFILE
    pbkernel sym factor|profile EXPRFILE
    pbkernel parent clifford CIRCUITFILE [--verify]
    pbkernel parent support STATEFILE
    pbkernel parent ghz-quadratic -n N
    pbkernel gadget compose NETLIST.json [--clamp WIRE=BIT] [--minimize]
    pbkernel ising realize STRINGSFILE -n N

Exit codes: 0 success, 1 verification failure, 2 usage/input error.
``--json`` selects machine output: sorted keys, deterministic ordering,
and no timing field, so identical inputs give byte-identical bytes (the
human-readable report does include elapsed time).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import expr, gadgets, ising_kernel, pauli, stabilizer, symmetric
from .errors import EnumerationCapError, PBKernelError
from .pbf import PseudoBoolean, index_of


class _UsageError(Exception):
    """Input or usage problem; reported on stderr with exit code 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _bitstring(bits) -> str:
    return "".join(str(b) for b in bits)


def _parse_bits(text: str) -> tuple:
    if not text or any(ch not in "01" for ch in text):
        raise PBKernelError(f"bad bit string {text!r}")
    return tuple(int(ch) for ch in text)


def _load_expression(path: str, arity: int | None) -> PseudoBoolean:
    return expr.parse(_read(path), arity=arity)


def _load_state(path: str) -> pauli.StateVector:
    """State file: lines of 'bitstring amplitude_re amplitude_im'."""
    entries = {}
    n = None
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PBKernelError(f"state line {lineno}: expected 'bits re im'")
        bits = _parse_bits(parts[0])
        if n is None:
            n = len(bits)
            if n > pauli.STATE_CAP:  # before any 2^n allocation; StateVector's message
                raise EnumerationCapError(f"statevector arity {n} outside 0..{pauli.STATE_CAP}")
        elif len(bits) != n:
            raise PBKernelError(f"state line {lineno}: inconsistent width")
        entries[index_of(bits)] = pauli.ExactComplex(Fraction(parts[1]), Fraction(parts[2]))
    if n is None:
        raise PBKernelError("state file has no amplitude lines")
    amps = [entries.get(i, Fraction(0)) for i in range(1 << n)]
    return pauli.StateVector(n, amps)


def _emit(payload: dict, as_json: bool, human_lines, started: float) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")


# -- pbf ----------------------------------------------------------------


def _cmd_pbf(args, started: float) -> int:
    f = _load_expression(args.exprfile, args.arity)
    if args.action == "kernel":
        ker = sorted(_bitstring(x) for x in f.kernel())
        payload = {"command": "pbf kernel", "arity": f.n, "kernel": ker}
        _emit(payload, args.json, [f"arity {f.n}"] + ker, started)
    elif args.action == "eval":
        if args.at is None:
            raise _UsageError("pbf eval needs --at BITSTRING")
        value = f.eval(_parse_bits(args.at))
        payload = {"command": "pbf eval", "at": args.at, "value": str(value)}
        _emit(payload, args.json, [f"f({args.at}) = {value}"], started)
    elif args.action == "nonneg":
        res = f.is_nonnegative()
        payload = {
            "command": "pbf nonneg",
            "nonnegative": res.ok,
            "witness": None if res.ok else _bitstring(res.witness),
        }
        human = ["non-negative" if res.ok else f"negative at {_bitstring(res.witness)}"]
        _emit(payload, args.json, human, started)
    else:  # pauli
        ps = pauli.pbf_to_pauli(f)
        payload = {
            "command": "pbf pauli",
            "terms": [[str(c), w] for w, c in ps.terms()],
        }
        _emit(payload, args.json, ps.to_text().splitlines(), started)
    return 0


# -- sym ----------------------------------------------------------------


def _cmd_sym(args, started: float) -> int:
    f = _load_expression(args.exprfile, args.arity)
    sym = symmetric.detect_symmetric(f)
    if args.action == "profile":
        if sym.profile is None:
            a, b = sym.witness
            payload = {
                "command": "sym profile",
                "symmetric": False,
                "witness": [_bitstring(a), _bitstring(b)],
            }
            human = [f"not symmetric: f({_bitstring(a)}) != f({_bitstring(b)})"]
        else:
            payload = {
                "command": "sym profile",
                "symmetric": True,
                "profile": [str(v) for v in sym.profile.values],
            }
            human = [f"weight {j}: {v}" for j, v in enumerate(sym.profile.values)]
        _emit(payload, args.json, human, started)
        return 0
    # factor
    if sym.profile is None:
        raise _UsageError("input is not a symmetric function")
    form = symmetric.canonical_to_power(symmetric.canonical_coefficients(f))
    rf = symmetric.factorize(form)
    payload = {"command": "sym factor"}
    payload.update(rf.to_dict())
    human = [f"K = {rf.scale}"] + [f"root: {r}" for r in rf.roots]
    _emit(payload, args.json, human, started)
    return 0


# -- parent ---------------------------------------------------------------


def _cmd_parent_clifford(args, started: float) -> int:
    circuit = stabilizer.CliffordCircuit.from_text(_read(args.circuitfile))
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
    _emit(payload, args.json, human, started)
    return 1 if failed else 0


def _cmd_parent_support(args, started: float) -> int:
    state = _load_state(args.statefile)
    sup = gadgets.support(state)
    op = gadgets.support_parent(sup)
    payload = {
        "command": "parent support",
        "arity": sup.n,
        "support": sorted(_bitstring(x) for x in sup.members),
        "diag": [str(v) for v in op.diag],
    }
    human = [f"support size {len(sup.members)}"] + payload["support"]
    _emit(payload, args.json, human, started)
    return 0


def _cmd_parent_ghz_quadratic(args, started: float) -> int:
    n = args.n
    ones = [Fraction(1)] * n
    f = ising_kernel.ghz_quadratic(ones, ones)
    form = pauli.ising_form(f)
    payload = {
        "command": "parent ghz-quadratic",
        "n": n,
        "polynomial": f.to_dict(),
        "constant": str(form.constant),
        "h": [str(v) for v in form.fields],
        "J": [[l + 1, k + 1, str(v)] for (l, k), v in sorted(form.couplings.items())],
        "kernel": sorted(_bitstring(x) for x in f.kernel()),
    }
    human = [f.to_text(), f"kernel: {', '.join(payload['kernel'])}"]
    _emit(payload, args.json, human, started)
    return 0


# -- gadget ---------------------------------------------------------------


def _cmd_gadget_compose(args, started: float) -> int:
    try:
        data = json.loads(_read(args.netlist))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed netlist JSON: {exc}") from exc
    netlist = gadgets.Netlist.from_dict(data)
    extra = []
    for spec_ in args.clamp or []:
        if "=" not in spec_:
            raise _UsageError(f"--clamp needs WIRE=BIT, got {spec_!r}")
        wire, _, val = spec_.partition("=")
        extra.append((wire, int(val)))
    if extra:
        netlist = gadgets.Netlist(netlist.gates, tuple(sorted(set(netlist.clamps) | set(extra))))
    names = netlist.variable_order()
    clamped = {name for name, _ in netlist.clamps}
    free_names = [name for name in names if name not in clamped]
    penalty = gadgets.compose(netlist)
    payload = {
        "command": "gadget compose",
        "variables": free_names,
        "penalty": penalty.to_dict(),
    }
    human = [f"variables: {' '.join(free_names)}", penalty.to_text()]
    if args.minimize:
        res = gadgets.minimize_bruteforce(penalty)
        payload["minimum"] = str(res.value)
        payload["argmin"] = sorted(_bitstring(x) for x in res.argmin)
        human.append(f"minimum {res.value} at {', '.join(payload['argmin'])}")
    _emit(payload, args.json, human, started)
    return 0


# -- ising ----------------------------------------------------------------


def _cmd_ising_realize(args, started: float) -> int:
    strings = []
    for lineno, raw in enumerate(_read(args.stringsfile).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        strings.append(_parse_bits(line))
    real = ising_kernel.quadratic_realizability(strings, args.n)
    payload = {"command": "ising realize", "n": args.n}
    payload.update(real.to_dict())
    if real.feasible:
        human = [f"feasible: c0 = {real.constant}"]
        human += [f"h[{l + 1}] = {v}" for l, v in enumerate(real.fields)]
        human += [f"J[{l + 1},{k + 1}] = {v}" for (l, k), v in sorted(real.couplings.items()) if v]
    else:
        human = ["infeasible; certificate rows:"]
        human += [f"  {_bitstring(b)} * {m}" for b, m in real.certificate]
    _emit(payload, args.json, human, started)
    return 0


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pbkernel",
        description="construct and verify commutative parent Hamiltonians and Ising penalties",
    )
    sub = top.add_subparsers(dest="group", required=True)

    pbf_p = sub.add_parser("pbf", help="pseudo-Boolean polynomial operations")
    pbf_p.add_argument("action", choices=["kernel", "eval", "nonneg", "pauli"])
    pbf_p.add_argument("exprfile")
    pbf_p.add_argument("--at", help="bit string for eval")
    pbf_p.add_argument("--arity", type=int, default=None)
    pbf_p.add_argument("--json", action="store_true")
    pbf_p.set_defaults(func=_cmd_pbf)

    sym_p = sub.add_parser("sym", help="symmetric-function analysis")
    sym_p.add_argument("action", choices=["factor", "profile"])
    sym_p.add_argument("exprfile")
    sym_p.add_argument("--arity", type=int, default=None)
    sym_p.add_argument("--json", action="store_true")
    sym_p.set_defaults(func=_cmd_sym)

    parent_p = sub.add_parser("parent", help="parent-operator constructions")
    parent_sub = parent_p.add_subparsers(dest="construction", required=True)

    pc = parent_sub.add_parser("clifford", help="conjugated-projector parent")
    pc.add_argument("circuitfile")
    pc.add_argument("--verify", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_parent_clifford)

    psup = parent_sub.add_parser("support", help="support-complement parent")
    psup.add_argument("statefile")
    psup.add_argument("--json", action="store_true")
    psup.set_defaults(func=_cmd_parent_support)

    pghz = parent_sub.add_parser("ghz-quadratic", help="product-form GHZ parent")
    pghz.add_argument("-n", type=int, required=True)
    pghz.add_argument("--json", action="store_true")
    pghz.set_defaults(func=_cmd_parent_ghz_quadratic)

    gad = sub.add_parser("gadget", help="netlist composition")
    gad_sub = gad.add_subparsers(dest="action", required=True)
    gcomp = gad_sub.add_parser("compose")
    gcomp.add_argument("netlist")
    gcomp.add_argument("--clamp", action="append", metavar="WIRE=BIT")
    gcomp.add_argument("--minimize", action="store_true")
    gcomp.add_argument("--json", action="store_true")
    gcomp.set_defaults(func=_cmd_gadget_compose)

    isg = sub.add_parser("ising", help="Ising kernel decisions")
    isg_sub = isg.add_subparsers(dest="action", required=True)
    ireal = isg_sub.add_parser("realize")
    ireal.add_argument("stringsfile")
    ireal.add_argument("-n", type=int, required=True)
    ireal.add_argument("--json", action="store_true")
    ireal.set_defaults(func=_cmd_ising_realize)

    return top


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, started)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PBKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
