"""Command-line front end.

Subcommands mirror the library surface::

    pbkernel pbf kernel|eval|nonneg|pauli EXPRFILE
    pbkernel sym factor|profile EXPRFILE
    pbkernel parent clifford CIRCUITFILE [--verify]
    pbkernel parent support STATEFILE
    pbkernel parent ghz-quadratic -n N
    pbkernel gadget compose NETLIST.json [--clamp WIRE=BIT] [--minimize]
    pbkernel ising realize STRINGSFILE -n N

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 internal error (a failed exact re-check or any other unexpected
exception, reported on one stderr line without a traceback), 141
(128 + SIGPIPE) when the reader closes stdout early, with nothing on
stderr.
``--json`` selects machine output: sorted keys, deterministic ordering,
and no timing field, so identical inputs give byte-identical bytes (the
human-readable report does include elapsed time).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import expr, gadgets, ising_kernel, pauli, stabilizer, symmetric
from .errors import EnumerationCapError, PBKernelError
from .pbf import _check_arity, _count


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PBKernelError(f"cannot read {path}: {exc.strerror}") from exc


def _bitstring(bits) -> str:
    return "".join(str(b) for b in bits)


def _count_flag(text: str) -> int:
    """-n or --arity, read by the package's count rule; argparse reports a refusal as a usage error."""
    try:
        return _count(text, "count")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_bits(text: str, where: str = "") -> tuple:
    """The one 0/1 rule of --at and of state and strings files; ``where`` prefixes the diagnostic."""
    if any(ch not in "01" for ch in text):  # '' is the one point of arity 0
        raise PBKernelError(f"{where}bad bit string {text!r}")
    return tuple(int(ch) for ch in text)


def _bit_lines(path: str, where: str, count: int, usage: str):
    """(line number, bits, fields) of each record of a state or strings file:
    ``count`` fields, the first a bit string as wide as the file's first."""
    n = None
    for lineno, fields in expr.records(_read(path)):
        if len(fields) != count:
            raise PBKernelError(f"{where} {lineno}: expected {usage}")
        bits = _parse_bits(fields[0], f"{where} {lineno}: ")
        n = n or len(bits)
        if len(bits) != n:
            raise PBKernelError(f"{where} {lineno}: inconsistent width")
        yield lineno, bits, fields


def _load_support(path: str) -> gadgets.SupportSet:
    """State file: lines of 'bitstring amplitude_re amplitude_im', each bit string
    at most once; its support is the strings of the lines with a nonzero amplitude."""
    members, lines = set(), {}  # the support, and the line each bit string is on
    for lineno, bits, fields in _bit_lines(path, "state line", 3, "'bits re im'"):
        if len(bits) > pauli.STATE_CAP:  # on the first line, before any 2^n allocation
            raise EnumerationCapError(f"statevector arity {len(bits)} outside 0..{pauli.STATE_CAP}")
        if bits in lines:
            raise PBKernelError(f"state line {lineno}: basis string {fields[0]} repeats line {lines[bits]}")
        lines[bits] = lineno
        re, im = (expr.rational(token, lineno, "state line") for token in fields[1:])
        if re or im:
            members.add(bits)
    if not lines:
        raise PBKernelError("state file has no amplitude lines")
    return gadgets.SupportSet(len(bits), frozenset(members))


def _emit(payload: dict, as_json: bool, human_lines) -> None:
    """Print the payload as JSON, or else the lines ``human_lines()`` builds,
    so the human report (``to_text`` included) is only built to be printed."""
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines():
            print(line)


# -- pbf ----------------------------------------------------------------


def _cmd_pbf(args) -> int:
    f = expr.parse(_read(args.exprfile), arity=args.arity)
    if args.action == "kernel":
        ker = sorted(_bitstring(x) for x in f.kernel())
        payload = {"command": "pbf kernel", "arity": f.n, "kernel": ker}
        _emit(payload, args.json, lambda: [f"arity {f.n}"] + ker)
    elif args.action == "eval":
        if args.at is None:
            raise PBKernelError("pbf eval needs --at BITSTRING")
        value = f.eval(_parse_bits(args.at))
        payload = {"command": "pbf eval", "at": args.at, "value": str(value)}
        _emit(payload, args.json, lambda: [f"f({args.at}) = {value}"])
    elif args.action == "nonneg":
        res = f.is_nonnegative()
        payload = {
            "command": "pbf nonneg",
            "nonnegative": res.ok,
            "witness": None if res.ok else _bitstring(res.witness),
        }
        _emit(payload, args.json,
              lambda: ["non-negative" if res.ok else f"negative at {_bitstring(res.witness)}"])
    else:  # pauli
        ps = pauli.pbf_to_pauli(f)
        payload = {
            "command": "pbf pauli",
            "terms": [[str(c), w] for w, c in ps.terms()],
        }
        _emit(payload, args.json, lambda: ps.to_text().splitlines())
    return 0


# -- sym ----------------------------------------------------------------


def _cmd_sym(args) -> int:
    f = expr.parse(_read(args.exprfile), arity=args.arity)
    if args.action == "factor":  # symmetric iff each monomial size has one coefficient: no cube scan
        a = symmetric.canonical_coefficients(f)
        if a is None:
            raise PBKernelError("input is not a symmetric function")
        rf = symmetric.factorize(symmetric.canonical_to_power(a))
        payload = {"command": "sym factor", **rf.to_dict()}
        _emit(payload, args.json, lambda: [f"K = {rf.scale}"] + [f"root: {r}" for r in rf.roots])
        return 0
    sym = symmetric.detect_symmetric(f)  # profile: the scan finds a witness pair
    if sym.profile is None:
        a, b = map(_bitstring, sym.witness)
        payload = {"command": "sym profile", "symmetric": False, "witness": [a, b]}
        _emit(payload, args.json, lambda: [f"not symmetric: f({a}) != f({b})"])
    else:
        values = sym.profile.values
        payload = {"command": "sym profile", "symmetric": True, "profile": [str(v) for v in values]}
        _emit(payload, args.json, lambda: [f"weight {j}: {v}" for j, v in enumerate(values)])
    return 0


# -- parent ---------------------------------------------------------------


def _cmd_parent_clifford(args) -> int:
    circuit = stabilizer.CliffordCircuit.from_text(_read(args.circuitfile))
    parent = stabilizer.projector_parent(circuit)
    terms = parent.terms()
    payload = {
        "command": "parent clifford",
        "qubits": circuit.n,
        "terms": [[str(c), w] for w, c in terms],
    }
    human = []  # lines after the parent's own
    failed = False
    if args.verify:
        # the parent is (n I - sum_l P_l) / 2 over the n distinct images P_l of
        # the Z_l, so each non-identity term w with coefficient c is P_l = -2c w
        gens = [stabilizer.SymplecticPauli.from_letters(w, int(-2 * c)) for w, c in terms if w.strip("I")]
        kdim = stabilizer.kernel_dimension(gens)
        annihilates = None
        if circuit.n <= pauli.STATE_CAP:  # the widest state StateVector holds
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
    _emit(payload, args.json, lambda: parent.to_text().splitlines() + human)
    return 1 if failed else 0


def _cmd_parent_support(args) -> int:
    sup = _load_support(args.statefile)
    op = gadgets.support_parent(sup)
    payload = {
        "command": "parent support",
        "arity": sup.n,
        "support": sorted(_bitstring(x) for x in sup.members),
        "diag": [str(v) for v in op.diag],
    }
    _emit(payload, args.json, lambda: [f"support size {len(sup.members)}"] + payload["support"])
    return 0


def _cmd_parent_ghz_quadratic(args) -> int:
    n = args.n
    if n > 0:  # ghz_quadratic rejects n <= 0; a large n fails here, before n-entry lists
        _check_arity(n)
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
    _emit(payload, args.json, lambda: [f.to_text(), f"kernel: {', '.join(payload['kernel'])}"])
    return 0


# -- gadget ---------------------------------------------------------------


def _cmd_gadget_compose(args) -> int:
    try:
        data = json.loads(_read(args.netlist))
    except json.JSONDecodeError as exc:
        raise PBKernelError(f"malformed netlist JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise PBKernelError("malformed netlist JSON: nested too deeply") from None
    netlist = gadgets.Netlist.from_dict(data)
    extra = []
    for spec_ in args.clamp or []:
        wire, _, val = spec_.partition("=")
        if val not in ("0", "1"):  # the one bit rule of clamps, --at, state and strings files
            raise PBKernelError(f"--clamp needs WIRE=BIT, got {spec_!r}")
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
    if args.minimize:
        res = gadgets.minimize_bruteforce(penalty)
        payload["minimum"] = str(res.value)
        payload["argmin"] = sorted(_bitstring(x) for x in res.argmin)

    def human():
        lines = [f"variables: {' '.join(free_names)}", penalty.to_text()]
        if args.minimize:
            lines.append(f"minimum {payload['minimum']} at {', '.join(payload['argmin'])}")
        return lines

    _emit(payload, args.json, human)
    return 0


# -- ising ----------------------------------------------------------------


def _cmd_ising_realize(args) -> int:
    strings = [bits for _, bits, _ in _bit_lines(args.stringsfile, "strings line", 1, "one bit string")]
    real = ising_kernel.quadratic_realizability(strings, args.n)
    payload = {"command": "ising realize", "n": args.n}
    payload.update(real.to_dict())

    def human():
        if not real.feasible:
            return (["infeasible; certificate rows:"]
                    + [f"  {_bitstring(b)} * {m}" for b, m in real.certificate])
        return ([f"feasible: c0 = {real.constant}"]
                + [f"h[{l + 1}] = {v}" for l, v in enumerate(real.fields)]
                + [f"J[{l + 1},{k + 1}] = {v}" for (l, k), v in sorted(real.couplings.items()) if v])

    _emit(payload, args.json, human)
    return 0


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pbkernel",
        description="construct and verify commutative parent Hamiltonians and Ising penalties",
    )
    sub = top.add_subparsers(dest="group", required=True)

    def leaf(p, func):
        """A runnable command: --json after its own arguments, and its handler."""
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    pbf_p = sub.add_parser("pbf", help="pseudo-Boolean polynomial operations")
    pbf_p.add_argument("action", choices=["kernel", "eval", "nonneg", "pauli"])
    pbf_p.add_argument("exprfile")
    pbf_p.add_argument("--at", help="bit string for eval")
    pbf_p.add_argument("--arity", type=_count_flag, default=None)
    leaf(pbf_p, _cmd_pbf)

    sym_p = sub.add_parser("sym", help="symmetric-function analysis")
    sym_p.add_argument("action", choices=["factor", "profile"])
    sym_p.add_argument("exprfile")
    sym_p.add_argument("--arity", type=_count_flag, default=None)
    leaf(sym_p, _cmd_sym)

    parent_p = sub.add_parser("parent", help="parent-operator constructions")
    parent_sub = parent_p.add_subparsers(dest="construction", required=True)

    pc = parent_sub.add_parser("clifford", help="conjugated-projector parent")
    pc.add_argument("circuitfile")
    pc.add_argument("--verify", action="store_true")
    leaf(pc, _cmd_parent_clifford)

    psup = parent_sub.add_parser("support", help="support-complement parent")
    psup.add_argument("statefile")
    leaf(psup, _cmd_parent_support)

    pghz = parent_sub.add_parser("ghz-quadratic", help="product-form GHZ parent")
    pghz.add_argument("-n", type=_count_flag, required=True)
    leaf(pghz, _cmd_parent_ghz_quadratic)

    gad = sub.add_parser("gadget", help="netlist composition")
    gad_sub = gad.add_subparsers(dest="action", required=True)
    gcomp = gad_sub.add_parser("compose")
    gcomp.add_argument("netlist")
    gcomp.add_argument("--clamp", action="append", metavar="WIRE=BIT")
    gcomp.add_argument("--minimize", action="store_true")
    leaf(gcomp, _cmd_gadget_compose)

    isg = sub.add_parser("ising", help="Ising kernel decisions")
    isg_sub = isg.add_subparsers(dest="action", required=True)
    ireal = isg_sub.add_parser("realize")
    ireal.add_argument("stringsfile")
    ireal.add_argument("-n", type=_count_flag, required=True)
    leaf(ireal, _cmd_ising_realize)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use rather than at import
    and reused by every later call in the process (parsing leaves it as it was)."""
    return build_parser()


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        if not args.json:
            print(f"elapsed: {time.perf_counter() - started:.3f}s")
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter shutdown
    except BrokenPipeError:
        # what is still buffered goes to devnull, so shutdown's flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except PBKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed exact re-check or a library bug, not bad input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
