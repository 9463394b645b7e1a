"""Seeded inputs and jobs for the three workloads.

A workload is a pool of cycles.  A cycle is a shuffled list of jobs
whose labels (size and kind) are the same in every cycle; only the
seeded inputs and their order differ.  The runner goes through the pool
repeatedly, so each input runs several times in a run.  It times
``job.run()`` and afterwards calls ``job.check(result)``, which compares
the answer with the benchmark's own oracles (``oracle.py``) and raises
on a mismatch.  The library sees only the generated inputs.

Why these workloads:

* ``enum`` spends almost all its time in pbf cube enumeration (zeta and
  Moebius transforms) and runs no LP or CLI code.
* ``realize`` spends its time in the dense Fraction simplex over 2^n
  dual columns and the exhaustive margin and Farkas checks; pbf barely
  runs.
* ``cli-mix`` is many small ``cli.main`` requests, so fixed per-request
  costs dominate: argparse, file reads, parsing, JSON output, gadget
  re-verification and small-n construction arithmetic.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

from pbkernel import cli, gadgets, ising_kernel, pbf, symmetric

import oracle
from oracle import expect

WORKLOADS = ("enum", "realize", "cli-mix")
#: cycles of distinct inputs per workload; each pool pass lasts 2-10 s
POOL_CYCLES = {"enum": 2, "realize": 6, "cli-mix": 3}


class Job(NamedTuple):
    label: str
    run: Callable
    check: Callable


# -- polynomial inputs (dicts {mask: int}) ---------------------------------


def _mask(vars_) -> int:
    return sum(1 << i for i in vars_)


def signed_poly(rng: random.Random, n: int) -> dict:
    """3n random monomials of degree 1..3 with coefficients in +-1..4."""
    terms = {0: rng.randint(0, 6)}
    for _ in range(3 * n):
        terms[_mask(rng.sample(range(n), rng.randint(1, 3)))] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    return {m: c for m, c in terms.items() if c}


def penalty_poly(rng: random.Random, n: int) -> dict:
    """Sum of n positive literal products of width 2..3 (a non-negative
    penalty whose kernel is the solution set of a random CNF)."""
    terms: dict = {}
    for _ in range(n):
        vars_ = rng.sample(range(n), rng.randint(2, 3))
        neg = _mask(v for v in vars_ if rng.random() < 0.5)
        oracle.add_terms(terms, oracle.literal_product(_mask(vars_) & ~neg, neg), rng.randint(1, 3))
    return terms


def symmetric_poly(rng: random.Random, n: int, asymmetric: bool) -> dict:
    """Same coefficient on every monomial of each size 0..3; optionally
    one monomial perturbed so the function is not symmetric."""
    terms = {}
    for k in range(4):
        a = rng.choice((-3, -2, -1, 1, 2, 3)) if k else rng.randint(0, 3)
        for vars_ in combinations(range(n), k):
            terms[_mask(vars_)] = a
    if asymmetric:
        m = _mask(rng.sample(range(n), rng.randint(1, 3)))
        terms[m] = terms.get(m, 0) + rng.choice((-1, 1))
    return {m: c for m, c in terms.items() if c}


# -- enum -------------------------------------------------------------------

_ENUM_REGULAR = [
    (10, "kernel"), (10, "roundtrip"), (11, "nonneg"), (11, "detect-sym"),
    (12, "kernel"), (12, "nonneg"), (12, "minimize"), (12, "detect-asym"), (12, "detect-sym"),
    (12, "roundtrip"),
    (13, "kernel"), (13, "nonneg"), (13, "minimize"), (13, "detect-sym"), (13, "roundtrip"),
    (14, "kernel"), (14, "nonneg"), (14, "minimize"), (14, "detect-asym"),
]
#: one cycle: the regular slots twice, plus one n = 15 and one n = 16 job
ENUM_CYCLE = _ENUM_REGULAR * 2 + [(15, "roundtrip"), (16, "kernel")]
ENUM_TOY = [(4, "kernel"), (4, "nonneg"), (5, "minimize"), (5, "detect-sym"), (5, "detect-asym"), (6, "roundtrip")]


def enum_job(rng: random.Random, n: int, op: str, index: int) -> Job:
    label = f"n{n}-{op}"
    if op == "kernel":
        terms = penalty_poly(rng, n)
    elif op == "nonneg":
        terms = penalty_poly(rng, n) if index % 2 else signed_poly(rng, n)
    elif op.startswith("detect"):
        terms = symmetric_poly(rng, n, op == "detect-asym")
    else:
        terms = signed_poly(rng, n)
    f = pbf.PseudoBoolean(n, terms)

    # methods are looked up at call time, so the traced run sees them
    if op == "kernel":
        return Job(label, lambda: f.kernel(), lambda r: oracle.check_kernel(n, terms, r))
    if op == "nonneg":
        return Job(
            label,
            lambda: f.is_nonnegative(),
            lambda r: oracle.check_nonnegative(n, terms, r.ok, r.witness),
        )
    if op == "minimize":
        return Job(
            label,
            lambda: gadgets.minimize_bruteforce(f),
            lambda r: oracle.check_minimum(n, terms, r.value, r.argmin),
        )
    if op.startswith("detect"):

        def detect_and_rebuild():  # a found profile is expanded back into a polynomial
            res = symmetric.detect_symmetric(f)
            return res, None if res.profile is None else symmetric.profile_to_pbf(res.profile)

        def check(r):
            res, rebuilt = r
            profile = None if res.profile is None else res.profile.values
            back = None if rebuilt is None else rebuilt.masked_terms()
            oracle.check_symmetry(n, terms, profile, res.witness, back)

        return Job(label, detect_and_rebuild, check)

    def round_trip():
        table = f.to_disjoint_form()
        return table, pbf.PseudoBoolean.from_disjoint_form(table)

    return Job(label, round_trip, lambda r: oracle.check_round_trip(n, terms, r[0], r[1].masked_terms()))


def build_enum(rng: random.Random, cycles: int, toy: bool) -> list:
    spec = ENUM_TOY if toy else ENUM_CYCLE
    pool = []
    for _ in range(cycles):
        jobs = [enum_job(rng, n, op, i) for i, (n, op) in enumerate(spec)]
        rng.shuffle(jobs)
        pool.append(jobs)
    return pool


# -- realize ------------------------------------------------------------------


def _bits(code: int, n: int) -> tuple:
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def target_family(rng: random.Random, n: int, family: str, stratum: int = 0) -> tuple:
    """(target set of bit tuples, known verdict or None).

    ``stratum`` counts earlier inputs of the same size and family in the
    pool.  It steps the parity, the random set's size and the pair's
    mask weight (0 or 1: the solve time of a pair grows steeply and
    unevenly with that weight), so every seed covers the same mix.
    """
    if family == "pair":  # {m, complement of m}: a gauge copy of {0^n, 1^n}
        m = _mask(rng.sample(range(n), stratum % 2))
        return {_bits(m, n), _bits(m ^ ((1 << n) - 1), n)}, True
    if family == "subcube":  # n - 2 pinned bits, 2 free: a one-body kernel
        free = rng.sample(range(n), 2)
        base = list(_bits(rng.getrandbits(n), n))
        cube = set()
        for a in range(4):
            base[free[0]], base[free[1]] = a & 1, a >> 1
            cube.add(tuple(base))
        return cube, True
    if family == "parity":  # even or odd parity set on n >= 3 bits
        want = stratum % 2
        return {_bits(c, n) for c in range(1 << n) if bin(c).count("1") % 2 == want}, False
    size = 2 + stratum % 3  # random small set: verdict checked, not known
    target = set()
    while len(target) < size:
        target.add(_bits(rng.getrandbits(n), n))
    return target, None


def realization_answer(real) -> dict:
    return {
        "feasible": real.feasible,
        "c0": real.constant,
        "h": real.fields,
        "J": real.couplings,
        "certificate": real.certificate,
    }


_FAMILIES = ("pair", "subcube", "parity", "random")
#: one cycle; the counts put the median job among the n = 5 parity sets
#: and the tail among the n = 6 ones, whose inputs do not vary
REALIZE_CYCLE = (
    [(4, fam) for fam in _FAMILIES]
    + [(5, fam) for fam in ("pair", "subcube", "random")] * 2 + [(5, "parity")] * 4
    + [(6, fam) for fam in ("pair", "subcube", "parity")] * 2 + [(6, "random"), (7, "pair")]
)
REALIZE_TOY = [(3, fam) for fam in _FAMILIES]


def realize_job(rng: random.Random, n: int, family: str, stratum: int) -> Job:
    target, verdict = target_family(rng, n, family, stratum)
    strings = [oracle.bitstring(b) for b in sorted(target)]
    return Job(
        f"n{n}-{family}",
        lambda: ising_kernel.quadratic_realizability(strings, n),
        lambda r: oracle.check_realization(n, target, realization_answer(r), verdict),
    )


def build_realize(rng: random.Random, cycles: int, toy: bool) -> list:
    spec = REALIZE_TOY if toy else REALIZE_CYCLE
    pool, seen = [], {}
    for _ in range(cycles):
        jobs = []
        for n, fam in spec:
            stratum = seen[n, fam] = seen.get((n, fam), -1) + 1
            jobs.append(realize_job(rng, n, fam, stratum))
        rng.shuffle(jobs)
        pool.append(jobs)
    return pool


# -- cli-mix ---------------------------------------------------------------------


def cli_job(label: str, argv: list, check_payload: Callable) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    verified = set()  # outputs already checked: the same bytes get the same verdict

    def check(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()}")
        if out in verified:
            return
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            raise oracle.CheckFailed(f"output is not JSON: {exc}") from exc
        check_payload(payload)
        verified.add(out)

    return Job(label, run, check)


def _pbf_request(rng, workdir: Path, label: str, n: int, action: str) -> Job:
    penalty = action == "kernel" or (action == "nonneg" and rng.random() < 0.5)
    terms = penalty_poly(rng, n) if penalty else signed_poly(rng, n)
    path = workdir / f"{label}.pbf"
    path.write_text(oracle.expression_text(terms) + "\n")
    argv = ["pbf", action, str(path), "--arity", str(n), "--json"]
    vals = oracle.value_table(n, terms)

    if action == "kernel":
        want = sorted(oracle.bitstring(oracle.bits_of_mask(m, n)) for m in (vals == 0).nonzero()[0].tolist())

        def check(p):
            expect(p["kernel"] == want, "kernel differs from the oracle")
    elif action == "eval":
        at = tuple(rng.randint(0, 1) for _ in range(n))
        argv += ["--at", oracle.bitstring(at)]
        want = str(int(vals[sum(b << i for i, b in enumerate(at))]))

        def check(p):
            expect(p["value"] == want, f"value {p['value']} != oracle {want}")
    elif action == "nonneg":

        def check(p):
            w = p["witness"]
            oracle.check_nonnegative(n, terms, p["nonnegative"], None if w is None else tuple(int(ch) for ch in w))
    else:  # pauli: the Z expansion must reproduce f on every point

        def check(p):
            # Z on qubit i is 1 - 2 x_i, so a word contributes c * (-1)^|Z-set & x|
            zmasks = [(Fraction(c), sum(1 << i for i, ch in enumerate(w) if ch == "Z")) for c, w in p["terms"]]
            for x in range(1 << n):
                total = sum((c if (z & x).bit_count() % 2 == 0 else -c for c, z in zmasks), Fraction(0))
                expect(total == int(vals[x]), f"Z expansion differs at mask {x:#x}")

    return cli_job(label, argv, check)


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-6, 8), rng.choice((1, 1, 2, 3)))


def _sym_request(rng, workdir: Path, label: str, n: int, degree: int, action: str, kind: str) -> Job:
    """Symmetric input whose weight polynomial has known roots.

    ``kind`` is "rational" (all roots rational), "quartic" (no rational
    roots; end coefficients with many divisors) or "asym" (a symmetric
    function with one monomial perturbed).
    """
    scale = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    if kind == "quartic":
        a, b = rng.choice((4, 6, 8, 9, 12)), rng.choice((3, 5, 10, 18))
        p, q = rng.choice((12, 24, 30, 36)), rng.choice((20, 28, 42, 60))
        first = [Fraction(p), Fraction(0), Fraction(a)]  # a X^2 + p: no real roots
        while math.isqrt(b * q) ** 2 == b * q:
            q += 1
        second = [Fraction(-q), Fraction(0), Fraction(b)]  # b X^2 - q: irrational roots
        poly = [scale * c for c in oracle.poly_mul(first, second)]
        roots = []
    else:
        roots = sorted(_rational(rng) for _ in range(degree))
        poly = oracle.poly_from_roots(scale, roots)
    values = [sum((c * j**k for k, c in enumerate(poly)), Fraction(0)) for j in range(n + 1)]
    terms = oracle.symmetric_terms(n, values)
    profile = [str(v) for v in values]
    if kind == "asym":
        m = _mask(rng.sample(range(n), 2))
        terms[m] = terms.get(m, Fraction(0)) + 1
        if not terms[m]:
            del terms[m]
    path = workdir / f"{label}.pbf"
    path.write_text(oracle.expression_text(terms) + "\n")
    argv = ["sym", action, str(path), "--arity", str(n), "--json"]

    if action == "profile":

        def check(p):
            if kind != "asym":
                expect(p["symmetric"] is True and p["profile"] == profile, "profile differs")
                return
            expect(p["symmetric"] is False, "perturbed input reported symmetric")
            a, b = ([int(ch) for ch in w] for w in p["witness"])
            expect(sum(a) == sum(b), "witness points have different weights")
            expect(oracle.eval_terms(terms, a) != oracle.eval_terms(terms, b), "witness values are equal")
    else:
        want = [str(r) for r in roots]

        def check(p):
            expect(p["exact_roots"] == want, f"exact roots {p['exact_roots']} != {want}")
            expect(len(p["roots"]) == len(poly) - 1, "wrong number of roots")
            found = [complex(re, im) for re, im in p["roots"]]
            expect(
                oracle.numeric_roots_match(poly, complex(*p["K"]), found),
                "K * prod(X - root) does not reproduce the weight polynomial",
            )

    return cli_job(label, argv, check)


def _clifford_request(rng, workdir: Path, label: str, n: int) -> Job:
    """Hadamards on n/2 random qubits, then 3n - n/2 random CNOT, S, X and
    Z gates.  Those permute basis states or add phases, so the state has
    exactly 2^(n/2) nonzero amplitudes whatever the seed."""
    lines = [f"qubits {n}"] + [f"h {q}" for q in rng.sample(range(1, n + 1), n // 2)]
    for _ in range(3 * n - n // 2):
        kind = rng.choice(("s", "x", "z", "cnot", "cnot"))
        if kind == "cnot":
            c, t = rng.sample(range(1, n + 1), 2)
            lines.append(f"cnot {c} {t}")
        else:
            lines.append(f"{kind} {rng.randint(1, n)}")
    path = workdir / f"{label}.qc"
    path.write_text("\n".join(lines) + "\n")

    def check(p):
        v = p["verify"]
        expect(v["ok"] is True and v["kernel_dimension"] == 1, f"--verify reported {v}")
        expect(v["annihilates_state"] is True, "parent does not annihilate the state")
        expect(len(p["terms"]) <= n + 1, "more terms than generators plus identity")

    return cli_job(label, ["parent", "clifford", str(path), "--verify", "--json"], check)


def _support_request(rng, workdir: Path, label: str, n: int) -> Job:
    codes = rng.sample(range(1 << n), n + 2)
    lines, support = [], []
    for i, code in enumerate(codes):
        bits = oracle.bitstring(_bits(code, n))
        if i < 2:  # explicit zero amplitudes are not in the support
            lines.append(f"{bits} 0 0")
            continue
        re, im = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if re == 0 and im == 0:
            re = Fraction(1)
        lines.append(f"{bits} {re} {im}")
        support.append(bits)
    path = workdir / f"{label}.state"
    path.write_text("\n".join(lines) + "\n")
    want = sorted(support)

    def check(p):
        expect(p["support"] == want, "support differs from the written amplitudes")
        diag = ["0" if oracle.bitstring(_bits(i, n)) in support else "1" for i in range(1 << n)]
        expect(p["diag"] == diag, "parent diagonal is not the support complement")

    return cli_job(label, ["parent", "support", str(path), "--json"], check)


def _ghz_request(label: str, n: int) -> Job:
    def check(p):
        expect(p["kernel"] == ["0" * n, "1" * n], f"kernel {p['kernel']}")

    return cli_job(label, ["parent", "ghz-quadratic", "-n", str(n), "--json"], check)


def _gadget_request(rng, workdir: Path, label: str, num_gates: int, clamp_flag: bool) -> Job:
    wires = [f"x{i}" for i in range(1, rng.randint(2, 3) + 1)]
    gates, xors = [], 0
    for idx in range(num_gates):
        kind = rng.choice(("and", "or", "not", "xor") if xors < 2 else ("and", "or", "not"))
        xors += kind == "xor"
        inputs = [wires[-1]] if kind == "not" else rng.sample(wires, 2)
        gates.append({"type": kind, "inputs": inputs, "output": f"w{idx + 1}"})
        wires.append(f"w{idx + 1}")
    clamps = {}
    if num_gates >= 3:  # pin the last output to a value some input produces
        free, rows = oracle.netlist_kernel(gates, {})
        row = sorted(rows)[rng.randrange(len(rows))]
        clamps[gates[-1]["output"]] = int(row[free.index(gates[-1]["output"])])
    data = {"gates": gates}
    argv = []
    if clamps and clamp_flag:
        argv = [f"--clamp={w}={v}" for w, v in clamps.items()]
    elif clamps:
        data["clamps"] = clamps
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    free, rows = oracle.netlist_kernel(gates, clamps)

    def check(p):
        expect(p["variables"] == free, f"variables {p['variables']} != {free}")
        expect(p["minimum"] == "0", f"minimum {p['minimum']} is not 0")
        expect(set(p["argmin"]) == rows, "argmin differs from the gates' truth tables")

    return cli_job(label, ["gadget", "compose", str(path), "--minimize", "--json"] + argv, check)


def _ising_request(rng, workdir: Path, label: str, n: int, family: str, stratum: int) -> Job:
    target, verdict = target_family(rng, n, family, stratum)
    path = workdir / f"{label}.txt"
    path.write_text("\n".join(oracle.bitstring(b) for b in sorted(target)) + "\n")

    def check(p):
        if p["feasible"]:
            ans = {
                "feasible": True,
                "c0": Fraction(p["c0"]),
                "h": [Fraction(v) for v in p["h"]],
                "J": {(l - 1, k - 1): Fraction(v) for l, k, v in p["J"]},
            }
        else:
            ans = {
                "feasible": False,
                "certificate": [(tuple(int(ch) for ch in b), Fraction(m)) for b, m in p["certificate"]],
            }
        oracle.check_realization(n, target, ans, verdict)

    return cli_job(label, ["ising", "realize", str(path), "-n", str(n), "--json"], check)


def cli_cycle(rng: random.Random, workdir: Path, small: bool) -> list:
    """Requests covering every subcommand; their input files are written
    to ``workdir`` here, during set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for action, sizes in (("kernel", (6, 8, 10)), ("eval", (6, 8, 10)), ("nonneg", (6, 8, 10)), ("pauli", (4, 6, 8))):
        for n in sizes[:1] if small else sizes:
            jobs.append(_pbf_request(rng, workdir, f"pbf-{action}-n{n}", n, action))
    sym = [("profile", 4, 3, "rational"), ("profile", 6, 4, "rational"), ("profile", 7, 5, "rational"),
           ("profile", 6, 3, "asym"), ("factor", 3, 2, "rational"), ("factor", 4, 3, "rational"),
           ("factor", 5, 4, "rational"), ("factor", 6, 5, "rational"), ("factor", 5, 4, "quartic"),
           ("factor", 6, 4, "quartic")]
    for i, (action, n, degree, kind) in enumerate(sym[::3] if small else sym):
        jobs.append(_sym_request(rng, workdir, f"sym-{action}-{kind}-n{n}-{i}", n, degree, action, kind))
    for n in (4,) if small else (4, 6, 8, 10, 12):
        jobs.append(_clifford_request(rng, workdir, f"clifford-n{n}", n))
    for n in (3,) if small else (4, 6, 8):
        jobs.append(_support_request(rng, workdir, f"support-n{n}", n))
    for n in (3,) if small else (4, 7, 10):
        jobs.append(_ghz_request(f"ghz-n{n}", n))
    for g in (2, 3) if small else (2, 3, 4, 5, 6):
        jobs.append(_gadget_request(rng, workdir, f"gadget-{g}", g, clamp_flag=g % 2 == 1))
    ising = [(3, "parity"), (4, "pair"), (5, "subcube"), (4, "random"), (5, "pair")]
    for i, (n, fam) in enumerate(ising[:2] if small else ising):
        jobs.append(_ising_request(rng, workdir, f"ising-{fam}-n{n}", n, fam, i))
    rng.shuffle(jobs)
    return jobs


def build(workload: str, seed: int, workdir: Path, toy: bool = False) -> list:
    """The workload's pool of cycles, generated from ``seed``.

    ``toy`` gives one cycle at tiny sizes, for the warm-up and the
    self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    cycles = 1 if toy else POOL_CYCLES[workload]
    if workload == "enum":
        return build_enum(rng, cycles, toy)
    if workload == "realize":
        return build_realize(rng, cycles, toy)
    if workload == "cli-mix":
        return [cli_cycle(rng, workdir / f"cycle{c}", toy) for c in range(cycles)]
    raise ValueError(f"unknown workload {workload!r}")
