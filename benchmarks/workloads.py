"""The four benchmark workloads: inputs made from a seed, one timed operation,
and the checks on its outputs.

Every workload runs in rounds.  A round is a fixed list of operations made
from the seed alone, and each round runs in a fresh interpreter, so rslab's
module-level caches never carry over from one round to the next.  Within a
round the in-process operations have distinct inputs (distinct parameter
sets, distinct moduli), so each does its own work; the cold verify runs
repeat one seed on purpose, since each is a fresh process and the repeat
must print the same bytes.  The charsum rounds hold their whole modulus
pool in an order the seed sets: the cost of an operation depends on its
modulus a hundredfold, and a seed-drawn subset moved the median operation
by 20-45% from seed to seed.

The checks compare rslab's outputs with values this file computes with its
own code (sieve, phi, complete homogeneous polynomials, counts of primitive
characters), or with properties the identities must have.  A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

# -- number theory written apart from rslab ----------------------------------


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = 1
    for p, e in factor(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def radical(n: int) -> int:
    out = 1
    for p in factor(n):
        out *= p
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q (multiplicative in q)."""
    out = 1
    for p, e in factor(q).items():
        if p == 2:
            out *= 0 if e == 1 else 1 if e == 2 else 2 ** (e - 2)
        else:
            out *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return out


def prime_powers(n_max: int) -> list[tuple[int, int]]:
    """All (p, k) with k >= 1 and p^k <= n_max."""
    out = []
    for p in range(2, n_max + 1):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            k, pk = 1, p
            while pk <= n_max:
                out.append((p, k))
                k, pk = k + 1, pk * p
    return out


def complete_homogeneous(xs, k_max: int) -> list[Fraction]:
    """h_0..h_k_max of xs by Newton's identity k h_k = sum_m P_m h_{k-m}."""
    power = [sum(Fraction(x) ** m for x in xs) for m in range(k_max + 1)]
    h = [Fraction(1)]
    for k in range(1, k_max + 1):
        h.append(sum(power[m] * h[k - m] for m in range(1, k + 1)) / k)
    return h


def _no_lap() -> None:
    """What an in-process run calls at the end of each step of its operation;
    the worker passes one that records the time."""


# -- verify-cold -------------------------------------------------------------

VERIFY_SEED_SLOTS = (0, 1, 0)  # the first seed comes back as the third operation
FAULTS = (("doublesum-random", "doublesum"), ("gauss-modulus", "gauss"))


def verify_argv(seed: int, *extra: str) -> list[str]:
    return ["-m", "rslab.cli", "verify", "--json", "--seed", str(seed), *extra]


def verify_round(seed: int) -> list[int]:
    rng = random.Random(f"verify-cold:{seed}")
    seeds = [rng.randrange(10**6), rng.randrange(10**6)]
    return [seeds[slot] for slot in VERIFY_SEED_SLOTS]


def verify_run(op: int, env: dict, spans_file=None) -> tuple[int, dict]:
    """One cold `rslab verify --suite all`; with spans_file it runs under
    spans.py, which traces it and writes its spans there."""
    prefix = (str(Path(__file__).with_name("spans.py")), str(spans_file)) if spans_file else ()
    proc = subprocess.run(
        [sys.executable, *prefix, *verify_argv(op, "--suite", "all")],
        env=env, capture_output=True, timeout=120,
    )
    out = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return out["stdout"].count(b"\n"), out


def verify_check(op: int, out: dict) -> list[str]:
    from rslab import registry

    if out["returncode"] != 0:
        return [f"seed {op}: exit {out['returncode']}: {out['stderr'][-300:]!r}"]
    try:
        records = [json.loads(line) for line in out["stdout"].splitlines()]
    except ValueError as exc:
        return [f"seed {op}: stdout is not JSON lines ({exc})"]
    problems = []
    ids = [r.get("check") for r in records]
    if ids != registry.check_ids():
        problems.append(f"seed {op}: {len(ids)} records, ids differ from the registry")
    if {r.get("suite") for r in records} != set(registry.SUITES):
        problems.append(f"seed {op}: records do not cover the {len(registry.SUITES)} suites")
    problems += [f"seed {op}: {r.get('check')} not ok" for r in records if r.get("ok") is not True]
    problems += [f"seed {op}: {r.get('check')} carries seed {r.get('seed')}"
                 for r in records if r.get("seed") != op]
    return problems


def verify_check_round(ops: list[int], outs: list[dict]) -> list[str]:
    first: dict[int, bytes] = {}
    problems = []
    for op, out in zip(ops, outs):
        if first.setdefault(op, out["stdout"]) != out["stdout"]:
            problems.append(f"seed {op}: repeated run printed different stdout")
    return problems


def verify_fault_problems(env: dict) -> list[str]:
    """Each injectable fault must make verify exit 2 (untimed)."""
    problems = []
    for fault, suite in FAULTS:
        proc = subprocess.run(
            [sys.executable, *verify_argv(1729, "--suite", suite, "--inject-fault", fault)],
            env=env, capture_output=True, timeout=120,
        )
        if proc.returncode != 2:
            problems.append(f"--inject-fault {fault} exited {proc.returncode}, expected 2")
    return problems


# -- coeff-exact -------------------------------------------------------------

COEFF_SETS = 16
COEFF_N = 1000
COEFF_ANCHOR = ((1, 2, 3), (1, 2))


@dataclass(frozen=True)
class CoeffOp:
    alphas: tuple
    gammas: tuple
    n_max: int


def _rand_frac(rng: random.Random, nonzero: bool) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if f or not nonzero:
            return f


def coeff_round(seed: int, sets: int = COEFF_SETS, n_max: int = COEFF_N) -> list[CoeffOp]:
    rng = random.Random(f"coeff-exact:{seed}")
    ops: list[CoeffOp] = []
    while len(ops) < sets:
        op = CoeffOp(
            tuple(_rand_frac(rng, False) for _ in range(3)),
            tuple(_rand_frac(rng, True) for _ in range(2)),
            n_max,
        )
        if op not in ops:
            ops.append(op)
    return ops


def coeff_run(op: CoeffOp, env=None, spans_file=None, lap=_no_lap) -> tuple[int, dict]:
    from rslab.coeffs import CoeffData, double_sum_check, standardcoeff_check

    data = CoeffData.constant(op.alphas, op.gammas, op.n_max)
    double, standard = [], []
    for checks, out in ((double_sum_check, double), (standardcoeff_check, standard)):
        for n in range(1, op.n_max + 1):
            out.append(checks(n, data))
            lap()
    return op.n_max, {"data": data, "double": double, "standard": standard}


def coeff_check(op: CoeffOp, out: dict) -> list[str]:
    from rslab.coeffs import c_pi_tau, lambda_rs

    problems = []
    for name in ("double", "standard"):
        res = out[name]
        bad = [n for n, r in enumerate(res, 1) if not (isinstance(r, Fraction) and r == 0)]
        if len(res) != op.n_max or bad:
            problems.append(f"{op}: {name} residuals nonzero at n={bad[:5]} ({len(res)} given)")
    data = out["data"]
    pairs = [a * g for a in op.alphas for g in op.gammas]
    h = complete_homogeneous(pairs, op.n_max.bit_length())
    for p, k in prime_powers(op.n_max):
        for name, fn in (("lambda_rs", lambda_rs), ("c_pi_tau", c_pi_tau)):
            got = fn(p**k, data)
            if got != h[k]:
                problems.append(f"{op}: {name}({p}^{k}) = {got}, h_{k} = {h[k]}")
    rng = random.Random(repr(op))
    for _ in range(20):
        m, n = rng.randint(2, isqrt(op.n_max)), rng.randint(2, isqrt(op.n_max))
        if gcd(m, n) == 1 and lambda_rs(m * n, data) != lambda_rs(m, data) * lambda_rs(n, data):
            problems.append(f"{op}: lambda_rs not multiplicative at {m} * {n}")
    return problems


def coeff_check_round(ops, outs) -> list[str]:
    from rslab.coeffs import CoeffData, c_pi_tau

    c4 = c_pi_tau(4, CoeffData.constant(*COEFF_ANCHOR, 4))
    return [] if c4 == 197 else [f"c(4) = {c4} for alphas (1,2,3), gammas (1,2); want 197"]


# -- charsum-float -----------------------------------------------------------

# Moduli in 24..63 whose operation took 0.1-0.4 s when the benchmark was
# written: a narrow band of costs keeps the median operation steady.
FLOAT_POOL = (25, 27, 29, 32, 33, 35, 39, 40, 44, 45, 46, 48, 50, 52, 56, 58, 62)
FLOAT_N = 8  # addtomult runs at this many n, drawn from 1..2q


@dataclass(frozen=True)
class FloatOp:
    q: int
    ns: tuple


def float_round(seed: int, pool=FLOAT_POOL) -> list[FloatOp]:
    rng = random.Random(f"charsum-float:{seed}")
    qs = list(pool)
    rng.shuffle(qs)
    return [FloatOp(q, tuple(sorted(rng.sample(range(1, 2 * q + 1), FLOAT_N)))) for q in qs]


def float_run(op: FloatOp, env=None, spans_file=None, lap=_no_lap) -> tuple[int, dict]:
    from rslab.characters import addtomult_check, char_group, gauss_beta

    q = op.q
    table, residuals = {}, {}
    for idx, chi in enumerate(char_group(q).characters()):
        for r in range(1, q + 1):
            if gcd(r, q) == 1:
                table[idx, r] = gauss_beta(chi, Fraction(r, q), "float")
                lap()
        if chi.is_primitive():
            for n in op.ns:
                residuals[idx, n] = addtomult_check(chi, n, "float")
                lap()
    return len(table) + len(residuals), {"table": table, "residuals": residuals}


def float_check(op: FloatOp, out: dict) -> list[str]:
    q = op.q
    table, residuals = out["table"], out["residuals"]
    f = phi(q)
    problems = []
    if len(table) != f * f:
        problems.append(f"q={q}: table has {len(table)} entries, want phi(q)^2 = {f * f}")
    for r in range(1, q + 1):
        if gcd(r, q) == 1:
            total = sum(abs(table.get((i, r), 0)) ** 2 for i in range(f))
            if abs(total - f * f) > 1e-9 * f * f:
                problems.append(f"q={q}, r={r}: sum of |tau|^2 = {total}, want {f * f}")
    prims = {i for i, _ in residuals}
    if len(prims) != primitive_count(q) or len(residuals) != len(prims) * len(op.ns):
        problems.append(f"q={q}: {len(prims)} primitive characters, want {primitive_count(q)}")
    for i in prims:
        if abs(abs(table[i, 1]) ** 2 - q) > 1e-9 * q:
            problems.append(f"q={q}: |tau(chi_{i})|^2 = {abs(table[i, 1]) ** 2}, want {q}")
    problems += [f"q={q}: addtomult residual {v:.3e} at chi_{i}, n={n}"
                 for (i, n), v in residuals.items() if not v < 1e-10]
    return problems


# -- charsum-exact -----------------------------------------------------------

# Moduli whose operation took 0.1-0.5 s when the benchmark was written, out
# of every modulus in 9..40 and 42, 45, ..., 60 (primes above 19 cost
# seconds, small or very composite moduli milliseconds).
EXACT_POOL = (13, 17, 19, 21, 22, 26, 27, 28, 32, 36, 40, 42, 48, 60)


def exact_windows(q: int, conductor: int) -> list[int]:
    """The q2 with conductor | q2 | lcm(conductor, rad(q))."""
    return [d for d in divisors(lcm(conductor, radical(q))) if d % conductor == 0]


def exact_round(seed: int, pool=EXACT_POOL) -> list[int]:
    qs = list(pool)
    random.Random(f"charsum-exact:{seed}").shuffle(qs)
    return qs


def exact_run(q: int, env=None, spans_file=None, lap=_no_lap) -> tuple[int, dict]:
    from rslab.characters import char_group, nonvanishing_window_check

    verdicts = []
    for chi in char_group(q).characters():
        for q2 in exact_windows(q, chi.conductor()):
            verdicts.append((chi, q2, nonvanishing_window_check(chi, q2)))
            lap()
    return sum(phi(q2) for _, q2, _ in verdicts), {"verdicts": verdicts}


def exact_check(q: int, out: dict) -> list[str]:
    problems = []
    verdicts = out["verdicts"]
    if len({repr(chi) for chi, _, _ in verdicts}) != phi(q):
        problems.append(f"q={q}: verdicts cover the wrong number of characters")
    problems += [f"q={q}: {chi} has a vanishing sum at q2={q2}, r={failures[:3]}"
                 for chi, q2, (ok, failures) in verdicts if ok is not True or failures]
    primitive = [chi for chi, _, _ in verdicts if chi.conductor() == q]
    if len(primitive) != primitive_count(q):
        problems.append(f"q={q}: {len(primitive)} primitive characters, want {primitive_count(q)}")
    return problems


def exact_deep_check(q: int, out: dict) -> list[str]:
    """Recompute every exact sum of the operation and compare it with the
    float route, and check tau * conj(tau) = q exactly for primitive chi."""
    from rslab.characters import gauss_beta, gauss_classical

    problems = []
    for chi, q2, _ in out["verdicts"]:
        for r in range(1, q2 + 1):
            if gcd(r, q2) == 1:
                exact = gauss_beta(chi, Fraction(r, q2), "exact").to_complex()
                approx = gauss_beta(chi, Fraction(r, q2), "float")
                if abs(exact - approx) > 1e-9 * q**0.5:
                    problems.append(f"q={q}: {chi} at {r}/{q2}: exact {exact} vs float {approx}")
        if chi.conductor() == q:
            tau = gauss_classical(chi, "exact")
            norm = (tau * tau.conjugate()).as_rational()
            if norm != q:
                problems.append(f"q={q}: tau({chi}) * conj = {norm}, want {q}")
    return problems


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_round: object  # seed -> list of operations
    run: object  # (op, env, spans_file) -> (items, output)
    check: object  # (op, output) -> problems
    check_round: object = None  # (ops, outputs) -> problems
    # (op, output) -> problems; costly, so made in the first round of a run
    # only (every round repeats the same operations)
    deep_check: object = None


WORKLOADS = {
    "verify-cold": Workload(verify_round, verify_run, verify_check, verify_check_round),
    "coeff-exact": Workload(coeff_round, coeff_run, coeff_check, coeff_check_round),
    "charsum-float": Workload(float_round, float_run, float_check),
    "charsum-exact": Workload(exact_round, exact_run, exact_check, deep_check=exact_deep_check),
}
