"""Command-line front end: run verification suites and print tables.

Subcommands: verify, coeffs, gauss, twist, reduce, funceq.  Each takes only
the options it reads.  Exit codes: 0 on success, 2 when a verification
check fails, 3 on bad input or configuration, or when the output cannot be
written.  `verify` takes its seed and size bounds from its flags alone.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from array import array
from fractions import Fraction

from . import funceq as fe
from . import langlands, matid, registry, twists
from .arith import largest_prime_powers
from .characters import char_group, gauss_beta
from .coeffs import CoeffData, coefficient_rows
from .euler import inverse_series
from .matid import CosetContext, Mat
from .scalars import EXACT, FLOAT

# --q bounds where the command takes about a minute on 2 vCPUs; a prime q
# costs most: `gauss --q 223` takes 59 s (phi(q)^2 sums of q terms), and
# `funceq --q 399989 --chi-index 1` 58 s (q Hurwitz zeta values per point,
# so funceq bounds q times the number of points)
GAUSS_Q_MAX = 225
FUNCEQ_Q_MAX = 4 * 10**5
# `coeffs --N` bound: N = 128000 takes 1.2 s and 83 MB on 2 vCPUs, 256000
# 2.9-3.6 s and 151 MB, 400000 4.1-4.7 s and 225 MB (every row is built before
# one is written)
COEFFS_N_MAX = 4 * 10**5
# `twist --N` bound, the largest prime a rep file may list: with a file of all
# 78,498 primes below 10^6, N = 10 takes 0.5 s and 19 MB on 2 vCPUs, 10^5
# 1.9-3.4 s and 28 MB, 3*10^5 6.3-7.0 s and 45 MB, 10^6 17-24 s and 92 MB
TWIST_N_MAX = langlands.REP_P_MAX
# CosetContext tests p and p_prime for primality by trial division: 0.08 s
# at 10^12 and 0.65-0.84 s at 10^14 on 2 vCPUs
REDUCE_CTX_MAX = 10**12
# the largest decimal exponent a rational option may carry (1e4300 has as
# many digits as Python prints an int with by default)
EXPONENT_MAX = 4300


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 on usage errors, as the exit-code contract asks,
    and takes option names only in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(3)

    def _get_values(self, action, arg_strings):
        # '--' given as an option's value is no value (argparse 3.11 drops it)
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)

    def print_help(self, file=None):
        # argparse drops a failed write; this one reaches main's output guard
        (file or sys.stdout).write(self.format_help())


def _die(message: str) -> "None":
    print(f"error: {message}", file=sys.stderr)
    sys.exit(3)


def _read_text(path: str) -> str:
    """The file's UTF-8 text; exit 3 if it cannot be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _die(f"cannot read {path}: {exc}")


def _run_config(args) -> registry.RunConfig:
    """The flags' knobs; a flag not given keeps its RunConfig default."""
    knobs = {key: getattr(args, key) for key in ("n_max", "p_max", "seed")
             if getattr(args, key) is not None}
    return registry.RunConfig(**knobs, inject_fault=args.inject_fault)


def _jmat(m: Mat) -> list:
    rows, cols = m.shape
    return [[str(m[i, j]) for j in range(cols)] for i in range(rows)]


def _rational(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent above EXPONENT_MAX before
    10**exponent is built (Fraction("1e10000000") alone takes 7-8 s on 2 vCPUs)."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > EXPONENT_MAX:
        raise ValueError(f"the exponent of {text!r} is above {EXPONENT_MAX}")
    return Fraction(text)


def parse_fraction_list(text: str, want: int, label: str) -> tuple:
    """The `want` comma-separated rationals of an option's value; any that
    does not parse raises ValueError, which `main` turns into exit 3."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != want:
        raise ValueError(f"{label} needs {want} comma-separated rationals, got {len(parts)}")
    try:
        return tuple(_rational(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label}: could not parse {text!r} as rationals ({exc})") from None


def parse_matrix2(text: str) -> Mat:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix must look like 'a,b;c,d'")
    return Mat([parse_fraction_list(r, 2, "--matrix row") for r in rows])


# -- verify -------------------------------------------------------------------


def _json_lines(records) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def cmd_verify(args) -> int:
    cfg = _run_config(args)
    results = registry.run_suite(args.suite, cfg)
    by_id = {c.check_id: c for c in registry.CHECKS}
    records = [
        {
            "check": r.check_id,
            "suite": r.suite,
            "ok": r.ok,
            "detail": r.detail,
            "anchor": by_id[r.check_id].description,
            "seed": cfg.seed,
            "mode": by_id[r.check_id].mode,
        }
        for r in results
    ]
    if args.json:
        sys.stdout.write(_json_lines(records))
    else:
        wid = max(len(r.check_id) for r in results)
        wsuite = max(len(r.suite) for r in results)
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{r.check_id:<{wid}}  {r.suite:<{wsuite}}  {status}  {r.detail}")
        passed = sum(r.ok for r in results)
        print(f"\n{passed}/{len(results)} checks passed  (suite={args.suite}, seed={cfg.seed})")
    failed = [r for r in results if not r.ok]
    if failed:
        fault = f" --inject-fault {cfg.inject_fault}" if cfg.inject_fault else ""
        print(
            f"reproduce: rslab verify --suite {failed[0].suite} --seed {cfg.seed}"
            f" --n-max {cfg.n_max} --p-max {cfg.p_max}{fault}",
            file=sys.stderr,
        )
        return 2
    return 0


# -- tables -------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    alphas = parse_fraction_list(args.alphas, 3, "--alphas")
    gammas = parse_fraction_list(args.gammas, 2, "--gammas")
    if any(g == 0 for g in gammas):
        _die("--gammas must be nonzero")
    n_max = args.N
    if n_max < 1 or n_max > COEFFS_N_MAX:
        _die(f"--N must be in [1, {COEFFS_N_MAX}]")
    data = CoeffData.constant(alphas, gammas, n_max, EXACT)
    rows = coefficient_rows(n_max, data)
    lines = ["n,lambda,c,pair,residual"]
    lines += [f"{n},{ls},{c},{lp},{res}" for n, ls, c, lp, res in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _gauss_records(q: int) -> list:
    group = char_group(q)
    records = []
    for idx, chi in enumerate(group.characters()):
        for r in range(1, q + 1):
            if q > 1 and Fraction(r, q).denominator != q:
                continue
            beta = Fraction(r, q)
            val = gauss_beta(chi, beta, FLOAT)
            records.append(
                {
                    "q": q,
                    "chi_index": idx,
                    "beta": str(beta),
                    "value": [val.real, val.imag],
                    "abs2": abs(val) ** 2,
                }
            )
    return records


def _twist_coeffs(args) -> array:
    """The twisted coefficients of n = 1..N as (re, im) pairs in one array;
    exits 3 before anything is written if one overflows a float."""
    (beta,) = parse_fraction_list(args.beta, 1, "--beta")
    n_max = args.N
    if n_max < 1 or n_max > TWIST_N_MAX:
        _die("--N out of range")
    params = langlands.parse_rep_file(_read_text(args.pi_file), n_max)
    tables = {}  # p -> a(p^k) for p^k <= N, p ascending
    for p in sorted(params):
        kmax, pk = 0, p
        while pk <= n_max:
            kmax, pk = kmax + 1, pk * p
        tables[p] = inverse_series(params[p], kmax, FLOAT)
    # a(n) = a(n / p^k) a(p^k) for the largest prime p of n, k = ord_p(n): the
    # products `euler.multiplicative` takes, in its (ascending) order, so the
    # same floats, with no n factorized (the cache would keep one entry per n)
    top, rest, exp = largest_prime_powers(n_max)
    q_mod = beta.denominator
    a = array("d", (0.0, 0.0))  # a(n) at 2n, 2n + 1
    coeffs = array("d")
    for n in range(1, n_max + 1):
        if n == 1:
            a_n = complex(1)
        else:
            m = rest[n]
            a_n = complex(a[2 * m], a[2 * m + 1]) * tables[top[n]][exp[n]]
        a.extend((a_n.real, a_n.imag))
        coeff = a_n * twists.unit_average(n * beta, q_mod, args.parity)
        if not cmath.isfinite(coeff):
            _die(f"coefficient a({n}) overflows a float")
        coeffs.extend((coeff.real, coeff.imag))
    return coeffs


def _check_q(q: int, bound: int) -> int:
    if q < 1 or q > bound:
        _die(f"--q must be in [1, {bound}]")
    return q


def cmd_gauss(args) -> int:
    sys.stdout.write(_json_lines(_gauss_records(_check_q(args.q, GAUSS_Q_MAX))))
    return 0


def _twist_lines(coeffs: array):
    """The JSON lines of the twisted coefficients, 4096 to a chunk."""
    for lo in range(0, len(coeffs), 8192):
        part = coeffs[lo : lo + 8192]
        yield _json_lines({"n": (lo + i) // 2 + 1, "coeff": [part[i], part[i + 1]]}
                          for i in range(0, len(part), 2))


def cmd_twist(args) -> int:
    sys.stdout.writelines(_twist_lines(_twist_coeffs(args)))
    return 0


def cmd_reduce(args) -> int:
    M = parse_matrix2(args.matrix)
    ctx_args = parse_fraction_list(args.ctx, 3, "--ctx")
    if any(x.denominator != 1 for x in ctx_args):
        _die(f"--ctx needs three integers, got {args.ctx!r}")
    if any(abs(x) > REDUCE_CTX_MAX for x in ctx_args):
        _die(f"--ctx entries must be at most 10^12 in absolute value, got {args.ctx!r}")
    out = matid.coset_reduce(M, CosetContext(*(int(x) for x in ctx_args)))
    record = {
        "gamma1": str(out.gamma1),
        "gamma2": str(out.gamma2),
        "u": _jmat(out.u),
        "g": _jmat(out.g),
        "canonical": _jmat(out.canonical_matrix()),
        "in_support": matid.coset_in_support(out.gamma1, out.gamma2, out.ctx),
    }
    print(json.dumps(record, separators=(",", ":")))
    return 0


def cmd_funceq(args) -> int:
    q = _check_q(args.q, FUNCEQ_Q_MAX)
    group = char_group(q)
    if not 0 <= args.chi_index < len(group):
        _die(f"--chi-index must be in [0, {len(group) - 1}] for q={q}")
    chi = group.character_at(args.chi_index)
    if not chi.is_primitive() or chi.is_trivial():
        _die("the reflection formula needs a primitive nontrivial character")
    try:
        points = [complex(tok) for tok in args.points.split(",") if tok.strip()]
    except ValueError:
        _die(f"--points: could not parse {args.points!r}")
    if not points:
        _die("--points is empty")
    if q * len(points) > FUNCEQ_Q_MAX:
        _die(f"--q times the number of --points must be <= {FUNCEQ_Q_MAX}, got {q * len(points)}")
    residuals = []
    for s in points:
        try:
            residuals.append(fe.fe_residual_dirichlet(chi, s))
        except ValueError as exc:
            _die(f"--points: {exc}")
    for s, res in zip(points, residuals):
        print(
            json.dumps(
                {"q": q, "chi_index": args.chi_index, "s": [s.real, s.imag],
                 "residual": res if math.isfinite(res) else None},
                separators=(",", ":"),
            )
        )
    # all(<), not max(): a NaN residual compares False and so fails
    return 0 if all(res < 1e-8 for res in residuals) else 2


# -- wiring -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--seed", type=int, help="seed for randomized checks")
    pv.add_argument("--n-max", type=int, dest="n_max", help="truncation for coefficient checks")
    pv.add_argument("--p-max", type=int, dest="p_max", help="modulus bound for character checks")
    pv.add_argument("--suite", default="all", help="one of: all, " + ", ".join(registry.SUITES))
    pv.add_argument("--json", action="store_true", help="JSON lines to stdout instead of a table")
    pv.add_argument("--inject-fault", dest="inject_fault",
                    help="corrupt the input of one check, one of: "
                         + ", ".join(sorted(registry.FAULT_CAPABLE)) + " (self-test of the harness)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("coeffs", help="coefficient table n, lambda, c, pairing, residual (CSV)")
    pc.add_argument("--alphas", default="1,2,3", help="three rationals")
    pc.add_argument("--gammas", default="1,2", help="two nonzero rationals")
    pc.add_argument("--N", type=int, default=100, help="number of coefficients")
    pc.set_defaults(func=cmd_coeffs)

    pg = sub.add_parser("gauss", help="character-sum table for one modulus (JSON lines)")
    pg.add_argument("--q", type=int, required=True)
    pg.set_defaults(func=cmd_gauss)

    pt = sub.add_parser("twist", help="additive twist of a degree-3 coefficient stream")
    pt.add_argument("--pi-file", dest="pi_file", required=True)
    pt.add_argument("--beta", required=True, help="rational shift r/q")
    pt.add_argument("--parity", type=int, choices=(0, 1), default=0)
    pt.add_argument("--N", type=int, default=50)
    pt.set_defaults(func=cmd_twist)

    pr = sub.add_parser("reduce", help="canonical coset form of a 2x2 rational matrix")
    pr.add_argument("--matrix", required=True, help="'a,b;c,d' with rational entries")
    pr.add_argument("--ctx", required=True, help="'p,qprime,pprime'")
    pr.set_defaults(func=cmd_reduce)

    pf = sub.add_parser("funceq", help="completed L-function reflection residuals")
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--chi-index", dest="chi_index", type=int, required=True)
    pf.add_argument("--points", default="0.5", help="comma-separated complex points")
    pf.set_defaults(func=cmd_funceq)

    return parser


#: options whose value may start with '-' (a negative entry or point)
SIGNED_VALUE_OPTIONS = frozenset({"--matrix", "--ctx", "--alphas", "--gammas", "--beta", "--points"})


def _join_signed_values(argv: list[str]) -> list[str]:
    """Rewrite '--matrix -1,0;0,1' as '--matrix=-1,0;0,1' (and so on for
    SIGNED_VALUE_OPTIONS): argparse reads a separate word that starts with
    '-' as an option, but takes it as the value after '='.  A word that
    starts with '--' is left alone, so a missing value is still reported."""
    out = []
    for word in argv:
        if (out and out[-1] in SIGNED_VALUE_OPTIONS and word.startswith("-")
                and not word.startswith("--")):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:  # --help writes here too, then exits 0
            args = build_parser().parse_args(_join_signed_values(argv))
            return args.func(args)
        finally:
            sys.stdout.flush()
    except ValueError as exc:  # bad input, or a result too long to print
        _die(str(exc))
    except OSError as exc:  # stdout closed early (a pipe) or full
        # the interpreter flushes stdout again at exit; let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _die(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
