"""Property tests of the command-line contract on generated input: whatever
`rslab reduce`, `rslab twist --pi-file` or `rslab verify --suite doublesum`
is given, it answers (exit 0) or rejects the input (exit 3), promptly and
without a traceback; `reduce` answers the same whether each value follows
its option after '=' or as its own argv word."""

import contextlib
import io
import signal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rslab.arith import primes_up_to  # noqa: E402
from rslab.cli import main  # noqa: E402

#: an example slower than this fails as a hang, past the 2-s deadline
HANG_S = 10

_rationals = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
# primes, so that CosetContext accepts the entry and the reduction runs; p and
# p_prime come from disjoint lists, as they must differ
_p = st.sampled_from([2, 3, 100000007, 999999999989])
_p_prime = st.sampled_from([5, 7, 11, 13])
_integers = st.one_of(st.integers(-10**13, 10**13), _p, _p_prime)
_number = st.one_of(_rationals, _integers).map(str)
_junk = st.sampled_from(["", " ", "x", "1/0", "nan", "inf", "1e5", "--", ";", ",", "2/", "0x10",
                         "1e5000", "1e99999999"])
_token = st.one_of(_number, _junk)


def _row(tok, size=None):
    return st.lists(tok, min_size=size or 1, max_size=size or 3).map(",".join)


# mostly well-formed input, so that most examples reach the reduction
_matrix2 = st.tuples(_row(_number, 2), _row(_number, 2)).map(";".join)
_matrix = st.one_of(_matrix2, _matrix2, st.lists(_row(_token), min_size=1, max_size=3).map(";".join))
_ctx3 = st.tuples(_p, st.one_of(st.integers(1, 50), _integers), _p_prime).map(
    lambda t: ",".join(map(str, t)))
_ctx = st.one_of(_ctx3, _ctx3, _row(_token))


class _Hang(Exception):
    """Raised by the alarm; not a TimeoutError, which is an OSError that
    `main` would take for a failed stdout write."""


def _on_alarm(signum, frame):
    raise _Hang


def _run(argv):
    """(exit code, stdout, stderr) of `rslab` with argv, or a hang reported
    in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HANG_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _Hang:
                code = f"still running after {HANG_S} s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=2000, derandomize=True, max_examples=400)
@given(matrix=_matrix, ctx=_ctx)
def test_reduce_exits_0_or_3_promptly(matrix, ctx):
    code, out, err = _run(["reduce", f"--matrix={matrix}", f"--ctx={ctx}"])
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
    # each value as its own argv word, as a shell user types it, answers the same
    # (a word that starts with '--' is read as an option, and so left out here)
    if not matrix.startswith("--") and not ctx.startswith("--"):
        assert _run(["reduce", "--matrix", matrix, "--ctx", ctx]) == (code, out, err)


# rep files: well formed in about half of the draws, so that many examples
# reach the series, with p = 2 sometimes at a size whose local factor (1e308)
# or a(16) (1e100) overflows; the rest mix in bad fields, and any file may
# gain extra lines, duplicate primes and comments included
_P_MAX = 30
_real = st.floats(-3, 3).filter(bool).map(repr)
_param = st.one_of(_real, st.tuples(_real, _real).map(",".join))
_scalar = st.one_of(_param, st.sampled_from(
    ["0", "0,0", "1", "-1", "1/2", "nan", "inf", "-inf", "1e400", "1e308", "1e100", "1,nan",
     "1,2,3", ",", "x"]))
_field_p = st.one_of(st.sampled_from(primes_up_to(_P_MAX)), st.integers(-10**30, 10**30),
                     st.sampled_from([999983, 1000003, 10**30 + 57, 1, 0, -2]))
_field_m = st.one_of(st.integers(-1, 3), st.integers(-10**30, 10**30))


def _line(p, m, root, param):
    return st.tuples(p, m, root, param, param, param).map(lambda t: " ".join(map(str, t)))


_extra_line = st.one_of(
    _line(_field_p, _field_m, _scalar, _scalar),
    st.lists(st.one_of(_scalar, _field_p.map(str)), max_size=8).map(" ".join),
    st.sampled_from(["# comment", "", "   ", "2 0 1 1 1 1 # trailing comment"]),
)


@st.composite
def _rep_files(draw):
    n_max = draw(st.integers(1, _P_MAX))
    if draw(st.booleans()):
        lines = [draw(_line(st.just(p), st.just(0), st.just(1), _param))
                 for p in primes_up_to(n_max)]
        huge = draw(st.sampled_from([None, None, "1e100", "1e308"]))
        if huge and lines:
            lines[0] = f"2 0 1 {huge} {huge} {huge}"
    else:
        lines = [draw(_line(st.just(p), _field_m, _scalar, _scalar)) for p in primes_up_to(n_max)]
    for line in draw(st.lists(_extra_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return n_max, "\n".join(lines) + "\n"


@settings(deadline=2000, derandomize=True, max_examples=300)
@given(rep=_rep_files(), beta=st.sampled_from(["1/4", "0", "-2/5", "7"]), parity=st.sampled_from("01"))
def test_twist_rep_file_exits_0_or_3_promptly(tmp_path_factory, rep, beta, parity):
    n_max, text = rep
    path = tmp_path_factory.getbasetemp() / "fuzz.rep"
    path.write_text(text)
    code, out, err = _run(["twist", "--pi-file", str(path), f"--beta={beta}", "--N", str(n_max),
                           "--parity", parity])
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err
    assert len(out.splitlines()) == (n_max if code == 0 else 0)


# --n-max at and around both of its bounds, 10 and 10^5, and a mid-size run
_n_max = st.one_of(st.sampled_from(["9", "10", "11", "199", "5000", "100001", "-1"]), _junk)
_seed = st.one_of(st.integers(-10**30, 10**30).map(str), _junk)


@settings(deadline=2000, derandomize=True, max_examples=60)
@given(n_max=_n_max, seed=_seed)
def test_verify_doublesum_exits_0_or_3_promptly(n_max, seed):
    code, out, err = _run(["verify", "--suite", "doublesum", f"--n-max={n_max}", f"--seed={seed}",
                           "--json"])
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
