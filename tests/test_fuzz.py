"""Property tests of the command-line contract on generated input: whatever
`rslab reduce` is given, it answers (exit 0) or rejects the input (exit 3),
promptly and without a traceback, and the same whether each value follows
its option after '=' or as its own argv word."""

import contextlib
import io
import signal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
_junk = st.sampled_from(["", " ", "x", "1/0", "nan", "inf", "1e5", "--", ";", ",", "2/", "0x10"])
_token = st.one_of(_number, _junk)


def _row(tok, size=None):
    return st.lists(tok, min_size=size or 1, max_size=size or 3).map(",".join)


# mostly well-formed input, so that most examples reach the reduction
_matrix2 = st.tuples(_row(_number, 2), _row(_number, 2)).map(";".join)
_matrix = st.one_of(_matrix2, _matrix2, st.lists(_row(_token), min_size=1, max_size=3).map(";".join))
_ctx3 = st.tuples(_p, st.one_of(st.integers(1, 50), _integers), _p_prime).map(
    lambda t: ",".join(map(str, t)))
_ctx = st.one_of(_ctx3, _ctx3, _row(_token))


def _on_alarm(signum, frame):
    raise TimeoutError


def _reduce(argv):
    """(exit code, stdout, stderr) of `rslab reduce` with argv, or a hang
    reported in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HANG_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["reduce", *argv])
            except SystemExit as exc:
                code = exc.code
            except TimeoutError:
                code = f"still running after {HANG_S} s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=2000, derandomize=True, max_examples=400)
@given(matrix=_matrix, ctx=_ctx)
def test_reduce_exits_0_or_3_promptly(matrix, ctx):
    code, out, err = _reduce([f"--matrix={matrix}", f"--ctx={ctx}"])
    assert code in (0, 3), (code, err)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
    # each value as its own argv word, as a shell user types it, answers the same
    # (a word that starts with '--' is read as an option, and so left out here)
    if not matrix.startswith("--") and not ctx.startswith("--"):
        assert _reduce(["--matrix", matrix, "--ctx", ctx]) == (code, out, err)
