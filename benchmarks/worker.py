"""One round of one workload in a fresh interpreter.

    python benchmarks/worker.py SPAWNED_NS round WORKLOAD SEED [--deep-check] [--spans FILE]
    python benchmarks/worker.py SPAWNED_NS setup WORKLOAD SEED
    python benchmarks/worker.py SPAWNED_NS registry

SPAWNED_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process; the set-up time runs from there to the first timed operation
and covers interpreter start, `import rslab` and building the round's
inputs.  `setup` stops there.  Right after the set-up and after each
operation, untimed, the worker times a fixed stdlib-only loop, which tells
the machine's speed at that moment.  `--deep-check` adds the workload's costly
checks.  With `--spans` the round runs under the tracer (paused while
outputs are checked) and the summary of its spans is returned.

`registry` times each registry check in-process with the default config.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def reference_ns() -> int:
    """Best of five runs of a fixed stdlib-only loop (about 1.3 ms): the
    machine's speed at this moment, untouched by rslab."""
    best = None
    for _ in range(5):
        t0 = _now_ns()
        sum((i * i) % 7 for i in range(20_000))
        t = _now_ns() - t0
        best = t if best is None else min(best, t)
    return best


def run_round(name: str, seed: int, spawned_ns: int, deep_check: bool,
              spans_file: Path | None) -> dict:
    from workloads import WORKLOADS

    import rslab  # noqa: F401  (import time belongs to the set-up)

    workload = WORKLOADS[name]
    ops = workload.make_round(seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cold = name == "verify-cold"
    tracer = None
    if spans_file is not None and not cold:
        from spans import Tracer

        tracer = Tracer.install()
        tracer.active = False
    setup_ns = _now_ns() - spawned_ns
    # op_ns[i], step_ns[i] and items[i] belong to ops[i]; None where the
    # operation failed.  An in-process operation calls lap() at the end of
    # each of its steps; step_ns[i] are the times between those calls.
    # ref_ns[i] and ref_ns[i + 1] are the reference loop's times just
    # before and just after ops[i], untimed
    op_ns, step_ns, items, outs, problems = [], [], [], [], []
    ref_ns = [reference_ns()]
    op_spans = []  # one spans file per child process of the cold workload
    for i, op in enumerate(ops):
        if spans_file is not None and cold:
            op_spans.append(spans_file.with_name(spans_file.name.replace(".spans", f"-op{i}.spans")))
        if tracer:
            tracer.active = True
        laps = [_now_ns()]
        t0 = laps[0]
        try:
            if cold:
                count, out = workload.run(op, env, op_spans[-1] if op_spans else None)
            else:
                count, out = workload.run(op, lap=lambda: laps.append(_now_ns()))
        except Exception as exc:  # an operation that raises counts as failed
            problems.append(f"{op!r} raised {exc!r}")
            count = out = None
        finally:
            t1 = _now_ns()
            if tracer:
                tracer.active = False
        op_ns.append(None if out is None else t1 - t0)
        laps.append(t1)
        step_ns.append(None if out is None else [b - a for a, b in zip(laps, laps[1:])])
        items.append(count)
        outs.append(out)
        ref_ns.append(reference_ns())
        if out is not None:
            problems += workload.check(op, out)
    # the costly checks run after the last timed operation, so that what
    # they leave in rslab's caches cannot speed up a later operation
    if deep_check and workload.deep_check:
        problems += [p for op, out in zip(ops, outs) if out is not None
                     for p in workload.deep_check(op, out)]
    if workload.check_round and None not in outs:
        problems += workload.check_round(ops, outs)
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    result = {
        "setup_ns": setup_ns,
        "op_ns": op_ns,
        "step_ns": step_ns,
        "ref_ns": ref_ns,
        "items": items,
        "failed": op_ns.count(None),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(spans_file)
    elif op_spans:
        from spans import merge, summary_path

        result["trace"] = merge([json.loads(summary_path(f).read_text()) for f in op_spans])
    return result


def setup_only(name: str, seed: int, spawned_ns: int) -> dict:
    from workloads import WORKLOADS

    import rslab  # noqa: F401

    WORKLOADS[name].make_round(seed)
    setup_ns = _now_ns() - spawned_ns
    return {"setup_ns": setup_ns, "ref_ns": reference_ns()}


def time_registry() -> dict:
    from rslab import registry

    cfg = registry.RunConfig()
    out = {}
    for check in registry.CHECKS:
        t0 = _now_ns()
        result = registry.run_check(check, cfg)
        out[check.check_id] = {"ns": _now_ns() - t0, "ok": result.ok}
    return out


def main(argv: list[str]) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("spawned_ns", type=int)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("round", "setup"):
        p = sub.add_parser(mode)
        p.add_argument("workload")
        p.add_argument("seed", type=int)
    sub.choices["round"].add_argument("--deep-check", action="store_true")
    sub.choices["round"].add_argument("--spans", type=Path)
    sub.add_parser("registry")
    args = parser.parse_args(argv)
    if args.mode == "registry":
        return time_registry()
    if args.mode == "setup":
        return setup_only(args.workload, args.seed, args.spawned_ns)
    return run_round(args.workload, args.seed, args.spawned_ns, args.deep_check, args.spans)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
