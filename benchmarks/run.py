"""rslab benchmark: one workload, one seed, for about --seconds seconds.

    python3 benchmarks/run.py --workload coeff-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/rslab.  The run repeats
whole rounds of the workload (workloads.py), each in a fresh interpreter
(worker.py), until --seconds have passed; the first round also makes the
workload's costly checks.  Every time is scaled to one machine speed by a
reference loop timed next to it (REFERENCE_NS).  Each operation's time is
the sum of its steps' median times over the rounds; op_p50_s is the median of
those, items_per_s a round's items over their sum.  The set-up time is the
median over the rounds and SETUP_PROBES further interpreters that only set
up.

With --trace 0 it prints the end-to-end metrics.  With --trace 1 it runs one
round untraced and the same round traced, and prints the per-layer metrics,
the registry check times and the import times; spans go to benchmarks/out/.

The line before the last describes the machine and the run (it holds no
metric); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, verify_fault_problems  # noqa: E402

SETUP_PROBES = 3
#: the worker's reference loop at the machine speed that times are given at
#: (its best time on the 2-vCPU sandbox the benchmark was written on)
REFERENCE_NS = 1_300_000
CHILD_TIMEOUT_S = 150
OUT = Path("benchmarks") / "out"


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _python(args: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child interpreter in its own process group; on timeout the whole
    group (with any grandchild) is killed and waited for."""
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _worker(args: list[str], env: dict) -> dict:
    proc = _python([str(BENCH / "worker.py"), str(_now_ns()), *args], env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine(root: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rslab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pinned_to": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "loadavg": os.getloadavg(),
    }


def reference_ms(rounds: list[dict]) -> list[float]:
    """Least, median and greatest time of the workers' reference loop."""
    refs = [t / 1e6 for r in rounds for t in r["ref_ns"]]
    return [min(refs), statistics.median(refs), max(refs)]


def untraced(workload: str, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    start = _now_ns()
    rounds = []
    while not rounds or (_now_ns() - start) / 1e9 < seconds:
        deep = [] if rounds else ["--deep-check"]
        rounds.append(_worker(["round", workload, str(seed), *deep], env))
    probes = [_worker(["setup", workload, str(seed)], env) for _ in range(SETUP_PROBES)]
    # the vCPU runs at speeds up to 1.7 times apart, in spells from seconds
    # to minutes: each time is scaled by the reference loop's time taken
    # next to it, to the speed at which that loop takes REFERENCE_NS
    setups = [r["setup_ns"] * REFERENCE_NS / r["ref_ns"][0] for r in rounds]
    setups += [p["setup_ns"] * REFERENCE_NS / p["ref_ns"] for p in probes]
    problems = [p for r in rounds for p in r["problems"]]
    if workload == "verify-cold":
        problems += verify_fault_problems(env)
    # every round repeats the same operations, step for step: an operation's
    # time is the sum of its steps' median (scaled) times over the rounds
    def scaled(r: dict, i: int) -> list[float] | None:
        if r["step_ns"][i] is None:
            return None
        factor = 2 * REFERENCE_NS / (r["ref_ns"][i] + r["ref_ns"][i + 1])
        return [t * factor for t in r["step_ns"][i]]

    op_s, raw_s, items = [], [], []
    for i in range(len(rounds[0]["step_ns"])):
        done = [s for s in (scaled(r, i) for r in rounds) if s is not None]
        if done:
            op_s.append(sum(map(statistics.median, zip(*done, strict=True))) / 1e9)
            raw_s.append(statistics.median(r["op_ns"][i] for r in rounds if r["op_ns"][i] is not None) / 1e9)
            items.append(next(r["items"][i] for r in rounds if r["items"][i] is not None))
    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "items_per_s": (sum(items) / sum(op_s), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    info = {"rounds": len(rounds), "operations": len(op_s), "setup_samples": len(setups),
            "reference_ms": reference_ms(rounds),
            "unscaled_op_p50_s": statistics.median(raw_s),
            "unscaled_setup_s": statistics.median([r["setup_ns"] for r in rounds + probes]) / 1e9,
            "problems": problems[:20]}
    return _result(rounds, problems, metrics), info


def import_times(env: dict) -> dict:
    """`import rslab` and the scipy/numpy part of it, from -X importtime in
    fresh interpreters (median of three)."""
    samples = []
    for _ in range(3):
        proc = _python(["-X", "importtime", "-c", "import rslab"], env)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode()[-2000:])
        rslab_us, scipy_us, stack = 0, 0, []
        # lines are printed children first; read them parents first
        for line in reversed(proc.stderr.decode().splitlines()):
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            while stack and stack[-1][0] >= depth:
                stack.pop()
            heavy = name.split(".")[0] in ("scipy", "numpy")
            if name == "rslab":
                rslab_us = int(fields[1])
            elif heavy and not any(h for _, h in stack):
                scipy_us += int(fields[1])
            stack.append((depth, heavy))
        samples.append((rslab_us, scipy_us))
    return {
        "import.rslab_s": (statistics.median(s[0] for s in samples) / 1e6, "s"),
        "import.scipy_s": (statistics.median(s[1] for s in samples) / 1e6, "s"),
    }


def traced(workload: str, seed: int, env: dict) -> tuple[dict, dict]:
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.json.gz"
    plain = _worker(["round", workload, str(seed), "--deep-check"], env)
    # both rounds make the costly checks, which also warm caches between
    # operations, so that the two rounds stay comparable
    with_spans = _worker(["round", workload, str(seed), "--deep-check", "--spans",
                          str(spans.resolve())], env)
    registry = _worker(["registry"], env)
    metrics = import_times(env)
    metrics.update({f"registry.{k}_s": (v["ns"] / 1e9, "s") for k, v in registry.items()})
    metrics.update(layer_metrics(with_spans["trace"]))
    rounds = [plain, with_spans]
    problems = [p for r in rounds for p in r["problems"]]
    problems += [f"registry check {k} failed" for k, v in registry.items() if not v["ok"]]
    overhead = sum(filter(None, with_spans["op_ns"])) / sum(filter(None, plain["op_ns"])) - 1
    info = {"spans_file": str(spans), "spans": with_spans["trace"]["spans"],
            "trace_overhead": overhead, "reference_ms": reference_ms(rounds),
            "problems": problems[:20]}
    return _result(rounds, problems, metrics), info


def _result(rounds: list[dict], problems: list[str], metrics: dict) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(len(r["op_ns"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "rslab" / "__init__.py").is_file():
        print("error: run from the root of an rslab checkout (no src/rslab here)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if hasattr(os, "sched_setaffinity"):
        # this process and every one it starts run on one CPU, so that the
        # reference loop a worker times is timed on the CPU that ran the
        # operation, the cold workload's child process included
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    about = machine(root)
    if args.trace:
        result, info = traced(args.workload, args.seed, env)
    else:
        result, info = untraced(args.workload, args.seed, args.seconds, env)
    about.update(info, workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"about": about}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
