"""Spans around the calls into each rslab module, installed from outside the
package.

`Tracer.install()` wraps every public function of the layer modules, the
public methods, classmethods, staticmethods and properties of the classes
they define, and the arithmetic and comparison operators of those classes.
Every module of the package that imported one of these functions under its
own name gets the wrapped one as well, so a call is traced whichever module
makes it.  A span records its name, start, end and parent span; spans stay
in memory (four flat arrays) and are written out once, by `write`.

A layer's self time is the time of its spans minus the time of their child
spans, added up per span name as each span closes.  Spans around a generator function cover only the creation of the
generator; its body runs in the span of whoever consumes it.

Run as a script, it traces one rslab command line:

    python benchmarks/spans.py SPANS_FILE -m rslab.cli verify --suite all

writes the spans to SPANS_FILE and their summary to `summary_path(SPANS_FILE)`,
and exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "arith", "scalars", "cyclotomic", "euler", "symfunc", "characters",
    "langlands", "coeffs", "matid", "twists", "funceq",
)
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__eq__", "__call__", "__getitem__",
})
#: function-level counts reported by name: metric prefix -> span name
FUNCTIONS = {
    "characters.value": "characters.DirichletCharacter.value",
    "characters.gauss_beta": "characters.gauss_beta",
    "cyclotomic.is_zero": "cyclotomic.CycloElement.is_zero",
    "scalars.coerce": "scalars.coerce",
    "arith.factorize": "arith.factorize",
}

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.calls: list[int] = []  # per span name
        self.self_ns: list[int] = []  # per span name: time minus child spans
        self.stack: list[int] = []  # open spans
        self.child_ns: list[int] = []  # per open span: time of its closed children
        self.active = True
        self.originals: dict[str, object] = {}

    # -- installing --------------------------------------------------------

    def _wrap(self, name: str, fn):
        self.originals[name] = fn
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        calls, self_ns, stack, child_ns = self.calls, self.self_ns, self.stack, self.child_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            child_ns.append(0)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = end[idx] = _clock()
                stack.pop()
                dur = t - start[idx]
                calls[nid] += 1
                self_ns[nid] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur

        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(name, value.__func__)))
            elif isinstance(value, property):
                setattr(cls, attr, property(self._wrap(name, value.fget), value.fset,
                                            value.fdel, value.__doc__))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(name, value))

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap the layer modules of the rslab package already on sys.path."""
        tracer = cls()
        package = importlib.import_module("rslab")
        modules = [importlib.import_module(f"rslab.{m}") for m in LAYERS]
        replaced: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    tracer._wrap_class(layer, value)
                elif callable(value):
                    replaced[id(value)] = tracer._wrap(f"{layer}.{attr}", value)
        everyone = [package] + [m for n, m in sorted(sys.modules.items())
                                if n.startswith("rslab.")]
        for mod in everyone:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
        return tracer

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per layer and per span name, and the
        factorize cache misses."""
        layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        functions = {}
        for name, calls, ns in zip(self.names, self.calls, self.self_ns):
            if calls:
                functions[name] = {"calls": calls, "self_ns": ns}
                layer = layers[name.split(".", 1)[0]]
                layer["calls"] += calls
                layer["self_ns"] += ns
        return {
            "spans": len(self.start),
            "layers": layers,
            "functions": functions,
            "factorize_misses": self.originals["arith.factorize"].cache_info().misses,
        }

    def write(self, path: Path) -> None:
        """All spans, gzipped text: a JSON header naming the columns and the
        span names, then one line per span in the order spans were opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"columns": ["name", "start_ns", "end_ns", "parent"], "names": self.names}
        cols = (self.span_name, self.start, self.end, self.parent)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for lo in range(0, len(self.start), 65536):
                rows = zip(*(c[lo : lo + 65536] for c in cols))
                fh.write("".join(f"{a} {b} {c} {d}\n" for a, b, c, d in rows))


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    out = {"spans": 0, "layers": {}, "functions": {}, "factorize_misses": 0}
    for s in summaries:
        out["spans"] += s["spans"]
        out["factorize_misses"] += s["factorize_misses"]
        for key in ("layers", "functions"):
            for name, v in s[key].items():
                acc = out[key].setdefault(name, {"calls": 0, "self_ns": 0})
                acc["calls"] += v["calls"]
                acc["self_ns"] += v["self_ns"]
    return out


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a (merged) summary."""
    out = {}
    for layer in LAYERS:
        v = summary["layers"].get(layer, {"calls": 0, "self_ns": 0})
        out[f"{layer}.calls"] = (v["calls"], "count")
        out[f"{layer}.self_s"] = (v["self_ns"] / 1e9, "s")
    for metric, span in FUNCTIONS.items():
        out[f"{metric}.calls"] = (summary["functions"].get(span, {"calls": 0})["calls"], "count")
    out["arith.factorize.misses"] = (summary["factorize_misses"], "count")
    return out


def summary_path(spans_file: Path) -> Path:
    return spans_file.with_name(spans_file.name.replace(".spans.json.gz", ".summary.json"))


def main(argv: list[str]) -> int:
    spans_file = Path(argv[0])
    if argv[1:3] != ["-m", "rslab.cli"]:
        raise SystemExit("usage: spans.py SPANS_FILE -m rslab.cli ARGS...")
    tracer = Tracer.install()
    cli = importlib.import_module("rslab.cli")
    try:
        code = cli.main(argv[3:])
    except SystemExit as exc:
        code = exc.code
    tracer.active = False
    sys.stdout.flush()
    tracer.write(spans_file)
    summary_path(spans_file).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main(sys.argv[1:]))
