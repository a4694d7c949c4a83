"""Call tracing for the per-layer run.

The tracer replaces every public function of the glbounds modules with a
wrapper, at every place the name is bound: the defining module, each
`from .x import y` site (bounds.invphi_all, ledger.fi_mul, cli.minkowski_bound,
...) and the package namespace.  FactoredInteger.__post_init__ is wrapped on
the class, which is where the dataclass __init__ looks it up.

A call that enters a layer from another layer (or from the benchmark) opens a
span: name, start, end, parent span and the operation's id.  A call from
inside the same layer is only counted, so its time stays in the self time of
the span that entered the layer.  The hottest functions (HOT) are counted,
never spanned.  Spans stay in memory; self time is accumulated as spans
close.  There are no threads or queues in glbounds, so no span ever waits.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exactnum", "totient", "cyclotomic", "bounds", "diophantine", "ledger", "cli")

# Counted but never spanned: they run hundreds of thousands of times per
# round, and a span would cost more than the call.
HOT = frozenset({
    "exactnum.is_prime",
    "exactnum.factorize",
    "exactnum.valuation",
    "exactnum.valuation_int",
    "exactnum.factorial_valuation",
    "exactnum.construct",
    "totient.euler_phi",
})

# Leaf bounds the ledger evaluator calls, for ledger.leaf_calls_per_final.
LEAF_BOUNDS = frozenset({
    "bounds.minkowski_bound",
    "bounds.rough_bound",
    "bounds.serre_bound",
    "bounds.pgl2_admissible",
    "bounds.gl2_max_order",
    "diophantine.max_schur_exponent",
})

OP_LAYER = "bench"


def _size_of(name, tables):
    """Argument that sets the cost of a call, for the scaling slopes."""
    if name in ("totient.invphi_all", "totient.invphi_max"):
        return lambda args, kwargs: args[0] if args else kwargs["bound"]

    if name == "bounds.pgl2_admissible":
        def degree(args, kwargs):
            field = args[0] if args else kwargs["field"]
            conductor = getattr(field, "conductor", None)
            # ExactCyclotomic.degree would call the traced euler_phi.
            return tables.phi(conductor.value) if conductor is not None else field.degree
        return degree
    return None


def _result_size(name):
    if name == "totient.invphi_all":
        return len
    if name == "totient.invphi_max":
        return lambda result: 1
    return None


class Tracer:
    """Spans and counters for one traced pass; install() / uninstall() swap
    the wrappers in and out of the program's namespaces."""

    def __init__(self, tables):
        self.tables = tables
        # (name, site) -> {parent span name: calls}
        self.hits: dict[tuple[str, str], dict[str, int]] = {}
        self.edges: Counter = Counter()  # (parent span name, span name) -> spans
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()  # layer -> exceptions escaping it
        self.results: Counter = Counter()  # name -> items returned
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name idx, start, end, parent idx, op id, size]
        self.record = False
        self.op_id = -1
        # [name, layer, start, child time, span idx]; an idle frame sits under
        # the frame begin_op pushes for each operation.
        self.stack: list[list] = [[OP_LAYER + ".idle", OP_LAYER, 0.0, 0.0, -1]]
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ op frame

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        name = OP_LAYER + "." + kind
        self.stack.append([name, OP_LAYER, perf_counter(), 0.0, self._open(name, -1, None)])

    def end_op(self) -> float:
        """Close the operation span; returns its duration in seconds."""
        name, _, start, child, idx = self.stack.pop()
        end = perf_counter()
        self.busy[name] += end - start
        self.self_time[name] += end - start - child
        self._close(idx, end)
        return end - start

    def _open(self, name: str, parent_idx: int, size) -> int:
        if not self.record:
            return -1
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        self.spans.append([self.name_index[name], perf_counter(), 0.0, parent_idx,
                           self.op_id, size])
        return len(self.spans) - 1

    def _close(self, idx: int, end: float) -> None:
        if idx >= 0:
            self.spans[idx][2] = end

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, layer, site, fn, error_types):
        tracer = self
        size_of = _size_of(name, self.tables)
        result_size = _result_size(name)
        stack = self.stack
        by_parent = self.hits.setdefault((name, site), {})

        def traced(*args, **kwargs):
            parent = stack[-1]
            by_parent[parent[0]] = by_parent.get(parent[0], 0) + 1
            if parent[1] == layer:
                return fn(*args, **kwargs)
            tracer.edges[(parent[0], name)] += 1
            size = size_of(args, kwargs) if size_of and tracer.record else None
            frame = [name, layer, perf_counter(), 0.0, tracer._open(name, parent[4], size)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except error_types:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.busy[name] += duration
                tracer.self_time[name] += duration - frame[3]
                parent[3] += duration
                tracer._close(frame[4], end)
            if result_size is not None:
                tracer.results[name] += result_size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, name, site, fn):
        stack = self.stack
        by_parent = self.hits.setdefault((name, site), {})
        get = by_parent.get

        def counted(*args, **kwargs):
            parent = stack[-1][0]
            by_parent[parent] = get(parent, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, package: str = "glbounds") -> None:
        """Wrap every public function of LAYERS wherever its name is bound."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, "%s.%s" % (layer, attr), layer)
        ledger_error = sys.modules[package + ".ledger"].LedgerError
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == package or n.startswith(package + ".")]
        for mod in sites:
            site = mod.__name__
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                fn, name, layer = entry
                if name in HOT:
                    wrapper = self._counter_wrapper(name, site, fn)
                else:
                    errors = ledger_error if layer == "ledger" else ()
                    wrapper = self._span_wrapper(name, layer, site, fn, errors)
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, fn))
        fi = sys.modules[package + ".exactnum"].FactoredInteger
        post_init = fi.__dict__["__post_init__"]
        fi.__post_init__ = self._counter_wrapper(
            "exactnum.construct", package + ".exactnum.FactoredInteger", post_init)
        self._restore.append((fi, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # ------------------------------------------------------------ read-out

    def calls(self, name: str) -> int:
        return sum(sum(by_parent.values()) for (fn, _), by_parent in self.hits.items()
                   if fn == name)

    def site_calls(self) -> Counter:
        return Counter({site: sum(by_parent.values()) for site, by_parent in self.hits.items()})

    def calls_under(self, name: str, parents) -> int:
        return sum(n for (fn, _), by_parent in self.hits.items() if fn == name
                   for parent, n in by_parent.items() if parent in parents)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        out = {"%s@%s" % (name, site): n for (name, site), n in self.site_calls().items()}
        out.update({"edge:%s>%s" % edge: n for edge, n in self.edges.items()})
        out.update({"errors:%s" % layer: n for layer, n in self.errors.items()})
        out.update({"results:%s" % name: n for name, n in self.results.items()})
        return dict(sorted(out.items()))

    def sized_spans(self, name: str) -> list[tuple[int, float]]:
        idx = self.name_index.get(name)
        return [(s[5], s[2] - s[1]) for s in self.spans if s[0] == idx and s[5] is not None]

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "op", "size"],
            "spans": self.spans,
        }
