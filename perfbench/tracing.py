"""Spans and counters around ramseykit's public functions, from outside.

``Tracer.install`` wraps each traced function and replaces it in every
``ramseykit`` namespace that holds it (``search.count_witnesses`` beside
``witnesses.count_witnesses``, the package re-exports, the CLI imports);
methods are wrapped on their class.  ``uninstall`` puts the originals back,
so traced and untraced passes can alternate in one process.

A span is [name, start, end, parent].  A generator's span covers only the
time spent inside its ``next`` calls: it starts at the first resume and its
end is start + busy time.  Self time is a span's duration minus the
durations of its direct children.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); attribute "Class.method" wraps a method
SPANS = [
    ("search", "threshold", "search.threshold"),
    ("search", "exists_avoiding", "search.exists_avoiding"),
    ("search", "build_instance_index", "search.build_instance_index"),
    ("search", "verify_certificate", "search.verify_certificate"),
    ("witnesses", "count_witnesses", "witnesses.count_witnesses"),
    ("witnesses", "enumerate_instances", "witnesses.enumerate_instances"),
    ("witnesses", "iter_witnesses", "witnesses.iter_witnesses"),
    ("witnesses", "find_witness", "witnesses.find_witness"),
    ("reduction", "solve_quadratic", "reduction.solve_quadratic"),
    ("reduction", "lift_coloring", "reduction.lift_coloring"),
    ("construction", "run_construction", "construction.run_construction"),
    ("coloring", "Coloring.load", "coloring.load"),
    ("coloring", "Coloring.save", "coloring.save"),
    ("coloring", "Coloring.to_rle", "coloring.to_rle"),
    ("coloring", "Coloring.from_rle", "coloring.from_rle"),
    ("storage", "ResultStore.append", "storage.append"),
    ("storage", "ResultStore.lookup", "storage.lookup"),
    ("storage", "ResultStore.verify_all", "storage.verify_all"),
    ("cli", "main", "cli.main"),
]
# counted, not spanned: too frequent for a span each.  The private numpy term
# evaluator is counted so that box cells are those count_witnesses evaluates.
COUNTED = [
    ("polynomials", "IntPoly.evaluate", "polynomials.evaluate"),
    ("storage", "ResultStore.records", "storage.records"),
    ("witnesses", "_eval_term_on_columns", "witnesses.eval_term"),
]


class Tracer:
    def __init__(self, rk):
        self.rk = rk
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.box_calls: list[tuple] = []
        self._term_cells = 0  # cells seen by the numpy term evaluator, once per term
        self._admissible: dict = {}
        self._restore: list = []
        self._originals: dict[str, object] = {}  # module functions, unwrapped

    # ---- spans ----

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(name, fn)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        pre = getattr(self, "_before_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook:
                hook(args, kwargs, result, state)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        tracer = self
        counter = {"witnesses.enumerate_instances": "witnesses.instances",
                   "witnesses.iter_witnesses": "witnesses.witnesses"}[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            now = time.perf_counter()
            span = [name, now, now, parent]  # a generator never resumed lasts 0 s
            tracer.spans.append(span)
            under_reduce = parent >= 0 and tracer.spans[parent][0] == "reduction.solve_quadratic"

            def run():
                busy = 0.0
                try:
                    while True:
                        t = time.perf_counter()
                        if busy == 0.0:
                            span[1] = t
                        tracer.stack.append(idx)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.stack.pop()
                            busy += time.perf_counter() - t
                            span[2] = span[1] + busy
                        tracer.counts[counter] += 1
                        if under_reduce:
                            tracer.counts["reduction.witnesses_examined"] += 1
                        yield item
                finally:
                    gen.close()

            return run()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "storage.records":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                good, bad = fn(*args, **kwargs)
                counts["storage.records_parsed"] += len(good) + len(bad)
                return good, bad
            return wrapper
        if name == "witnesses.eval_term":
            tracer = self

            @functools.wraps(fn)
            def wrapper(term, cols):
                tracer._term_cells += cols[0].size
                return fn(term, cols)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- counters taken at span boundaries ----

    def _before_search_exists_avoiding(self, args, kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = self.rk.SearchStats()
        return kwargs["stats"].nodes

    def _after_search_exists_avoiding(self, args, kwargs, result, nodes_before):
        self.counts["search.nodes"] += kwargs["stats"].nodes - nodes_before

    def _after_search_build_instance_index(self, args, kwargs, buckets, _):
        self.counts["search.instances_indexed"] += sum(len(b) for b in buckets)

    def _before_witnesses_count_witnesses(self, args, kwargs):
        return self._term_cells

    def _after_witnesses_count_witnesses(self, args, kwargs, result, cells_before):
        # every term is evaluated on each slab, so cells = term cells / terms
        family = args[0]
        cells = (self._term_cells - cells_before) // len(family.terms)
        self.box_calls.append((family, args[1].n, kwargs.get("distinct"), kwargs.get("box"), cells))

    def _after_reduction_lift_coloring(self, args, kwargs, lifted, _):
        self.counts["reduction.lifted_values"] += lifted.n

    def _after_construction_run_construction(self, args, kwargs, trace, _):
        self.counts["construction.rounds"] += len(trace.y)

    def _after_coloring_load(self, args, kwargs, result, _):
        self.counts["coloring.bytes_read"] += os.path.getsize(args[-1])

    def _after_coloring_save(self, args, kwargs, result, _):
        self.counts["coloring.bytes_written"] += os.path.getsize(args[-1])

    def _after_storage_append(self, args, kwargs, result, _):
        # append re-reads the whole file to count its lines
        self.counts["storage.append.bytes_reread"] += os.path.getsize(args[0].path)

    # ---- installing ----

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ramseykit" or name.startswith("ramseykit.")}
        for table, make in ((SPANS, self._wrap), (COUNTED, self._count)):
            for modname, attr, name in table:
                owner = mods["ramseykit." + modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    setattr(cls, meth, new)
                    self._restore.append((cls, meth, raw))
                    continue
                orig = getattr(owner, attr)
                self._originals[name] = orig
                new = make(name, orig)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
                            self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # ---- reading the spans ----

    def mark(self) -> tuple[int, dict, int]:
        return len(self.spans), dict(self.counts), len(self.box_calls)

    def figures(self, since: tuple, until: tuple) -> dict[str, float]:
        """Raw per-layer sums between two marks (rates are formed later)."""
        lo, hi = since[0], until[0]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            name, start, end, parent = self.spans[i]
            if parent >= lo:
                child[parent - lo] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, parent = self.spans[i]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[i - lo]
            if name == "witnesses.count_witnesses" and parent >= 0 and \
                    self.spans[parent][0].startswith("search."):
                out["search.verify_s"] += end - start
        for key, val in until[1].items():
            out[key] += val - since[1].get(key, 0)
        for family, n, distinct, box, cells in self.box_calls[since[2]:until[2]]:
            out["witnesses.box_cells"] += cells
            if cells:  # the exact streaming fallback evaluates no box
                out["witnesses.admissible"] += self._admissible_in(family, n, distinct, box)
        return out

    def _admissible_in(self, family, n, distinct, box) -> int:
        """Admissible instances of a count_witnesses question."""
        key = (family.canonical_texts(), family.num_vars, family.distinct_required,
               n, distinct, repr(box))
        if key not in self._admissible:
            # every admissible instance is a witness of a one-colour colouring
            solid = self.rk.Coloring.solid(n, 1, 1)
            cells = self._term_cells
            self._admissible[key] = self._originals["witnesses.count_witnesses"](
                family, solid, distinct=distinct, box=box)
            self._term_cells = cells
        return self._admissible[key]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
