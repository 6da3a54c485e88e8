"""In-process tracer for raaglcs: spans at layer boundaries, counts, self time.

`Tracer.install()` replaces public functions and methods of raaglcs with
wrappers.  A module-level function is replaced in every raaglcs module that
imported it (so `raaglcs.cli.lcs_depth` and `raaglcs.lab.lcs_depth` are both
traced); a method is replaced on its class.

Each wrapped call is a span with a name, start, end, parent span and query
id.  Self time, the span's duration minus the time its child spans cover, is
accumulated as each span closes.  Spans of the fine-grained layers (trace
construction, series products, syllable factors, reduction and canonical
forms) run into the millions on enumeration, so they are accumulated in
place rather than stored; every other span is kept in memory and written out
by `write_spans` at the end.  The three hottest graph methods get a call
count and no span.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# layer name -> ([(module, attribute path)], span stored?)
SPAN_LAYERS = {
    "cli.run": ([("raaglcs.cli", "run")], True),
    "graph.parse": ([("raaglcs.graph", "parse_graph")], True),
    "words.parse": ([("raaglcs.words", "parse_syllables"),
                     ("raaglcs.words", "parse_word")], True),
    "words.canonical": ([("raaglcs.words", "GroupWord.canonical")], False),
    "words.reduced": ([("raaglcs.words", "GroupWord.reduced")], False),
    "words.trace": ([("raaglcs.words", "Trace.__init__"),
                     ("raaglcs.words", "Trace.__mul__")], False),
    "series.mul": ([("raaglcs.series", "TruncatedSeries.__mul__")], False),
    "magnus.syllable_factor": ([("raaglcs.magnus", "syllable_factor")], False),
    "magnus.mu": ([("raaglcs.magnus", "mu")], True),
    "magnus.lcs_depth": ([("raaglcs.magnus", "lcs_depth")], True),
    "magnus.in_dimension_subgroup": ([("raaglcs.magnus", "in_dimension_subgroup")], True),
    "lab.enumerate": ([("raaglcs.lab", "enumerate_elements")], True),
    "lab.verify": ([("raaglcs.lab", "verify_depth_bound")], True),
    "lab.depth_function": ([("raaglcs.lab", "depth_function")], True),
    "surface.standard_dissection": ([("raaglcs.surface", "standard_dissection")], True),
    "surface.derive_intersections": ([("raaglcs.surface", "derive_intersections")], True),
    "surface.phi": ([("raaglcs.surface", "phi")], True),
    "surface.check_relator": ([("raaglcs.surface", "check_relator")], True),
    "surface.surface_depth_check": ([("raaglcs.surface", "surface_depth_check")], True),
}

COUNT_ONLY = {
    "graph.index": ("raaglcs.graph", "Graph.index"),
    "graph.are_adjacent": ("raaglcs.graph", "Graph.are_adjacent"),
    "graph.eq": ("raaglcs.graph", "Graph.__eq__"),
}


def _letters(word):
    return sum(abs(e) for _, e in word.syllables)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_LAYERS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.top_s = 0.0          # total duration of outermost spans
        self.stack = []           # frames: [layer, start, child time, span id]
        self.query = -1
        self.counts = {name: 0 for name in COUNT_ONLY}
        self.extra = {"words.canonical.letters_in": 0, "words.reduced.letters_in": 0,
                      "words.trace.new_calls": 0, "words.trace.mul_calls": 0,
                      "series.mul.term_pairs": 0, "series.terms.max": 0,
                      "series.terms.sum": 0, "lab.enumerate.strings_visited": 0,
                      "lab.enumerate.elements": 0,
                      "lab.depth_function.elements_scanned": 0,
                      "surface.phi.letters_out": 0}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._active = [0] * n    # open spans per layer, for nesting tests

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = self._after_hooks()
        for layer, (targets, stored) in SPAN_LAYERS.items():
            lid = self.names.index(layer)
            for module, path in targets:
                self._replace(module, path,
                              lambda fn, lid=lid, stored=stored, after=hooks.get(path):
                              self._span_wrapper(fn, lid, stored, after))
        for name, (module, path) in COUNT_ONLY.items():
            self._replace(module, path, lambda fn, name=name: self._count_wrapper(fn, name))

    @staticmethod
    def _replace(module_name, path, make):
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "raaglcs" or mod_name.startswith("raaglcs."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _span_wrapper(self, fn, lid, stored, after):
        stack = self.stack
        active = self._active

        def wrapper(*args, **kwargs):
            span = -1
            if stored:
                span = len(self.span_start)
                self.span_layer.append(lid)
                self.span_parent.append(self._parent_span())
                self.span_query.append(self.query)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            active[lid] += 1
            frame = [lid, perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[lid] -= 1
                duration = end - frame[1]
                self.calls[lid] += 1
                self.self_s[lid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_s += duration
                if stored:
                    self.span_start[span] = frame[1]
                    self.span_end[span] = end
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def _after_hooks(self):
        extra = self.extra
        active = self._active
        enum_id = self.names.index("lab.enumerate")
        dfun_id = self.names.index("lab.depth_function")

        def canonical(args, result):
            extra["words.canonical.letters_in"] += _letters(args[0])
            if active[enum_id]:
                extra["lab.enumerate.strings_visited"] += 1

        def reduced(args, result):
            extra["words.reduced.letters_in"] += _letters(args[0])

        def trace_new(args, result):
            extra["words.trace.new_calls"] += 1

        def trace_mul(args, result):
            extra["words.trace.mul_calls"] += 1

        def series_mul(args, result):
            extra["series.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            size = len(result.terms)
            extra["series.terms.sum"] += size
            if size > extra["series.terms.max"]:
                extra["series.terms.max"] = size

        def enumerate_(args, result):
            extra["lab.enumerate.elements"] += len(result)

        def in_dimension(args, result):
            if active[dfun_id]:
                extra["lab.depth_function.elements_scanned"] += 1

        def phi(args, result):
            extra["surface.phi.letters_out"] += len(result.syllables)

        return {"GroupWord.canonical": canonical, "GroupWord.reduced": reduced,
                "Trace.__init__": trace_new, "Trace.__mul__": trace_mul,
                "TruncatedSeries.__mul__": series_mul,
                "enumerate_elements": enumerate_, "in_dimension_subgroup": in_dimension,
                "phi": phi}

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} over everything traced so far."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path):
        """Stored spans as columns; times are seconds on the perf_counter clock."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.names,
                       "layer": list(self.span_layer),
                       "parent": list(self.span_parent),
                       "query": list(self.span_query),
                       "start": list(self.span_start),
                       "end": list(self.span_end)}, handle)
