"""Spans around the public functions of dissolab's modules.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds every
name in the loaded dissolab modules that refers to it, so calls made inside
the program are timed too.  A span is ``[name, start, end, parent, tag,
info]``: ``parent`` is the index of the enclosing span (-1 at the top),
``tag`` the label of the benchmark operation it belongs to, and ``info`` a
count taken from the call (see ``_info``).  Spans stay in memory and are
written out as JSON lines by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> (module, public functions timed)
LAYERS = {
    "catalog": ("catalog", ("connected_graphs", "connected_bipartite_graphs", "all_graphs",
                            "canonical_form", "canonical_graph")),
    "checks": ("checks", ("check_chain", "check_matching_oracle", "check_recognizer",
                          "check_is_gadget")),
    "exact": ("exact", ("dissociation_number_exact", "independence_number_exact",
                        "induced_matching_number_exact", "diss_via_induced_matchings",
                        "check_inequality_chain", "matching_number_bruteforce")),
    "reductions": ("reductions", ("gadget_diss_2alpha", "gadget_diss_alpha",
                                  "gadget_diss_alpha_plus_nus", "render_gadget", "cnf_formula")),
    "graph": ("graph", ("parse_edge_list", "bipartition", "remove_edges", "random_graph")),
    "matching": ("matching", ("maximum_matching", "matching_from_edges", "has_augmenting_path",
                              "koenig_cover", "maximum_independent_set_bipartite")),
    "recognizer": ("recognizer", ("recognize_extremal", "decompose_alternating",
                                  "check_component_lengths", "label_path_components",
                                  "check_path_path_edges", "build_2sat")),
    "twosat": ("twosat", ("solve_2sat", "cnf_satisfiable")),
    "approx": ("approx", ("approx_dissociation_bipartite",)),
    "cli": ("cli", ("main",)),
}


def _info(name: str, args, result):
    """A count worth keeping from a call, or None."""
    if name == "matching.maximum_matching":
        return len(result.edges)
    if name == "recognizer.build_2sat":
        return len(result[0].clauses)
    if name == "recognizer.recognize_extremal":
        reason = getattr(result, "reason", None)
        return "extremal" if reason is None else reason.value
    if name == "graph.parse_edge_list":
        return result.n
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag = ""
        # graphs returned by remove_edges, so that maximum_matching calls on
        # G - M can be told from calls on G; cleared at each operation
        self.minus: list = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        wrapped = {}
        for layer, (module, names) in LAYERS.items():
            mod = importlib.import_module(f"dissolab.{module}")
            for name in names:
                original = getattr(mod, name)
                wrapped[id(original)] = tracer._wrap(f"{layer}.{name}", original)
        for modname, mod in list(sys.modules.items()):
            if modname == "dissolab" or modname.startswith("dissolab."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped and callable(value):
                        setattr(mod, attr, wrapped[id(value)])
        return tracer

    def begin(self, name: str, tag: str) -> int:
        if name == "op":
            self.tag = tag
            self.minus.clear()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.tag, None])
        self.stack.append(index)
        return index

    def end(self, index: int, info=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = info
        self.stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "matching.maximum_matching" and any(args[0] is g for g in self.minus):
                index = self.begin(name + "@G-M", self.tag)
            else:
                index = self.begin(name, self.tag)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            if name == "graph.remove_edges":
                self.minus.append(result)
            self.end(index, _info(name, args, result))
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_of(name: str) -> str:
    return "bench" if name == "op" else name.split(".")[0]
