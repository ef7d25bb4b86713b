"""Spans around the public functions of each layer, recorded from outside.

``Tracer.install`` replaces module attributes of ``k3chambers`` with
wrappers that record a span per call.  Modules call one another through
module attributes (``linalg.fm_feasible``, ``model.curve_gram``, ...), so
calls between and within modules pass through the wrappers; no source file
changes.  Spans live in flat arrays in memory and are written out once, at
the end of the run.  A layer's self time is its span time minus the time of
the spans nested directly inside it.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

# module -> function -> span name; the span name's prefix is the layer.
# ``atlas_to_document`` lives in chambers.py but builds the CLI report.
SPANS = {
    "linalg": {
        "fm_feasible": "linalg.fm",
        "is_negative_definite": "linalg.nd",
        "solve_linear": "linalg.solve",
        "determinant": "linalg.det_inv",
        "inverse": "linalg.det_inv",
    },
    "model": {
        "curve_gram": "model.lookup",
        "ample_pairings": "model.lookup",
        "restrict_gram": "model.lookup",
        "model_from_json": "model.load",
        "validate_model": "model.load",
    },
    "zariski": {"zariski_decompose": "zariski.decompose"},
    "chambers": {
        "negative_definite_subsets": "chambers.nd_search",
        "enumerate_zariski_chambers": "chambers.zariski_atlas",
        "weyl_witness": "chambers.witness",
        "divergence_witness": "chambers.witness",
        "weyl_only_witness": "chambers.witness",
        "weyl_in_zariski": "chambers.criteria",
        "zariski_interior_in_weyl": "chambers.criteria",
        "decompositions_coincide": "chambers.criteria",
        "classify_ade": "chambers.ade",
        "enumerate_weyl_chambers": "chambers.weyl_atlas",
        "weyl_sign_system": "chambers.weyl_atlas",
        "verify_bijection": "chambers.bijection",
        "atlas_to_document": "cli.report",
    },
    "plot": {
        "classify_cross_section": "plot.classify",
        "render_cross_section": "plot.render",
    },
    "cli": {"_emit": "cli.report"},
}
ROOT_SPAN = "cli.main"
LAYERS = ("linalg", "model", "zariski", "chambers", "plot", "cli")

# spans whose return value is recorded as a 0/1 outcome
OUTCOMES = {
    "linalg.nd": bool,
    "linalg.fm": lambda result: result.feasible,
}

# callers of the ND test, taken from the parent span
ND_CALLERS = (
    "chambers.nd_search",
    "chambers.witness",
    "chambers.criteria",
    "chambers.ade",
    "zariski.decompose",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.outcomes: dict[int, int] = {}
        self.stack = [-1]
        self.saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.ids)
        self.ids.append(self._name_id(name))
        self.parents.append(self.stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        outcome = OUTCOMES.get(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, outcomes, clock = self.stack, self.outcomes, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None:
                outcomes[idx] = int(outcome(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        for mod_name, functions in SPANS.items():
            module = modules[mod_name]
            for attr, span in functions.items():
                original = getattr(module, attr)
                self.saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def recover(self, first: int) -> None:
        """Repair the arrays after an op was interrupted by the deadline
        signal, which can land between the appends of one span."""
        n = min(len(self.ids), len(self.parents), len(self.starts), len(self.ends))
        for arr in (self.ids, self.parents, self.starts, self.ends):
            del arr[n:]
        now = time.perf_counter()
        for idx in range(first, n):
            if self.ends[idx] == 0.0:
                self.ends[idx] = now
        for idx in [k for k in self.outcomes if k >= n]:
            del self.outcomes[idx]
        del self.stack[1:]

    def __len__(self) -> int:
        return len(self.ids)

    def summary(self) -> dict:
        """Per span name: count, self seconds, longest call; plus ND tests
        by caller and 0/1 outcome counts."""
        count = defaultdict(int)
        child = [0.0] * len(self.ids)
        longest = defaultdict(float)
        for idx in range(len(self.ids)):
            dur = self.ends[idx] - self.starts[idx]
            name = self.names[self.ids[idx]]
            count[name] += 1
            if dur > longest[name]:
                longest[name] = dur
            parent = self.parents[idx]
            if parent >= 0:
                child[parent] += dur
        self_s = defaultdict(float)
        for idx in range(len(self.ids)):
            self_s[self.names[self.ids[idx]]] += self.ends[idx] - self.starts[idx] - child[idx]
        positive = defaultdict(int)
        nd_by_caller = defaultdict(int)
        nd_id = self.name_ids.get("linalg.nd")
        for idx, value in self.outcomes.items():
            positive[self.names[self.ids[idx]]] += value
        for idx in range(len(self.ids)):
            if self.ids[idx] == nd_id:
                parent = self.parents[idx]
                caller = self.names[self.ids[parent]] if parent >= 0 else "none"
                nd_by_caller[caller if caller in ND_CALLERS else "other"] += 1
        return {
            "count": dict(count),
            "self_s": dict(self_s),
            "longest_s": dict(longest),
            "positive": dict(positive),
            "nd_by_caller": dict(nd_by_caller),
        }

    def write(self, path) -> None:
        """All spans as gzipped TSV: index, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            chunk = []
            for idx in range(len(self.ids)):
                chunk.append("%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    idx, self.names[self.ids[idx]], self.starts[idx],
                    self.ends[idx], self.parents[idx]))
                if len(chunk) >= 50000:
                    out.write("".join(chunk))
                    chunk.clear()
            out.write("".join(chunk))
