"""In-memory span recorder for the traced benchmark pass.

The benchmark does not instrument the program.  Instead, for the traced
pass it wraps the program's public functions and methods (every module
binding of a function, so call sites that imported it by name are
covered too) with a timer that records one span per call.  Spans nest
by call order, because the benchmark drives the program from one thread.
A span's *self time* is its duration minus the durations of its direct
children; the root span (the benchmark's own loop) keeps whatever no
wrapped call covered, which is the "unattributed" row.

Spans stay in memory until :meth:`Tracer.dump` writes them out after the
run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        #: [name, layer, start, end, parent index, phase]
        self.spans = []
        self._stack = []
        self._patches = []
        self.phase = "setup"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None,
                           parent, self.phase])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap_function(self, module, attr, name, layer):
        """Wrap ``module.attr`` and every other ``repro`` module binding
        of the same function object."""
        orig = getattr(module, attr)
        wrapper = self._wrapper(orig, name, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, layer):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self._wrapper(orig, name, layer))

    def _wrapper(self, orig, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name, layer)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.end()

        traced.__wrapped__ = orig
        return traced

    def unpatch(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def phase_sums(self, name, prefix):
        """Summed duration of ``name`` spans per phase, for the phases
        whose name starts with ``prefix``."""
        sums = {}
        for s in self.spans:
            if s[0] == name and s[5].startswith(prefix):
                sums[s[5]] = sums.get(s[5], 0.0) + s[3] - s[2]
        return list(sums.values())

    def durations_under(self, name, op=None):
        """Durations of ``name`` spans, only those inside an ``op``
        span when ``op`` is given."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            if op is not None:
                parent = s[4]
                while parent >= 0 and \
                        not self.spans[parent][0].startswith("op."):
                    parent = self.spans[parent][4]
                if parent < 0 or self.spans[parent][0] != op:
                    continue
            out.append(s[3] - s[2])
        return out

    def self_times(self, lo=0, hi=None):
        """Seconds of self time per layer over ``spans[lo:hi]`` (a whole
        subtree when ``lo`` is its root)."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= lo:
                child[s[4] - lo] += s[3] - s[2]
        out = defaultdict(float)
        for i, s in enumerate(spans):
            out[s[1]] += (s[3] - s[2]) - child[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "layer": s[1],
                                     "start": s[2], "end": s[3],
                                     "parent": s[4], "phase": s[5]})
                         + "\n")


#: layer name -> the public calls timed for it:
#: (module or "Class@module", attribute, span name)
LAYERS = {
    "cold_build": [
        ("repro.engine", "compile_graph", "compile_graph"),
        ("repro.bdd", "build_bdd", "build_bdd"),
        ("repro.bdd", "build_all_dual_bags", "build_all_dual_bags"),
        ("DualDistanceLabeling@repro.labeling", "__init__",
         "DualDistanceLabeling"),
        ("PlanarMaxFlow@repro.core", "__init__", "PlanarMaxFlow"),
    ],
    "flow_kernel": [
        ("PlanarMaxFlow@repro.core", "solve", "PlanarMaxFlow.solve"),
    ],
    "cut": [("repro.core", "min_st_cut", "min_st_cut")],
    "label_decode": [
        ("DualDistanceLabeling@repro.labeling", "distance",
         "DualDistanceLabeling.distance"),
    ],
    "girth": [("repro.core", "weighted_girth", "weighted_girth")],
    "catalog_probe": [
        ("CatalogEntry@repro.service", "fingerprint",
         "CatalogEntry.fingerprint"),
        ("GraphCatalog@repro.service", "serve", "GraphCatalog.serve"),
    ],
    "write_path": [
        ("GraphCatalog@repro.service", "mutate_weights",
         "GraphCatalog.mutate_weights"),
    ],
    "wire": [
        ("repro.server.wire", "encode_frame", "wire.encode_frame"),
        ("repro.server.wire", "decode_frame", "wire.decode_frame"),
        ("repro.server.wire", "query_to_wire", "wire.query_to_wire"),
        ("repro.server.wire", "query_result_from_wire",
         "wire.query_result_from_wire"),
    ],
    "server_pool": [
        ("ServiceClient@repro.server.client", "query",
         "ServiceClient.query"),
    ],
}


def install(tracer):
    """Wrap every call named in :data:`LAYERS`."""
    import importlib

    for layer, calls in LAYERS.items():
        for where, attr, name in calls:
            if "@" in where:
                cls_name, mod_name = where.split("@")
                cls = getattr(importlib.import_module(mod_name), cls_name)
                tracer.wrap_method(cls, attr, name, layer)
            else:
                tracer.wrap_function(importlib.import_module(where),
                                     attr, name, layer)
