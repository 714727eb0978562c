"""Keyed artifact caching shared by the engine and the serving layer.

Before the serving subsystem existed, every expensive derived object
hid in an ad-hoc attribute on the graph instance it was built from
(``graph._engine_compiled`` for the CSR arrays,
``primal._engine_cycle_cache`` for the girth oracle).  That worked for
one graph and one caller, but it scatters ownership, offers no memory
bound, no hit/miss observability, and a stale-cache hazard the moment
two kinds of artifact disagree about what invalidates them.

This module is the one shared primitive underneath all of it:

* :class:`ArtifactCache` — an ordered-dict LRU keyed by plain tuples,
  with prefix/predicate invalidation and hit/miss/eviction counters;
* :func:`topo_token` — a process-unique id for a graph's *topology*
  (structural edits build a new ``PlanarGraph``, so a per-instance
  token is exactly as stable as the rotation system itself);
* :func:`graph_fingerprint` — ``(topo, weights, capacities)`` where the
  weight/capacity components are the ``version`` counters of the
  graph's :class:`~repro.planar.graph.VersionedList` s.  Every in-place
  mutation and every attribute assignment bumps a version, so
  artifacts keyed by a fingerprint go stale-proof against mutation by
  construction: a mutated graph simply stops matching its old keys.

The module sits at the bottom of the layer stack (next to
:mod:`repro._compat`) and imports nothing, so both
:func:`repro.engine.csr.compile_graph` (below the service layer) and
:class:`repro.service.catalog.GraphCatalog` (above it) can share it
without a dependency cycle.  :func:`shared_cache` is the process-wide
instance the engine uses; catalogs own private instances.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, namedtuple

_MISSING = object()

#: weight/capacity components are the versions of the value lists;
#: ``topo`` is the per-instance topology token.
Fingerprint = namedtuple("Fingerprint", ["topo", "weights", "capacities"])

_topo_counter = itertools.count()


def topo_token(graph):
    """Process-unique token for the topology of ``graph``.

    Assigned on first use and stored on the instance.  Safe because the
    library's structural contract (see :mod:`repro.engine.csr`) is that
    topology edits construct a new ``PlanarGraph``; only weights and
    capacities may mutate in place, and those are covered by the other
    two fingerprint components.
    """
    token = getattr(graph, "_artifact_topo_token", None)
    if token is None:
        token = next(_topo_counter)
        graph._artifact_topo_token = token
    return token


def graph_fingerprint(graph):
    """Current :class:`Fingerprint` of ``graph``.

    O(1) and exact: the weight and capacity components are the lists'
    mutation versions, so equal components mean the very same values
    (of the same Python types) — ``1`` replaced by ``1.0`` misses.
    Versions are monotone per graph and survive a pickle, so a key
    built from them never comes back to name different weights.
    """
    return Fingerprint(topo=topo_token(graph),
                       weights=graph.weights.version,
                       capacities=graph.capacities.version)


class ArtifactCache:
    """LRU cache of derived artifacts keyed by plain tuples.

    ``maxsize=None`` means unbounded.  Keys are compared exactly;
    :meth:`invalidate` removes by key-tuple prefix or by predicate.
    Counters (``hits`` / ``misses`` / ``evictions``) are cumulative for
    the cache's lifetime — :meth:`stats` snapshots them.
    """

    def __init__(self, maxsize=None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key, default=None):
        """The cached value (refreshing its LRU position) or ``default``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        """Insert/overwrite ``key``, evicting LRU entries over ``maxsize``."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if self.maxsize is not None:
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.evictions += 1
        return value

    def get_or_build(self, key, build):
        """The cached value for ``key``, building (and caching) on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self.put(key, build())
        return value

    # ------------------------------------------------------------------
    def discard(self, key):
        """Remove one key if present; True when something was removed."""
        return self._entries.pop(key, _MISSING) is not _MISSING

    def invalidate(self, match=()):
        """Remove entries by key prefix or predicate; returns the count.

        ``match`` is either a tuple prefix (``()`` clears everything) or
        a callable ``key -> bool``.
        """
        if callable(match):
            doomed = [k for k in self._entries if match(k)]
        else:
            prefix = tuple(match)
            n = len(prefix)
            doomed = [k for k in self._entries if k[:n] == prefix]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def clear(self):
        self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def keys(self):
        return list(self._entries.keys())

    def items(self):
        """Snapshot of the ``(key, value)`` pairs, LRU-oldest first —
        read-only iteration that touches neither the counters nor the
        recency order (used by the catalog snapshot hooks)."""
        return list(self._entries.items())

    def stats(self):
        """Snapshot: size, maxsize and the cumulative counters."""
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


#: default bound of the process-wide cache; generous for test suites
#: that churn through hundreds of small graphs (evictions just mean a
#: recompile) while capping memory on long-lived serving processes.
#: Entries hold strong references (a compiled CSR keeps its source
#: graph alive), so up to this many graphs outlive their last user
#: reference until LRU eviction — ``GraphCatalog.unregister`` and
#: ``shared_cache().invalidate`` free eagerly when that matters.
SHARED_CACHE_MAXSIZE = 64

_shared = ArtifactCache(maxsize=SHARED_CACHE_MAXSIZE)


def shared_cache():
    """The process-wide :class:`ArtifactCache` of the engine layer.

    Holds the compiled CSR topologies (:func:`repro.engine.csr.
    compile_graph`), the girth cycle oracles (:class:`repro.
    aggregation.dual_sim.DualMAHost`, one per topology, whose arc
    lengths are synced with the weights on each use) and the compiled
    labeling bag arrays (:func:`repro.engine.labels.
    compile_labeling_bags`); all three are keyed by topology token, so
    weight-only repricings reuse them; a
    :class:`repro.service.catalog.GraphCatalog` layers its own private
    cache on top for named-graph artifacts and query results.

    Every entry's key carries the owning graph's topology token in
    position 1 — that convention is what lets
    :meth:`~repro.service.catalog.GraphCatalog.unregister` free all of
    a graph's shared entries with one predicate sweep.
    """
    return _shared


__all__ = [
    "ArtifactCache",
    "Fingerprint",
    "graph_fingerprint",
    "shared_cache",
    "topo_token",
    "SHARED_CACHE_MAXSIZE",
]
