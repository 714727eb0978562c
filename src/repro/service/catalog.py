"""Graph catalog: named graphs plus the artifacts that make queries
cheap (DESIGN.md §8).

The paper's central data structure — the Õ(D)-bit dual distance
labeling of Theorem 2.1 — is *built once and then answers queries*; the
same shape holds for every other expensive object in the stack (the
compiled CSR topology, the BDD and its dual bags, loaded flow
solvers).  A :class:`GraphCatalog` makes that amortization
explicit: register a graph under a name, and every query served against
that name reuses the artifacts of all previous queries.

Ownership and invalidation:

* each catalog owns a private keyed :class:`~repro._artifacts.
  ArtifactCache` (``catalog.artifacts``) for named-graph artifacts and
  a second one (``catalog.results``) for memoized query results, both
  with LRU bounds;
* every *weight- or capacity-dependent* artifact key embeds the
  version components of the graph's current :func:`~repro._artifacts.
  graph_fingerprint`, so mutating weights in place can never serve a
  stale artifact — the old key simply stops matching.  Explicit
  :meth:`GraphCatalog.invalidate` additionally frees the dead entries
  instead of waiting for LRU eviction;
* topology-only artifacts (compiled CSR, and — since the engine BDD
  backend — the decomposition and its dual bags, keyed by topology
  token) stay in the engine's process-wide shared cache: the catalog
  does not duplicate them, weight repricing leaves them warm, and
  snapshots ship them to pool workers.
"""

from __future__ import annotations

import math
import pickle

from repro import obs
from repro._artifacts import (
    _MISSING,
    ArtifactCache,
    Fingerprint,
    graph_fingerprint,
    shared_cache,
    topo_token,
)
from repro.errors import AuditError, NegativeCycleError, ServiceError


def default_dual_lengths(graph):
    """The dual arc lengths a :class:`~repro.service.queries.
    DistanceQuery` is answered under: the primal edge weight on plus
    darts and 0 on reverse darts — the directed capacity convention of
    Sections 6–7, matching ``DualGraph.arcs(lengths=None)``."""
    lengths = {}
    for eid in range(graph.m):
        lengths[2 * eid] = graph.weights[eid]
        lengths[2 * eid + 1] = 0
    return lengths


class CatalogEntry:
    """One registered graph and accessors for its cached artifacts.

    Accessors build on first use and hit ``catalog.artifacts``
    afterwards; keys embed the entry name plus whichever fingerprint
    components the artifact depends on (see the module docstring).
    """

    def __init__(self, catalog, name, graph):
        self.catalog = catalog
        self.name = name
        self.graph = graph

    def fingerprint(self) -> Fingerprint:
        """The graph's current fingerprint (weight/capacity versions,
        O(1))."""
        return graph_fingerprint(self.graph)

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def compiled(self):
        """The compiled CSR topology (engine shared cache; topology
        only, so it survives weight mutation)."""
        from repro.engine import compile_graph

        return compile_graph(self.graph)

    def flow_solver(self, directed=True, backend="engine",
                    leaf_size=None):
        """A reusable :class:`~repro.core.maxflow.PlanarMaxFlow` bound
        to the current capacities.

        The engine solver owns the reusable
        :class:`~repro.engine.workspace.FlowWorkspace`; the legacy
        solver owns the BDD and dual bags.  Either way, this is the
        artifact that turns thousands of ``(s, t)`` probes into
        amortized work.
        """
        fp = self.fingerprint()
        key = ("flow-solver", self.name, fp.capacities, directed,
               backend, leaf_size)

        def build():
            from repro.core import PlanarMaxFlow

            return PlanarMaxFlow(self.graph, directed=directed,
                                 leaf_size=leaf_size, backend=backend)

        return self.catalog._artifact(key, build)

    def bdd(self, leaf_size=None, backend="engine"):
        """The bounded-diameter decomposition.

        The BDD depends only on topology, so it lives in the engine's
        process-wide *shared* cache keyed by topology token — alongside
        the compiled CSR and labeling bags.  A
        :meth:`GraphCatalog.set_weights` / :meth:`GraphCatalog.
        mutate_weights` reprice (which sweeps the name-keyed private
        caches) and a :meth:`GraphCatalog.snapshot` restore therefore
        reuse the finished decomposition instead of re-running the
        Lemma 5.1 recursion; :meth:`GraphCatalog.unregister` frees it.

        ``backend`` selects the construction path of a *cold* build —
        ``"engine"`` (default, array kernels) or ``"legacy"`` — and is
        deliberately not part of the cache key: the two backends are
        bit-identical (tests/test_engine_bdd_parity.py).
        """
        key = ("bdd", topo_token(self.graph), leaf_size)

        def build():
            from repro.bdd import build_bdd

            return build_bdd(self.graph, leaf_size=leaf_size,
                             backend=backend)

        return self.catalog._artifact(key, build, shared_cache())

    def labeling(self, leaf_size=None, backend="engine"):
        """The dual distance labeling under :func:`default_dual_lengths`
        (Theorem 2.1) — build once, then every
        :class:`~repro.service.queries.DistanceQuery` decodes from the
        cached labels in label-size time (Lemma 2.2).

        ``backend`` selects the construction path (the labels are
        bit-identical either way): ``"engine"`` (default) builds on the
        compiled bag arrays of :mod:`repro.engine.labels`, which live
        in the engine's *shared* cache keyed by topology token — so a
        :meth:`GraphCatalog.set_weights` reprice drops this labeling
        artifact but reuses the BDD, the dual bags and the bag
        compilation for the rebuild: the repricing rebuild pays zero
        decomposition cost (zero separator calls — gated in
        ``benchmarks/bench_bdd.py`` via the obs counters).
        """
        fp = self.fingerprint()
        key = ("labeling", self.name, fp.weights, leaf_size, backend)

        def build():
            from repro.bdd import build_all_dual_bags
            from repro.labeling import DualDistanceLabeling

            bdd = self.bdd(leaf_size=leaf_size)
            duals_key = ("dual-bags", topo_token(self.graph), leaf_size)
            duals = self.catalog._artifact(
                duals_key, lambda: build_all_dual_bags(bdd),
                shared_cache())
            return DualDistanceLabeling(bdd,
                                        default_dual_lengths(self.graph),
                                        duals=duals, backend=backend)

        return self.catalog._artifact(key, build)


class GraphCatalog:
    """Named graphs + owned artifact/result caches + query dispatch.

    The serving facade: ``register`` a graph, then ``serve`` typed
    queries (:mod:`repro.service.queries`) or hand batches to
    :func:`repro.service.batch.run_batch`.  ``max_artifacts`` bounds
    heavyweight derived objects (solvers, labelings, BDDs);
    ``max_results`` bounds the memoized query results.
    """

    def __init__(self, max_artifacts=64, max_results=4096):
        self._entries = {}
        self.artifacts = ArtifactCache(maxsize=max_artifacts)
        self.results = ArtifactCache(maxsize=max_results)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name, graph, overwrite=False):
        """Register ``graph`` under ``name``; returns the entry.

        Re-registering an existing name requires ``overwrite=True`` and
        drops the old name's artifacts and results.  Every weight and
        capacity must be a finite ``int`` or ``float``; a graph that
        breaks this is refused and nothing is registered.
        """
        for label in ("weights", "capacities"):
            _check_finite("register", name, label, getattr(graph, label))
        if name in self._entries:
            if not overwrite:
                raise ServiceError(f"graph {name!r} is already "
                                   f"registered (overwrite=True to "
                                   f"replace)")
            self.invalidate(name)
        entry = CatalogEntry(self, name, graph)
        self._entries[name] = entry
        return entry

    def get(self, name):
        entry = self._entries.get(name)
        if entry is None:
            raise ServiceError(f"unknown graph {name!r}; registered: "
                               f"{sorted(self._entries)}")
        return entry

    def _artifact(self, key, build, cache=None):
        """Get-or-build ``key`` in ``cache``, with per-kind hit/miss
        counters (``catalog.artifact.{hit,miss}.<kind>``, where the kind
        is the key's leading component — ``flow-solver``, ``bdd``,
        ``labeling``, ...).  ``cache`` defaults to ``self.artifacts``;
        topology-only artifacts keyed by topology token (``bdd``,
        ``dual-bags``), which must survive weight repricing and ship
        with snapshots, pass the engine's process-wide
        :func:`~repro._artifacts.shared_cache`."""
        if cache is None:
            cache = self.artifacts
        value = cache.get(key, _MISSING)
        hit = value is not _MISSING
        obs.inc(f"catalog.artifact.{'hit' if hit else 'miss'}.{key[0]}")
        return value if hit else cache.put(key, build())

    def __contains__(self, name):
        return name in self._entries

    def names(self):
        return sorted(self._entries)

    def unregister(self, name):
        """Forget ``name`` and free everything cached for it —
        including the graph's entries in the engine's process-wide
        shared cache (compiled CSR, cycle oracles), which would
        otherwise keep the graph alive until LRU eviction."""
        entry = self.get(name)
        self.invalidate(name)
        topo = topo_token(entry.graph)
        shared_cache().invalidate(lambda k: len(k) > 1 and k[1] == topo)
        del self._entries[name]

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, name):
        """Explicitly drop every artifact and memoized result of
        ``name``.

        Fingerprint-keyed lookups are already stale-proof (mutated
        weights miss); this frees the dead entries immediately.
        Returns the number of cache entries removed.
        """
        removed = self.artifacts.invalidate(
            lambda k: len(k) > 1 and k[1] == name)
        removed += self.results.invalidate(
            lambda k: len(k) > 1 and k[1] == name)
        return removed

    def set_weights(self, name, weights=None, capacities=None):
        """Mutate a registered graph's weights/capacities in place and
        invalidate its dead artifacts in one step — the supported way to
        reprice a served graph.  Every value must be a finite ``int`` or
        ``float``; all of them are checked before anything is written."""
        g = self.get(name).graph
        weights = None if weights is None else list(weights)
        capacities = None if capacities is None else list(capacities)
        for label, values in (("weights", weights),
                              ("capacities", capacities)):
            if values is None:
                continue
            if len(values) != g.m:
                raise ServiceError(
                    f"{label} for {name!r} must have one entry per "
                    f"edge (got {len(values)}, graph has m={g.m})")
            _check_finite("set_weights", name, label, values)
        if weights is not None:
            g.weights[:] = weights
        if capacities is not None:
            g.capacities[:] = capacities
        obs.inc("catalog.set_weights")
        return self.invalidate(name)

    def mutate_weights(self, name, edges):
        """Reprice a few edges of a registered graph by *delta repair*
        instead of the full :meth:`set_weights` teardown (DESIGN.md
        §11).

        ``edges`` maps edge id -> new weight (or is an iterable of
        ``(eid, weight)`` pairs).  The graph's weights are mutated in
        place; then, instead of invalidating, the catalog

        * **repairs** every cached engine labeling of ``name`` in
          place via :meth:`~repro.labeling.DualDistanceLabeling.
          reprice` — only the bags whose dual contains a touched dart
          are recomputed — and re-keys it under the new weight
          fingerprint; a legacy labeling is dropped and rebuilt by the
          next query;
        * **migrates** memoized flow/cut results to the new weight
          version (they read capacities, not weights — still warm) and
          drops the weight-dependent distance/girth results;
        * leaves capacity-keyed flow solvers and the topology-only
          BDD / dual-bag / compiled-bag artifacts untouched.

        Returns a JSON-safe report dict.  When the new weights create
        a negative dual cycle, every labeling of ``name`` is dropped
        and the :class:`~repro.errors.NegativeCycleError` of the
        (bit-identical) detection site is re-raised — the weights stay
        applied, exactly as a fresh build would find them.
        """
        with obs.span("catalog.mutate_weights", graph=name) as sp:
            report = self._mutate_weights(name, edges)
            dirty = sum(row.get("dirty_bags", 0)
                        for row in report["labelings"])
            obs.inc("catalog.mutations")
            if dirty:
                obs.inc("catalog.reprice.dirty_bags", dirty)
            sp.tag(changed=report["changed_edges"], dirty_bags=dirty)
            return report

    def _mutate_weights(self, name, edges):
        entry = self.get(name)
        g = entry.graph
        updates = _edge_updates(name, g, edges)
        old_fp = entry.fingerprint()
        labelings = [(key, lab) for key, lab in self.artifacts.items()
                     if key[0] == "labeling" and key[1] == name
                     and key[2] == old_fp.weights]
        # a change is a new value *or* a new type (results keep their
        # inputs' types, so 1 -> 1.0 is a new weight); only changed
        # edges are written, so a no-op write keeps the weight version
        # and with it every result
        changed = {}
        for eid, w in updates.items():
            old = g.weights[eid]
            if old != w or type(old) is not type(w):
                changed[2 * eid] = w
                g.weights[eid] = w
        report = {"graph": name, "edges": len(updates),
                  "changed_edges": len(changed),
                  "results_migrated": 0, "results_dropped": 0,
                  "labelings": []}
        if not changed:
            return report  # value- and type-identical: nothing is stale
        new_fp = entry.fingerprint()
        migrated, dropped = self._migrate_results(name, old_fp, new_fp)
        report["results_migrated"] = migrated
        report["results_dropped"] = dropped
        for key, lab in labelings:
            self.artifacts.discard(key)
            row = {"leaf_size": key[3], "backend": key[4]}
            report["labelings"].append(row)
            if key[4] != "engine":
                row["action"] = "dropped"
                continue
            try:
                stats = lab.reprice(changed)
            except NegativeCycleError:
                # the partial repair left ``lab`` corrupt, and a fresh
                # build would raise the same error anyway: make every
                # labeling of the name a rebuild
                self.artifacts.invalidate(
                    lambda k: k[0] == "labeling" and k[1] == name)
                raise
            row["action"] = "repaired"
            row.update(stats)
            self.artifacts.put(
                ("labeling", name, new_fp.weights, key[3], key[4]), lab)
        return report

    def _migrate_results(self, name, old_fp, new_fp):
        """Move weight-independent memoized results of ``name`` to the
        new weight version; drop the weight-dependent ones."""
        from repro.service.queries import CutQuery, FlowQuery

        migrated = dropped = 0
        for key, value in self.results.items():
            if key[0] != "result" or key[1] != name \
                    or key[4] != old_fp.weights \
                    or key[5] != old_fp.capacities:
                continue
            self.results.discard(key)
            if isinstance(key[2], (FlowQuery, CutQuery)):
                self.results.put((key[0], key[1], key[2], key[3],
                                  new_fp.weights, new_fp.capacities),
                                 value)
                migrated += 1
            else:
                dropped += 1
        return migrated, dropped

    # ------------------------------------------------------------------
    # integrity audit
    # ------------------------------------------------------------------
    def audit_labeling(self, name, leaf_size=None, backend="engine",
                       reference_backend=None):
        """Bit-parity audit of the labeling served for ``name`` against
        a from-scratch rebuild — the contract that makes
        :meth:`mutate_weights` safe (DESIGN.md §11).

        The served side goes through :meth:`CatalogEntry.labeling`
        (cache hit or cold build); the reference side builds a *fresh*
        BDD + dual bags + labeling from the graph's current weights on
        ``reference_backend`` (default: same as ``backend``).  The two
        must agree bit for bit: same label keys, same entry chains,
        same distance values *and Python types* — or, when the weights
        contain a negative dual cycle, the same
        :class:`~repro.errors.NegativeCycleError` type, message and
        ``where`` site.  Any divergence raises
        :class:`~repro.errors.AuditError`; otherwise a JSON-safe
        report dict is returned.
        """
        entry = self.get(name)
        if reference_backend is None:
            reference_backend = backend

        served = served_err = None
        try:
            served = entry.labeling(leaf_size=leaf_size,
                                    backend=backend)
        except NegativeCycleError as e:
            served_err = e

        ref = ref_err = None
        try:
            from repro.bdd import build_bdd
            from repro.bdd.dual_bags import build_all_dual_bags
            from repro.labeling import DualDistanceLabeling

            bdd = build_bdd(entry.graph, leaf_size=leaf_size)
            ref = DualDistanceLabeling(
                bdd, default_dual_lengths(entry.graph),
                duals=build_all_dual_bags(bdd),
                backend=reference_backend)
        except NegativeCycleError as e:
            ref_err = e

        report = {"graph": name, "backend": backend,
                  "reference_backend": reference_backend,
                  "leaf_size": leaf_size, "labels": 0, "entries": 0,
                  "error": None}

        def fail(message):
            report["divergence"] = message
            raise AuditError(f"labeling audit of {name!r} diverged: "
                             f"{message}", report=report)

        if (served_err is None) != (ref_err is None):
            got = served_err if served_err is not None else ref_err
            side = "served" if served_err is not None else "reference"
            fail(f"only the {side} build raised "
                 f"{type(got).__name__}: {got} (where={got.where!r})")
        if served_err is not None:
            a = (type(served_err), str(served_err), served_err.where)
            b = (type(ref_err), str(ref_err), ref_err.where)
            if a != b:
                fail(f"error sites differ: served {a!r} vs "
                     f"reference {b!r}")
            report["error"] = {"type": type(served_err).__name__,
                               "message": str(served_err),
                               "where": list(served_err.where)
                               if isinstance(served_err.where, tuple)
                               else served_err.where}
            return report

        # a stale lengths map would *serve* wrong distances even with
        # internally consistent labels — check it against the graph
        expected = default_dual_lengths(entry.graph)
        if served.lengths != expected:
            bad = sorted(d for d in expected
                         if served.lengths.get(d) != expected[d])[:5]
            fail(f"served labeling lengths disagree with the graph's "
                 f"current weights at darts {bad}")

        mismatch = _label_divergence(served._labels, ref._labels)
        if mismatch is not None:
            fail(mismatch)
        report["labels"] = len(served._labels)
        report["entries"] = sum(len(lbl.entries)
                                for lbl in served._labels.values())
        return report

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(self, query):
        """Execute one typed query; returns a
        :class:`~repro.service.queries.QueryResult`."""
        from repro.service.queries import execute_query

        return execute_query(self, query)

    def stats(self):
        """Cache observability: artifact/result cache counters plus the
        engine's shared cache."""
        return {"artifacts": self.artifacts.stats(),
                "results": self.results.stats(),
                "shared": shared_cache().stats(),
                "graphs": self.names()}

    # ------------------------------------------------------------------
    # warm-state handoff
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture the catalog's warm state as a picklable
        :class:`CatalogSnapshot` — the pre-fork handoff of the
        :class:`~repro.server.pool.WarmWorkerPool` (DESIGN.md §10).

        Captured: the registered graphs, every picklable artifact and
        memoized result, and the graphs' entries in the engine's
        process-wide shared cache (compiled CSR, compiled labeling
        bags, cycle oracles).  An artifact that fails a pickle probe is
        *not* captured; its key is recorded under ``snapshot.skipped``
        instead, and a restored catalog rebuilds it on first use.

        The snapshot holds *live references*; pickling it (what a
        ``spawn`` worker handoff does) copies everything in one payload,
        so object sharing survives — e.g. a cached solver's graph stays
        the very object registered under its name.
        """
        graphs = {name: e.graph for name, e in self._entries.items()}
        tokens = {name: topo_token(g) for name, g in graphs.items()}
        known_topos = set(tokens.values())
        skipped = []

        def capture(cache):
            kept = []
            for key, value in cache.items():
                if not _picklable(value):
                    skipped.append(key)
                else:
                    kept.append((key, value))
            return kept

        shared = []
        for key, value in shared_cache().items():
            if len(key) < 2 or key[1] not in known_topos:
                continue
            if _picklable(value):
                shared.append((key, value))
            else:
                skipped.append(key)

        return CatalogSnapshot(
            graphs=graphs,
            tokens=tokens,
            artifacts=capture(self.artifacts),
            results=capture(self.results),
            shared=shared,
            skipped=skipped,
            max_artifacts=self.artifacts.maxsize,
            max_results=self.results.maxsize,
        )


def _finite_number(value):
    """A weight or capacity must be a finite ``int`` or ``float``
    (``bool`` is an ``int`` subclass, but never a weight)."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, float) and math.isfinite(value)


def _check_finite(verb, name, label, values):
    """Raise :class:`ServiceError` at the first of ``values`` that is
    not a :func:`_finite_number`."""
    for eid, v in enumerate(values):
        if not _finite_number(v):
            raise ServiceError(f"{verb}({name!r}): {label}[{eid}] must "
                               f"be a finite number, got {v!r}")


def _edge_updates(name, graph, edges):
    """Validate a ``mutate_weights`` edge mapping -> {eid: weight}."""
    items = edges.items() if hasattr(edges, "items") else edges
    updates = {}
    for item in items:
        try:
            eid, w = item
        except (TypeError, ValueError):
            raise ServiceError(
                f"mutate_weights({name!r}) edges must map edge id -> "
                f"weight (or be (eid, weight) pairs); got {item!r}")
        if not isinstance(eid, int) or isinstance(eid, bool) \
                or not 0 <= eid < graph.m:
            raise ServiceError(
                f"mutate_weights({name!r}): bad edge id {eid!r} "
                f"(graph has m={graph.m})")
        if not _finite_number(w):
            raise ServiceError(
                f"mutate_weights({name!r}): edge {eid} weight must be "
                f"a finite number, got {w!r}")
        updates[eid] = w
    return updates


def _label_divergence(served, reference):
    """First bit-level difference between two label dicts, or None.

    "Bit-level" means values must compare equal *and* share a Python
    type — ``5`` vs ``5.0`` is a divergence, because a serialized or
    hashed label would differ.
    """
    if set(served) != set(reference):
        extra = sorted(set(served) - set(reference))[:3]
        missing = sorted(set(reference) - set(served))[:3]
        return (f"label key sets differ (extra={extra}, "
                f"missing={missing})")
    for key in served:
        a, b = served[key], reference[key]
        if a.node != b.node or len(a.entries) != len(b.entries):
            return (f"label chain at {key} differs: node {a.node} vs "
                    f"{b.node}, {len(a.entries)} vs {len(b.entries)} "
                    f"entries")
        for ea, eb in zip(a.entries, b.entries):
            if (ea.bag_id, ea.node, ea.is_leaf) \
                    != (eb.bag_id, eb.node, eb.is_leaf):
                return f"entry identity at {key} differs"
            for attr in ("dist_to", "dist_from"):
                da, db = getattr(ea, attr), getattr(eb, attr)
                if set(da) != set(db):
                    return (f"{attr} key set at {key} entry bag "
                            f"{ea.bag_id} differs")
                for h, va in da.items():
                    vb = db[h]
                    if va != vb or type(va) is not type(vb):
                        return (f"{attr}[{h}] at {key} entry bag "
                                f"{ea.bag_id}: served {va!r} "
                                f"({type(va).__name__}) vs reference "
                                f"{vb!r} ({type(vb).__name__})")
    return None


def _picklable(value):
    try:
        pickle.dumps(value)
        return True
    except Exception:
        return False


class CatalogSnapshot:
    """Picklable warm-state capture of a :class:`GraphCatalog` (see
    :meth:`GraphCatalog.snapshot`).

    :meth:`restore` rebuilds a working catalog around whatever the
    snapshot holds.  Restoring the *same* (unpickled) snapshot object in
    the process that made it shares the live graph objects with the
    source catalog — fine for read-only use; pickle the snapshot first
    (or hand it to another process, which does the same) when the two
    catalogs must not see each other's weight mutations.
    """

    def __init__(self, graphs, tokens, artifacts, results, shared,
                 skipped, max_artifacts, max_results):
        self.graphs = graphs
        #: name -> topology token at snapshot time (process-local ids;
        #: :meth:`restore` re-keys shared entries to the tokens the
        #: receiving process assigns)
        self.tokens = tokens
        self.artifacts = artifacts
        self.results = results
        self.shared = shared
        #: keys present in the source caches but not captured
        #: (pickle-probe failures)
        self.skipped = skipped
        self.max_artifacts = max_artifacts
        self.max_results = max_results

    def restore(self):
        """A new :class:`GraphCatalog` warmed with the captured state.

        Shared-cache entries are re-inserted under the topology tokens
        *this* process assigns to the snapshot's graphs (tokens never
        survive a pickle, by design — see ``PlanarGraph.__reduce__``),
        so the restored compiled CSR / labeling bags / cycle oracles are
        found by every engine code path exactly as if they had been
        built here.
        """
        catalog = GraphCatalog(max_artifacts=self.max_artifacts,
                               max_results=self.max_results)
        for name, graph in self.graphs.items():
            catalog.register(name, graph)
        remap = {old: topo_token(self.graphs[name])
                 for name, old in self.tokens.items()}
        cache = shared_cache()
        for key, value in self.shared:
            cache.put((key[0], remap[key[1]]) + tuple(key[2:]), value)
        for key, value in self.artifacts:
            catalog.artifacts.put(key, value)
        for key, value in self.results:
            catalog.results.put(key, value)
        return catalog
