"""The serving layer: artifact cache semantics, catalog lifecycle,
query parity against the per-call entry points (both backends), batch
execution, LRU bounds, staleness under in-place mutation, and the
process-shard fan-out."""

import pickle

import pytest

from repro._artifacts import (
    ArtifactCache,
    graph_fingerprint,
    shared_cache,
    topo_token,
)
from repro.aggregation.dual_sim import DualMAHost
from repro.baselines.centralized import centralized_directed_global_mincut
from repro.bdd import build_bdd
from repro.core import max_st_flow, min_st_cut, weighted_girth
from repro.engine import compile_graph
from repro.errors import InfeasibleFlowError, ServiceError
from repro.labeling import DualDistanceLabeling
from repro.planar.generators import (
    grid,
    random_planar,
    randomize_weights,
    wheel,
)
from repro.service import (
    BatchReport,
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    GraphCatalog,
    default_dual_lengths,
    run_batch,
    run_sharded,
)
from repro.service.queries import _backend

BACKENDS = ["legacy", "engine"]


def make_grid(rows=4, cols=5, seed=3):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


# ----------------------------------------------------------------------
# ArtifactCache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_hit_miss_counters(self):
        c = ArtifactCache()
        assert c.get(("a",)) is None
        c.put(("a",), 1)
        assert c.get(("a",)) == 1
        assert c.stats()["hits"] == 1
        assert c.stats()["misses"] == 1

    def test_get_or_build_builds_once(self):
        c = ArtifactCache()
        calls = []
        for _ in range(3):
            v = c.get_or_build(("k",), lambda: calls.append(1) or "v")
            assert v == "v"
        assert len(calls) == 1

    def test_lru_eviction_bound(self):
        c = ArtifactCache(maxsize=2)
        c.put(("a",), 1)
        c.put(("b",), 2)
        c.get(("a",))          # refresh a; b is now LRU
        c.put(("c",), 3)
        assert len(c) == 2
        assert ("a",) in c and ("c",) in c and ("b",) not in c
        assert c.evictions == 1

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            ArtifactCache(maxsize=0)

    def test_invalidate_prefix_and_predicate(self):
        c = ArtifactCache()
        c.put(("solver", "g1", 0), 1)
        c.put(("solver", "g2", 0), 2)
        c.put(("labeling", "g1"), 3)
        assert c.invalidate(("solver",)) == 2
        assert len(c) == 1
        assert c.invalidate(lambda k: k[1] == "g1") == 1
        assert len(c) == 0

    def test_invalidate_empty_prefix_clears(self):
        c = ArtifactCache()
        c.put(("a",), 1)
        c.put(("b",), 2)
        assert c.invalidate() == 2
        assert len(c) == 0

    def test_discard(self):
        c = ArtifactCache()
        c.put(("a",), 1)
        assert c.discard(("a",)) is True
        assert c.discard(("a",)) is False


# ----------------------------------------------------------------------
# fingerprints + the migrated engine caches
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_and_weight_sensitive(self):
        g = make_grid()
        fp1 = graph_fingerprint(g)
        assert graph_fingerprint(g) == fp1
        g.weights[0] += 7
        fp2 = graph_fingerprint(g)
        assert fp2.topo == fp1.topo
        assert fp2.weights != fp1.weights
        assert fp2.capacities == fp1.capacities

    def test_exact_under_equal_value_type_change(self):
        # hash(1) == hash(1.0): a value hash would keep this key
        g = make_grid()
        fp1 = graph_fingerprint(g)
        g.capacities[:] = [float(c) for c in g.capacities]
        fp2 = graph_fingerprint(g)
        assert fp2.capacities != fp1.capacities
        assert fp2.weights == fp1.weights

    def test_assignment_never_repeats_a_version(self):
        g = make_grid()
        seen = {graph_fingerprint(g)}
        original = list(g.weights)
        g.weights = [w + 1 for w in original]
        seen.add(graph_fingerprint(g))
        g.weights = original  # same values as the first key...
        seen.add(graph_fingerprint(g))
        assert len(seen) == 3  # ...but a new version

    def test_centralized_oracle_leaves_fingerprint_alone(self):
        g = make_grid(3, 4)
        fp = graph_fingerprint(g)
        capacities = g.capacities
        centralized_directed_global_mincut(g)
        assert graph_fingerprint(g) == fp
        assert g.capacities is capacities

    def test_copy_gets_fresh_topology_token(self):
        g = make_grid()
        assert topo_token(g) != topo_token(g.copy())
        assert topo_token(g) == topo_token(g)

    def test_topo_token_does_not_survive_pickling(self):
        # a pickled graph carrying a foreign process's token could
        # collide with a different graph in the receiver's caches
        # (e.g. a run_sharded worker serving two shards)
        import pickle

        g = make_grid()
        topo_token(g)
        h = pickle.loads(pickle.dumps(g))
        assert not hasattr(h, "_artifact_topo_token")
        assert topo_token(h) != topo_token(g)
        # and the round-trip still fingerprints/compiles correctly
        c = compile_graph(h)
        assert c.dual_indptr == compile_graph(g).dual_indptr


class TestMigratedEngineCaches:
    def test_compile_graph_shared_cache_identity(self):
        g = make_grid()
        c1 = compile_graph(g)
        assert compile_graph(g) is c1
        # the ad-hoc instance attribute is gone
        assert not hasattr(g, "_engine_compiled")
        # eviction just means a recompile with identical content
        shared_cache().discard(("csr", topo_token(g)))
        c2 = compile_graph(g)
        assert c2 is not c1
        assert c2.dual_indptr == c1.dual_indptr
        assert c2.dual_arc_dart == c1.dual_arc_dart

    def test_cycle_oracle_shared_and_weight_keyed(self):
        g = make_grid()
        h1 = DualMAHost(g, backend="engine")
        h2 = DualMAHost(g, backend="engine")
        assert h1.engine_cycle_oracle() is h2.engine_cycle_oracle()
        assert not hasattr(g, "_engine_cycle_cache")
        # in-place weight mutation must not serve stale lengths: the one
        # shared oracle is synced to the mutated weights on its next use
        before = weighted_girth(g, backend="engine").value
        g.weights[0] += 100
        oracle = DualMAHost(g, backend="engine").engine_cycle_oracle()
        assert sorted((d, ln) for arcs in oracle.adj for (d, _h, ln) in arcs) \
            == [(d, g.weights[d >> 1]) for d in range(2 * g.m)]
        assert sorted((d, ln) for arcs in oracle.in_adj
                      for (_t, d, ln) in arcs) \
            == [(d, g.weights[d >> 1]) for d in range(2 * g.m)]
        after_engine = weighted_girth(g, backend="engine")
        after_legacy = weighted_girth(g, backend="legacy")
        assert after_engine.value == after_legacy.value
        assert after_engine.value >= before  # weight only increased


# ----------------------------------------------------------------------
# catalog lifecycle
# ----------------------------------------------------------------------
class TestCatalog:
    def test_register_get_unregister(self):
        cat = GraphCatalog()
        g = make_grid()
        entry = cat.register("g", g)
        assert cat.get("g") is entry
        assert "g" in cat and cat.names() == ["g"]
        with pytest.raises(ServiceError):
            cat.register("g", g)
        cat.register("g", g.copy(), overwrite=True)
        cat.unregister("g")
        assert "g" not in cat
        with pytest.raises(ServiceError):
            cat.get("g")

    def test_unknown_graph_raises(self):
        cat = GraphCatalog()
        with pytest.raises(ServiceError, match="unknown graph"):
            cat.serve(FlowQuery("nope", 0, 1))

    def test_invalidate_drops_artifacts_and_results(self):
        cat = GraphCatalog()
        g = make_grid()
        cat.register("g", g)
        cat.serve(FlowQuery("g", 0, g.n - 1))
        cat.serve(DistanceQuery("g", 0, 1))
        assert len(cat.artifacts) > 0 and len(cat.results) > 0
        removed = cat.invalidate("g")
        assert removed > 0
        assert len(cat.artifacts) == 0 and len(cat.results) == 0

    def test_artifact_lru_bound_holds(self):
        cat = GraphCatalog(max_artifacts=2)
        g = make_grid()
        cat.register("g", g)
        cat.serve(FlowQuery("g", 0, g.n - 1))
        cat.serve(CutQuery("g", 0, g.n - 1, directed=False))
        cat.serve(DistanceQuery("g", 0, 1))
        assert len(cat.artifacts) <= 2
        assert cat.artifacts.evictions > 0
        # evicted artifacts rebuild transparently and answers stay right
        res = cat.serve(FlowQuery("g", 0, g.n - 1)).result
        assert res.value == max_st_flow(g, 0, g.n - 1).value

    def test_set_weights_rejects_wrong_length(self):
        cat = GraphCatalog()
        g = make_grid()
        cat.register("g", g)
        before = list(g.weights)
        with pytest.raises(ServiceError, match="one entry per edge"):
            cat.set_weights("g", weights=[1] * (g.m - 1))
        with pytest.raises(ServiceError, match="one entry per edge"):
            cat.set_weights("g", capacities=[1] * (g.m + 3))
        assert g.weights == before  # rejected repricing left no trace

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True,
                                     "3"])
    def test_set_weights_rejects_non_finite_values(self, bad):
        cat = GraphCatalog()
        g = make_grid()
        cat.register("g", g)
        before = (list(g.weights), list(g.capacities),
                  cat.get("g").fingerprint())
        for field in ("weights", "capacities"):
            # every value is checked before the first one is written
            values = [v + 1 for v in getattr(g, field)]
            values[-1] = bad
            with pytest.raises(ServiceError, match="finite number"):
                cat.set_weights("g", **{field: values})
        assert (list(g.weights), list(g.capacities),
                cat.get("g").fingerprint()) == before

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True,
                                     "3"])
    def test_register_rejects_non_finite_values(self, bad):
        cat = GraphCatalog()
        good = make_grid()
        cat.register("g", good)
        for field in ("weights", "capacities"):
            g = make_grid()
            getattr(g, field)[3] = bad
            with pytest.raises(ServiceError, match="finite number"):
                cat.register("h", g)
            # an overwrite is refused before the old graph is dropped
            with pytest.raises(ServiceError, match="finite number"):
                cat.register("g", g, overwrite=True)
        assert cat.names() == ["g"]
        assert cat.get("g").graph is good

    def test_unregister_frees_shared_cache_entries(self):
        cat = GraphCatalog()
        g = make_grid()
        cat.register("g", g)
        cat.serve(GirthQuery("g"))  # populates csr + cycle-oracle
        topo = topo_token(g)
        assert any(k[1] == topo for k in shared_cache().keys())
        cat.unregister("g")
        assert not any(len(k) > 1 and k[1] == topo
                       for k in shared_cache().keys())

    def test_set_weights_reprices_queries(self):
        cat = GraphCatalog()
        g = make_grid()
        cat.register("g", g)
        before = cat.serve(GirthQuery("g")).result.value
        cat.set_weights("g", weights=[w + 50 for w in g.weights])
        after = cat.serve(GirthQuery("g")).result
        assert after.value == weighted_girth(g).value
        assert after.value > before


# ----------------------------------------------------------------------
# single-query parity with the per-call entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestQueryParity:
    def test_flow_query(self, backend):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        got = cat.serve(FlowQuery("g", 0, g.n - 1, backend=backend))
        ref = max_st_flow(g, 0, g.n - 1, backend=backend)
        assert got.result == ref
        assert got.backend == backend and got.warm is False

    def test_cut_query(self, backend):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        got = cat.serve(CutQuery("g", 0, g.n - 1, backend=backend))
        ref = min_st_cut(g, 0, g.n - 1, backend=backend)
        assert got.result == ref

    def test_girth_query(self, backend):
        g = make_grid(seed=9)
        cat = GraphCatalog()
        cat.register("g", g)
        got = cat.serve(GirthQuery("g", backend=backend))
        ref = weighted_girth(g, backend=backend)
        assert got.result.value == ref.value
        assert got.result.cycle_edge_ids == ref.cycle_edge_ids

    def test_repeat_is_warm_and_identical(self, backend):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = FlowQuery("g", 0, g.n - 1, backend=backend)
        first = cat.serve(q)
        second = cat.serve(q)
        assert second.warm is True
        assert second.result is first.result


class TestDistanceQuery:
    def test_distance_decodes_from_labels(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
        for f, h in [(0, 1), (2, 5), (5, 2), (3, 3)]:
            got = cat.serve(DistanceQuery("g", f, h))
            assert got.backend == "engine"
            assert got.result == lab.distance(f, h)

    def test_distance_backends_bit_identical(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        nf = g.num_faces()
        for f in range(nf):
            for h in range(nf):
                eng = cat.serve(DistanceQuery("g", f, h,
                                              backend="engine"))
                leg = cat.serve(DistanceQuery("g", f, h,
                                              backend="legacy"))
                assert eng.backend == "engine"
                assert leg.backend == "legacy"
                assert eng.result == leg.result

    def test_labeling_built_once(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        cat.serve(DistanceQuery("g", 0, 1))
        built = cat.artifacts.stats()["misses"]
        for f in range(4):
            cat.serve(DistanceQuery("g", f, 0))
        # only result-cache keys changed; no new artifact builds
        assert cat.artifacts.stats()["misses"] == built


# ----------------------------------------------------------------------
# staleness under in-place mutation (no explicit invalidate call)
# ----------------------------------------------------------------------
class TestStaleness:
    def test_capacity_mutation_reprices_flow(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = FlowQuery("g", 0, g.n - 1)
        cat.serve(q)
        for eid in range(g.m):
            g.capacities[eid] += 5
        got = cat.serve(q)
        assert got.warm is False
        assert got.result == max_st_flow(g, 0, g.n - 1, backend="engine")

    def test_weight_mutation_reprices_distances(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = DistanceQuery("g", 1, 3)
        cat.serve(q)
        g.weights[0] += 11
        got = cat.serve(q)
        assert got.warm is False
        lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
        assert got.result == lab.distance(1, 3)


    def test_int_to_equal_float_capacities_miss(self):
        g = randomize_weights(grid(5, 5), seed=1,
                              directed_capacities=True)
        cat = GraphCatalog()
        cat.register("g", g)
        q = FlowQuery("g", 0, 24)
        first = cat.serve(q)
        assert first.result.value == 22
        assert type(first.result.value) is int
        g.capacities[:] = [float(c) for c in g.capacities]
        got = cat.serve(q)
        assert got.warm is False
        assert got.result.value == 22.0
        assert type(got.result.value) is float
        fresh = GraphCatalog()
        fresh.register("g", g)
        assert got.result == fresh.serve(q).result

    def test_slice_assignment_misses(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = DistanceQuery("g", 1, 3)
        cat.serve(q)
        assert cat.serve(q).warm is True
        g.weights[0:2] = [w + 7 for w in g.weights[0:2]]
        got = cat.serve(q)
        assert got.warm is False
        lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
        assert got.result == lab.distance(1, 3)

    def test_pickled_snapshot_restores_warm_then_mutation_misses(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        g.weights[2] += 1  # a non-zero version must survive too
        queries = [DistanceQuery("g", 0, 5), FlowQuery("g", 0, g.n - 1)]
        expected = [cat.serve(q).result for q in queries]
        restored = pickle.loads(pickle.dumps(cat.snapshot())).restore()
        for q, want in zip(queries, expected):
            got = restored.serve(q)
            assert got.warm is True and got.result == want
        h = restored.get("g").graph
        h.weights[0] += 5
        h.capacities[0] += 5
        for q in queries:
            assert restored.serve(q).warm is False
        # the source catalog's graph is untouched and still warm
        assert all(cat.serve(q).warm for q in queries)

    def test_identical_mutation_keeps_results_warm(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = DistanceQuery("g", 1, 3)
        cat.serve(q)
        fp = graph_fingerprint(g)
        report = cat.mutate_weights("g", {0: g.weights[0],
                                          3: g.weights[3]})
        assert report["changed_edges"] == 0
        assert report["results_dropped"] == 0
        assert graph_fingerprint(g) == fp
        assert cat.serve(q).warm is True

    def test_int_to_float_mutation_misses_and_audits(self):
        g = make_grid()
        cat = GraphCatalog()
        cat.register("g", g)
        q = DistanceQuery("g", 1, 3)
        cat.serve(q)
        assert type(g.weights[0]) is int
        report = cat.mutate_weights("g", {0: float(g.weights[0])})
        assert report["changed_edges"] == 1
        assert type(g.weights[0]) is float
        assert cat.serve(q).warm is False
        assert cat.audit_labeling("g")["error"] is None


# ----------------------------------------------------------------------
# a cut is its pair's memoized flow plus one residual sweep
# ----------------------------------------------------------------------
CUT_FAMILIES = {
    "grid": lambda: make_grid(4, 5, seed=3),
    "random_planar": lambda: randomize_weights(
        random_planar(14, seed=4), seed=6, directed_capacities=True),
}


@pytest.mark.parametrize("family", sorted(CUT_FAMILIES))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("directed", [True, False])
class TestCutReusesFlow:
    def setup_catalog(self, family):
        g = CUT_FAMILIES[family]()
        cat = GraphCatalog()
        cat.register("g", g)
        return g, cat

    def queries(self, g, backend, directed, s=0, t=None):
        t = g.n - 1 if t is None else t
        return (FlowQuery("g", s, t, directed=directed, backend=backend),
                CutQuery("g", s, t, directed=directed, backend=backend))

    def test_cut_after_flow_equals_cold_min_st_cut(self, family, backend,
                                                   directed):
        g, cat = self.setup_catalog(family)
        fq, cq = self.queries(g, backend, directed)
        flow = cat.serve(fq)
        cut = cat.serve(cq)
        assert cut.warm is False
        assert cut.result == min_st_cut(g, 0, g.n - 1, directed=directed,
                                        backend=backend)
        # the sweep ran on the memoized flow, not on a second solve
        assert cut.result.flow is flow.result.flow

    def test_cut_first_leaves_flow_warm(self, family, backend, directed):
        g, cat = self.setup_catalog(family)
        fq, cq = self.queries(g, backend, directed, s=1, t=g.n - 2)
        cut = cat.serve(cq)
        flow = cat.serve(fq)
        assert flow.warm is True
        assert flow.result == max_st_flow(g, 1, g.n - 2,
                                          directed=directed,
                                          backend=backend)
        assert cut.result == min_st_cut(g, 1, g.n - 2, directed=directed,
                                        backend=backend)
        assert cat.serve(cq).warm is True

    def test_weight_and_capacity_changes(self, family, backend, directed):
        g, cat = self.setup_catalog(family)
        fq, cq = self.queries(g, backend, directed)
        cat.serve(cq)
        # weights only: flow and cut read capacities, so both migrate
        report = cat.mutate_weights("g", {0: g.weights[0] + 7})
        assert report["results_migrated"] == 2
        flow, cut = cat.serve(fq), cat.serve(cq)
        assert flow.warm is True and cut.warm is True
        assert flow.result == max_st_flow(g, 0, g.n - 1,
                                          directed=directed,
                                          backend=backend)
        assert cut.result == min_st_cut(g, 0, g.n - 1, directed=directed,
                                        backend=backend)
        # capacities: both are recomputed against the new capacities
        cat.set_weights("g", capacities=[c + 3 * (eid % 4) for eid, c
                                         in enumerate(g.capacities)])
        cut, flow = cat.serve(cq), cat.serve(fq)
        assert cut.warm is False and flow.warm is True
        assert flow.result == max_st_flow(g, 0, g.n - 1,
                                          directed=directed,
                                          backend=backend)
        assert cut.result == min_st_cut(g, 0, g.n - 1, directed=directed,
                                        backend=backend)

    def test_errors_unchanged(self, family, backend, directed):
        g, cat = self.setup_catalog(family)
        with pytest.raises(InfeasibleFlowError) as want:
            min_st_cut(g, 2, 2, directed=directed, backend=backend)
        with pytest.raises(InfeasibleFlowError) as got:
            cat.serve(CutQuery("g", 2, 2, directed=directed,
                               backend=backend))
        assert str(got.value) == str(want.value) == "s == t"
        # a negative capacity makes the flow solve itself raise; the
        # cut raises the same error and memoizes nothing
        g.capacities[0] = -50
        fq, cq = self.queries(g, backend, directed)
        with pytest.raises(InfeasibleFlowError) as want:
            min_st_cut(g, 0, g.n - 1, directed=directed, backend=backend)
        for _ in range(2):
            with pytest.raises(InfeasibleFlowError) as got:
                cat.serve(cq)
            assert str(got.value) == str(want.value)
        assert len(cat.results) == 0


def test_cut_sweep_checks_still_raise():
    """The residual sweep keeps min_st_cut's own checks: a flow that is
    not maximum, or whose value disagrees with the cut, is rejected."""
    from repro.core import MaxFlowResult
    from repro.core.mincut import _cut_from_flow

    g = make_grid()
    zero = MaxFlowResult(value=0, flow={e: 0 for e in range(g.m)},
                         probes=0, path_darts=[])
    with pytest.raises(InfeasibleFlowError, match="sink reachable"):
        _cut_from_flow(g, 0, g.n - 1, zero, True)
    best = max_st_flow(g, 0, g.n - 1, backend="engine")
    wrong = MaxFlowResult(value=best.value + 1, flow=best.flow,
                          probes=best.probes, path_darts=best.path_darts)
    with pytest.raises(InfeasibleFlowError, match="does not match"):
        _cut_from_flow(g, 0, g.n - 1, wrong, True)


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
def _every_query_type(backend):
    return [FlowQuery("g", 0, 1, backend=backend),
            CutQuery("g", 0, 1, backend=backend),
            GirthQuery("g", backend=backend),
            DistanceQuery("g", 0, 1, backend=backend)]


class TestPlanner:
    def test_auto_routes_to_engine_by_default(self):
        for q in _every_query_type("auto"):
            assert _backend(q) == "engine", type(q).__name__
        cat = GraphCatalog()
        cat.register("g", make_grid())
        assert cat.serve(FlowQuery("g", 0, 1)).backend == "engine"

    def test_explicit_backend_wins(self):
        for backend in BACKENDS:
            for q in _every_query_type(backend):
                assert _backend(q) == backend, type(q).__name__

    def test_explicit_backend_wins_for_distance(self):
        cat = GraphCatalog()
        cat.register("g", make_grid())
        for backend in BACKENDS:
            q = DistanceQuery("g", 0, 1, backend=backend)
            assert cat.serve(q).backend == backend

    def test_bad_backend_rejected(self):
        for q in _every_query_type("vroom"):
            with pytest.raises(ServiceError):
                _backend(q)
        cat = GraphCatalog()
        cat.register("g", make_grid())
        with pytest.raises(ServiceError):
            cat.serve(FlowQuery("g", 0, 1, backend="vroom"))


# ----------------------------------------------------------------------
# batched execution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_parity_with_per_call(backend):
    g = make_grid(4, 4, seed=5)
    cat = GraphCatalog()
    cat.register("g", g)
    pairs = [(0, g.n - 1), (1, g.n - 2), (g.n // 2, 0)]
    queries = [FlowQuery("g", s, t, backend=backend) for s, t in pairs]
    queries += [CutQuery("g", 0, g.n - 1, backend=backend),
                GirthQuery("g", backend=backend),
                DistanceQuery("g", 0, 2)]
    report = run_batch(cat, queries)
    assert isinstance(report, BatchReport)
    assert [r.query for r in report.results] == queries

    lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
    expected = [max_st_flow(g, s, t, backend=backend) for s, t in pairs]
    expected += [min_st_cut(g, 0, g.n - 1, backend=backend),
                 weighted_girth(g, backend=backend),
                 lab.distance(0, 2)]
    for got, want in zip(report.values(), expected):
        assert got == want


def test_min_st_cut_rejects_ledger_with_prebuilt_solver():
    from repro.congest import RoundLedger
    from repro.core import PlanarMaxFlow

    g = make_grid()
    solver = PlanarMaxFlow(g, directed=True, backend="engine")
    with pytest.raises(ValueError, match="ledger"):
        min_st_cut(g, 0, g.n - 1, ledger=RoundLedger(), solver=solver)
    with pytest.raises(ValueError, match="does not match"):
        min_st_cut(g.copy(), 0, g.n - 1, solver=solver)


def test_batch_warm_accounting():
    g = make_grid()
    cat = GraphCatalog()
    cat.register("g", g)
    q = FlowQuery("g", 0, g.n - 1)
    report = run_batch(cat, [q, q, q])
    assert report.cold_misses == 1 and report.warm_hits == 2
    kinds = report.by_kind()
    assert kinds["FlowQuery"]["count"] == 3
    assert kinds["FlowQuery"]["warm"] == 2


def test_batch_across_multiple_graphs():
    g1 = make_grid(4, 4, seed=1)
    g2 = make_grid(3, 6, seed=2)
    cat = GraphCatalog()
    cat.register("g1", g1)
    cat.register("g2", g2)
    report = run_batch(cat, [FlowQuery("g1", 0, g1.n - 1),
                             FlowQuery("g2", 0, g2.n - 1)])
    assert report.values()[0] == max_st_flow(g1, 0, g1.n - 1,
                                             backend="engine")
    assert report.values()[1] == max_st_flow(g2, 0, g2.n - 1,
                                             backend="engine")


# ----------------------------------------------------------------------
# process-shard fan-out
# ----------------------------------------------------------------------
def test_sharded_smoke_matches_sequential():
    graphs = {"g1": make_grid(4, 4, seed=1),
              "g2": randomize_weights(wheel(9), seed=2,
                                      directed_capacities=True)}
    queries = [FlowQuery("g1", 0, graphs["g1"].n - 1),
               GirthQuery("g2"),
               FlowQuery("g2", 0, graphs["g2"].n - 1),
               DistanceQuery("g1", 0, 1),
               FlowQuery("g1", 0, graphs["g1"].n - 1)]
    sharded = run_sharded(graphs, queries, max_workers=2)

    cat = GraphCatalog()
    for name, g in graphs.items():
        cat.register(name, g)
    sequential = run_batch(cat, queries)

    assert len(sharded.results) == len(queries)
    for shard_r, seq_r in zip(sharded.results, sequential.results):
        assert shard_r.query == seq_r.query
        assert shard_r.result == seq_r.result
    # warm accounting is per worker catalog since the warm-pool
    # rewrite: with one worker the repeated g1 flow query is a
    # guaranteed result-cache hit (with more it depends on placement)
    single = run_sharded(graphs, queries, max_workers=1)
    assert single.results[4].warm is True
    assert [r.result for r in single.results] == \
        [r.result for r in sequential.results]


def test_sharded_unknown_graph_raises():
    with pytest.raises(ServiceError):
        run_sharded({"g": make_grid()}, [FlowQuery("other", 0, 1)])
