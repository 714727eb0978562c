"""Tests for the repro.server subsystem (DESIGN.md §10): wire protocol
round-trips, catalog snapshot handoff, the pre-warmed worker pool, and
socket-server end-to-end bit-parity with in-process serving."""

import json
import math
import os
import pickle
import socket
import subprocess
import sys
import time

import pytest

from repro.core import max_st_flow
from repro.core.maxflow import MaxFlowResult
from repro.core.mincut import MinCutResult
from repro.errors import (
    NegativeCycleError,
    ProtocolError,
    RemoteError,
    ServiceError,
)
from repro.planar.generators import grid, randomize_weights, wheel
from repro.server import (
    PROTOCOL_VERSION,
    QueryServer,
    ServiceClient,
    WarmWorkerPool,
    serve,
    wire,
)
from repro.service import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    GraphCatalog,
    execute_query,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def make_grid(rows=4, cols=5, seed=3):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


def mixed_queries(name, g):
    nf = g.num_faces()
    return [FlowQuery(name, 0, g.n - 1),
            CutQuery(name, 0, g.n - 1),
            GirthQuery(name),
            DistanceQuery(name, 0, nf - 1),
            DistanceQuery(name, 1, 2),
            FlowQuery(name, 1, g.n - 2)]


def reference_results(g, queries, name="g"):
    catalog = GraphCatalog()
    catalog.register(name, g.copy())
    return [execute_query(catalog, q).result for q in queries]


def rollup(results):
    """``stats()["by_kind"]`` recomputed from served envelopes, taken
    in completion order: per query kind, in order of its first
    success, the count, the warm hits and the summed serve seconds."""
    rows = {}
    for r in results:
        row = rows.setdefault(type(r.query).__name__,
                              {"count": 0, "warm": 0, "seconds": 0.0})
        row["count"] += 1
        row["warm"] += bool(r.warm)
        row["seconds"] += r.seconds
    return rows


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestWire:
    @pytest.mark.parametrize("query", [
        FlowQuery("g", 0, 7),
        FlowQuery("g", 3, 4, directed=False, backend="legacy",
                  validate=False, leaf_size=9),
        CutQuery("g", 1, 2, leaf_size=4),
        GirthQuery("g", backend="engine", num_trees=3),
        DistanceQuery("g", 5, 6, backend="legacy"),
    ])
    def test_query_roundtrip(self, query):
        payload = wire.decode_frame(
            wire.encode_frame(wire.query_to_wire(query)))
        assert wire.query_from_wire(payload) == query

    def test_unknown_query_kind_rejected(self):
        with pytest.raises(ProtocolError):
            wire.query_from_wire({"kind": "mst", "graph": "g"})

    def test_unexpected_query_field_rejected(self):
        with pytest.raises(ProtocolError):
            wire.query_from_wire({"kind": "girth", "graph": "g",
                                  "bogus": 1})

    def test_result_roundtrip_all_served_types(self):
        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        results = [execute_query(catalog, q).result
                   for q in mixed_queries("g", g)]
        # hand-built flows: sparse and out-of-order keys go as sorted
        # pairs, an empty flow as the empty list
        built = [MaxFlowResult(value=3, flow=flow, probes=1,
                               path_darts=[0, 2])
                 for flow in ({0: 1, 2: 3}, {1: 2.5, 0: 1}, {})]
        assert [wire.result_to_wire(r)["flow"] for r in built] \
            == [[[0, 1], [2, 3]], [[0, 1], [1, 2.5]], []]
        results += built
        results.append(MinCutResult(value=1.5, source_side=[0],
                                    cut_edge_ids=[4],
                                    flow={3: 1.5, 1: 0}))
        for result in results:
            payload = wire.decode_frame(
                wire.encode_frame(wire.result_to_wire(result)))
            back = wire.result_from_wire(payload)
            assert back == result
            flow = getattr(result, "flow", None)
            if flow is not None:
                assert list(back.flow) == sorted(flow)
                assert [type(v) for _, v in sorted(back.flow.items())] \
                    == [type(v) for _, v in sorted(flow.items())]

    def test_result_roundtrip_scalars(self):
        for value in (0, 7, 2.5, math.inf, None):
            payload = wire.decode_frame(
                wire.encode_frame(wire.result_to_wire(value)))
            back = wire.result_from_wire(payload)
            assert back == value and type(back) is type(value)

    def test_flow_dict_keys_stay_ints(self):
        g = make_grid()
        res = max_st_flow(g, 0, g.n - 1, backend="engine")
        cut = MinCutResult(value=2.5, source_side=[0, 1],
                           cut_edge_ids=[2], flow={0: 1, 1: 2.5, 2: -1})
        for result in (res, cut):
            payload = wire.result_to_wire(result)
            # a complete 0..m-1 flow travels as the bare value list
            assert payload["flow"] == list(result.flow.values())
            back = wire.result_from_wire(wire.decode_frame(
                wire.encode_frame(payload)))
            assert back == result
            assert all(isinstance(k, int) for k in back.flow)
            assert [type(v) for v in back.flow.values()] \
                == [type(v) for v in result.flow.values()]
            # the pair form an older peer sends still decodes
            payload["flow"] = [[k, v] for k, v in result.flow.items()]
            assert wire.result_from_wire(wire.decode_frame(
                wire.encode_frame(payload))) == result

    def test_graph_roundtrip(self):
        g = make_grid(3, 4, seed=9)
        back = wire.graph_from_wire(wire.decode_frame(
            wire.encode_frame(wire.graph_to_wire(g))))
        assert (back.n, back.edges, back.rotations, back.weights,
                back.capacities) == (g.n, g.edges, g.rotations,
                                     g.weights, g.capacities)

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.decode_frame(b"{not json")
        with pytest.raises(ProtocolError):
            wire.decode_frame(b"[1, 2]")

    def test_version_check(self):
        wire.check_version({"v": PROTOCOL_VERSION})
        with pytest.raises(ProtocolError):
            wire.check_version({"v": PROTOCOL_VERSION + 1})
        with pytest.raises(ProtocolError):
            wire.check_version({})

    def test_exceptions_reconstruct_typed(self):
        exc = wire.exception_from_wire(wire.exception_to_wire(
            ServiceError("unknown graph 'x'")))
        assert isinstance(exc, ServiceError)
        assert "unknown graph 'x'" in str(exc)
        neg = wire.exception_from_wire(wire.exception_to_wire(
            NegativeCycleError("neg", where=5)))
        assert isinstance(neg, NegativeCycleError) and neg.where == 5
        alien = wire.exception_from_wire({"type": "SomethingElse",
                                          "message": "boom"})
        assert isinstance(alien, RemoteError)
        assert alien.remote_type == "SomethingElse"


# ----------------------------------------------------------------------
# catalog snapshot handoff (the pre-fork warm-state capture)
# ----------------------------------------------------------------------
class TestCatalogSnapshot:
    def test_artifacts_survive_pickle_bit_identically(self):
        g = make_grid()
        queries = mixed_queries("g", g)
        catalog = GraphCatalog()
        catalog.register("g", g)
        expected = [execute_query(catalog, q).result for q in queries]
        labeling = catalog.get("g").labeling()

        restored = pickle.loads(
            pickle.dumps(catalog.snapshot())).restore()
        # every artifact answers bit-identically in the new "process"
        got = [execute_query(restored, q).result for q in queries]
        assert got == expected
        # the Theorem 2.1 labels themselves round-tripped exactly
        restored_labeling = restored.get("g").labeling()
        nf = g.num_faces()
        for f in range(0, nf, 3):
            for h in range(0, nf, 2):
                assert restored_labeling.distance(f, h) == \
                    labeling.distance(f, h)

    def test_shipped_artifacts_are_reused_not_rebuilt(self):
        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        solver = catalog.get("g").flow_solver()
        snap = pickle.loads(pickle.dumps(catalog.snapshot()))
        restored = snap.restore()
        # the flow-solver artifact key is fingerprint-stable across
        # processes, so the restored catalog serves from the shipped
        # solver instead of building a new one
        misses_before = restored.artifacts.misses
        restored_solver = restored.get("g").flow_solver()
        assert restored.artifacts.misses == misses_before
        assert restored_solver is not solver  # a pickled copy...
        assert restored_solver.graph is restored.get("g").graph  # ...sharing the restored graph

    def test_compiled_csr_rekeyed_into_shared_cache(self):
        from repro.engine import compile_graph

        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        compiled = catalog.get("g").compiled()
        snap = pickle.loads(pickle.dumps(catalog.snapshot()))
        restored = snap.restore()
        # compile_graph on the restored graph must *hit* the re-keyed
        # shared entry (same arrays), not recompile
        again = compile_graph(restored.get("g").graph)
        assert again is not compiled
        assert list(again.prim_darts) == list(compiled.prim_darts)
        assert again is compile_graph(restored.get("g").graph)

    def test_unpicklable_artifacts_are_skipped_not_shipped(self):
        import threading

        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        key = ("lock", "g")
        lock = catalog._artifact(key, threading.Lock)
        assert catalog._artifact(key, threading.Lock) is lock  # cached
        snap = catalog.snapshot()
        assert key in snap.skipped
        assert all(k != key for k, _ in snap.artifacts)
        restored = pickle.loads(pickle.dumps(snap)).restore()
        q = DistanceQuery("g", 0, 5)
        assert restored.serve(q).result == catalog.serve(q).result

    def test_memoized_results_ship_warm(self):
        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        q = FlowQuery("g", 0, g.n - 1)
        cold = execute_query(catalog, q)
        assert cold.warm is False
        restored = pickle.loads(
            pickle.dumps(catalog.snapshot())).restore()
        assert execute_query(restored, q).warm is True

    def test_pickled_restore_is_isolated_from_source(self):
        g = make_grid()
        catalog = GraphCatalog()
        catalog.register("g", g)
        q = FlowQuery("g", 0, g.n - 1)
        before = execute_query(catalog, q).result
        restored = pickle.loads(
            pickle.dumps(catalog.snapshot())).restore()
        restored.set_weights("g", capacities=[c + 7 for c in
                                              g.capacities])
        changed = execute_query(restored, q).result
        assert changed.value != before.value
        # the source catalog's graph is untouched
        assert execute_query(catalog, q).result == before


# ----------------------------------------------------------------------
# the pre-warmed worker pool
# ----------------------------------------------------------------------
class TestWarmWorkerPool:
    def test_in_process_mode_parity(self):
        g = make_grid()
        queries = mixed_queries("g", g)
        expected = reference_results(g, queries)
        with WarmWorkerPool(workers=0) as pool, \
                WarmWorkerPool(workers=0) as other:
            pool.register("g", g)
            other.register("g", g.copy())
            report = pool.run(queries * 2)
            other_report = other.run(queries[3:])
            stats, other_stats = pool.stats(), other.stats()
        assert report.values() == expected * 2
        # each pool accounts only its own traffic, key for key and
        # value for value what a rollup of its envelopes gives
        assert list(stats["by_kind"].items()) \
            == list(rollup(report.results).items())
        assert list(other_stats["by_kind"].items()) \
            == list(rollup(other_report.results).items())
        assert stats["occupancy"][0]["completed"] == 2 * len(queries)
        assert "metrics" not in stats

    def test_forked_pool_parity_and_order(self):
        g = make_grid()
        queries = mixed_queries("g", g) * 3
        expected = reference_results(g, queries[:6])
        with WarmWorkerPool(workers=2) as pool:
            pool.register("g", g)
            pool.prewarm(kinds=("flow", "distance", "girth"))
            report = pool.run(queries)
            assert report.values() == expected * 3
            # prewarmed artifacts mean no worker rebuilt the labeling:
            # the distance queries are label decodes, microseconds
            stats = pool.stats()
        assert stats["by_kind"]["DistanceQuery"]["count"] == 6
        assert len(stats["catalogs"]) == 2
        # replies complete in any order, so the seconds sum may differ
        # from the rollup's in the last bits
        want = rollup(report.results)
        assert set(stats["by_kind"]) == set(want)
        for kind, row in stats["by_kind"].items():
            assert (row["count"], row["warm"]) \
                == (want[kind]["count"], want[kind]["warm"])
            assert row["seconds"] == pytest.approx(want[kind]["seconds"])
        assert sum(row["completed"] for row in stats["occupancy"]) \
            == len(queries)
        assert all(row["inflight"] == 0 for row in stats["occupancy"])

    def test_skewed_mix_uses_every_worker(self):
        g1 = make_grid(4, 4, seed=1)
        g2 = randomize_weights(wheel(9), seed=2,
                               directed_capacities=True)
        queries = [DistanceQuery("a", i % 5, (i + 2) % 5)
                   for i in range(24)] + [GirthQuery("b")]
        with WarmWorkerPool(workers=2) as pool:
            pool.register("a", g1)
            pool.register("b", g2)
            pool.prewarm()
            pool.run(queries)
            occupancy = pool.stats(worker_catalogs=False)["occupancy"]
        # one-shard-per-graph would have pinned 24 queries on one
        # worker; the window dispatcher keeps both busy
        assert all(row["completed"] > 0 for row in occupancy)
        assert sum(row["completed"] for row in occupancy) == 25

    def test_set_weights_propagates_to_workers(self):
        g = make_grid()
        q = FlowQuery("g", 0, g.n - 1)
        new_caps = [c + 5 for c in g.capacities]
        want_new = reference_results(g.copy(capacities=new_caps), [q])[0]
        with WarmWorkerPool(workers=2) as pool:
            pool.register("g", g)
            pool.prewarm(kinds=("flow",))
            old = pool.run([q] * 4).values()
            pool.drain()
            pool.set_weights("g", capacities=new_caps)
            new = pool.run([q] * 4).values()
        assert new[0].value == want_new.value != old[0].value
        assert all(r == new[0] for r in new)

    def test_set_weights_accepts_one_shot_iterables(self):
        # a generator input must reach the master catalog AND the
        # worker broadcast with the same values (regression: the
        # broadcast used to re-consume the exhausted iterator)
        g = make_grid()
        q = FlowQuery("g", 0, g.n - 1)
        new_caps = [c + 5 for c in g.capacities]
        want = reference_results(g.copy(capacities=new_caps), [q])[0]
        with WarmWorkerPool(workers=1) as pool:
            pool.register("g", g)
            pool.run([q])
            pool.drain()
            pool.set_weights("g", capacities=iter(new_caps))
            got = pool.run([q]).values()[0]
        assert got == want

    def test_mutate_weights_no_stale_distances_in_skewed_pool(self):
        # a distance-heavy skew spreads warm labelings across both
        # workers; the mutate broadcast must leave *neither* serving
        # stale labels (leaf_size pinned small so the workers repair
        # rather than rebuild)
        g = make_grid(5, 6, seed=13)
        nf = g.num_faces()
        queries = [DistanceQuery("g", i % nf, (i * 7 + 3) % nf,
                                 leaf_size=10) for i in range(24)]
        edges = {0: g.weights[0] + 11, 7: g.weights[7] + 5}
        with WarmWorkerPool(workers=2) as pool:
            pool.register("g", g)
            pool.run(queries)          # both workers build labelings
            pool.drain()               # in-flight barrier
            report = pool.mutate_weights("g", edges)
            new = pool.run(queries).values()
            occupancy = pool.stats(worker_catalogs=False)["occupancy"]
        assert report["changed_edges"] == 2
        assert g.weights[0] == edges[0]  # master graph repriced
        assert all(row["completed"] > 0 for row in occupancy)
        assert new == reference_results(g, queries)

    def test_mutate_weights_in_process_mode(self):
        g = make_grid()
        q = DistanceQuery("g", 0, 4, leaf_size=10)
        with WarmWorkerPool(workers=0) as pool:
            pool.register("g", g)
            pool.run([q])
            report = pool.mutate_weights("g", {2: g.weights[2] + 9})
            got = pool.run([q]).values()[0]
            audit = pool.audit_labeling("g", leaf_size=10)
        assert any(row["action"] == "repaired"
                   for row in report["labelings"])
        assert got == reference_results(g, [q])[0]
        assert audit["master"]["error"] is None
        assert audit["workers"] == {}

    def test_audit_labeling_covers_every_worker(self):
        g = make_grid()
        with WarmWorkerPool(workers=2) as pool:
            pool.register("g", g)
            pool.run([DistanceQuery("g", 0, 4, leaf_size=10)] * 4)
            pool.drain()
            pool.mutate_weights("g", {1: g.weights[1] + 3})
            audit = pool.audit_labeling("g", leaf_size=10)
        assert audit["master"]["error"] is None
        assert set(audit["workers"]) == {0, 1}
        assert all(rep["error"] is None and rep["labels"] > 0
                   for rep in audit["workers"].values())

    def test_register_after_start_propagates(self):
        g1 = make_grid(4, 4, seed=1)
        g2 = make_grid(3, 4, seed=2)
        q = FlowQuery("late", 0, g2.n - 1)
        expected = reference_results(g2, [q], name="late")[0]
        pool = WarmWorkerPool(workers=2)
        pool.register("early", g1)
        with pool:  # __enter__ forks the workers
            pool.register("late", g2)
            got = [f.result() for f in
                   [pool.submit(q) for _ in range(4)]]
        assert all(r.result == expected for r in got)

    def test_worker_error_propagates_typed(self):
        g = make_grid()
        with WarmWorkerPool(workers=1) as pool:
            pool.register("g", g)
            with pytest.raises(ServiceError, match="unknown graph"):
                pool.submit(FlowQuery("nope", 0, 1)).result()
            # the worker survives the failed query
            assert pool.run([GirthQuery("g")]).values()[0] is not None

    def test_spawn_start_method_snapshot_handoff(self):
        g = make_grid()
        queries = mixed_queries("g", g)
        expected = reference_results(g, queries)
        with WarmWorkerPool(workers=1, start_method="spawn") as pool:
            pool.register("g", g)
            pool.prewarm()
            report = pool.run(queries)
        assert report.values() == expected

    def test_lifecycle_errors(self):
        pool = WarmWorkerPool(workers=0)
        with pytest.raises(ServiceError, match="not started"):
            pool.submit(GirthQuery("g"))
        pool.start()
        with pytest.raises(ServiceError, match="already started"):
            pool.start()
        with pytest.raises(ServiceError, match="unknown prewarm"):
            pool.prewarm(kinds=("flow", "mst"))
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.submit(GirthQuery("g"))


# ----------------------------------------------------------------------
# socket server end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def served():
    """A forked 2-worker pool behind a live TCP server, plus the graph
    and a mirror catalog for bit-parity checks."""
    g = make_grid()
    pool = WarmWorkerPool(workers=2)
    pool.register("g", g)
    pool.prewarm(kinds=("flow", "distance", "girth"))
    pool.start()
    server = QueryServer(pool).start_background()
    host, port = server.address
    client = ServiceClient(host, port, timeout=60)
    yield {"g": g, "pool": pool, "server": server, "client": client,
           "host": host, "port": port}
    client.close()
    server.shutdown()
    pool.close()


class TestServerEndToEnd:
    def test_ping(self, served):
        pong = served["client"].ping()
        assert pong["pong"] is True
        assert pong["version"] == PROTOCOL_VERSION

    def test_mixed_batch_bit_parity_with_execute_query(self, served):
        g = served["g"]
        queries = mixed_queries("g", g)
        expected = reference_results(g, queries)
        report = served["client"].run(queries)
        assert report.values() == expected
        for r, q in zip(report.results, queries):
            assert r.query == q and r.backend == "engine"

    def test_single_query_roundtrip_each_kind(self, served):
        g = served["g"]
        for q in mixed_queries("g", g):
            expected = reference_results(g, [q])[0]
            assert served["client"].query(q).result == expected

    def test_duplicate_queries_coalesced(self, served):
        g = served["g"]
        q = DistanceQuery("g", 0, 3)
        report = served["client"].run([q] * 5 + [GirthQuery("g")])
        assert len(report.results) == 6
        first = report.results[0]
        # duplicates were served once: they share the first
        # occurrence's result object and count as warm hits with zero
        # serve time — the same accounting run_batch's result cache
        # would report
        for i in range(1, 5):
            dup = report.results[i]
            assert dup.result is first.result
            assert dup.warm is True and dup.seconds == 0.0
        assert report.warm_hits >= 4
        assert first.result == reference_results(g, [q])[0]

    def test_distances_coalesce_one_roundtrip(self, served):
        g = served["g"]
        nf = g.num_faces()
        pairs = [(f, h) for f in range(3) for h in range(nf - 3, nf)]
        values = served["client"].distances("g", pairs)
        labeling = GraphCatalog()
        labeling.register("g", g.copy())
        lab = labeling.get("g").labeling()
        assert values == [lab.distance(f, h) for f, h in pairs]

    def test_register_and_query_over_the_wire(self, served):
        g2 = make_grid(3, 4, seed=21)
        client = served["client"]
        assert client.register("wire-g2", g2) == "wire-g2"
        assert "wire-g2" in client.graphs()
        q = FlowQuery("wire-g2", 0, g2.n - 1)
        assert client.query(q).result == \
            reference_results(g2, [q], name="wire-g2")[0]

    def test_set_weights_over_the_wire(self, served):
        g3 = make_grid(3, 4, seed=22)
        client = served["client"]
        client.register("wire-g3", g3)
        q = FlowQuery("wire-g3", 0, g3.n - 1)
        before = client.query(q).result
        new_caps = [c + 9 for c in g3.capacities]
        client.set_weights("wire-g3", capacities=new_caps)
        after = client.query(q).result
        want = reference_results(g3.copy(capacities=new_caps), [q],
                                 name="wire-g3")[0]
        assert after == want and after.value != before.value

    def test_mutate_weights_over_the_wire(self, served):
        g4 = make_grid(5, 6, seed=23)
        client = served["client"]
        client.register("wire-g4", g4)
        q = DistanceQuery("wire-g4", 0, g4.num_faces() - 1,
                          leaf_size=10)
        before = client.query(q).result
        edges = {0: g4.weights[0] + 11, 3: g4.weights[3] + 7}
        report = client.mutate_weights("wire-g4", edges)
        assert report["graph"] == "wire-g4"
        assert report["changed_edges"] == 2
        after = client.query(q).result
        want = reference_results(
            g4.copy(weights=[edges.get(e, w)
                             for e, w in enumerate(g4.weights)]),
            [q], name="wire-g4")[0]
        assert after == want
        # the workers repaired/dropped in lockstep with the master:
        # every catalog audits clean against a from-scratch rebuild
        audit = client.audit_labeling("wire-g4", leaf_size=10)
        assert audit["master"]["error"] is None
        assert len(audit["workers"]) == 2
        assert all(rep["error"] is None
                   for rep in audit["workers"].values())
        assert before == reference_results(g4, [q],
                                           name="wire-g4")[0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True,
                                     "3"])
    def test_set_weights_bad_values_typed_error(self, served, bad):
        # the master validates every value before writing any, so a
        # bad last value leaves the graph, its fingerprint and the
        # workers untouched
        client = served["client"]
        entry = served["pool"].catalog.get("g")
        g = entry.graph
        before = (list(g.weights), list(g.capacities), entry.fingerprint())
        for field in ("weights", "capacities"):
            values = list(getattr(g, field))
            values[-1] = bad
            with pytest.raises(ServiceError, match="finite number"):
                client.set_weights("g", **{field: values})
        assert (list(g.weights), list(g.capacities),
                entry.fingerprint()) == before
        q = FlowQuery("g", 0, g.n - 1)
        assert client.query(q).result == reference_results(g, [q])[0]

    @pytest.mark.parametrize("field,bad", [("weights", float("nan")),
                                           ("capacities", True)])
    def test_register_bad_values_typed_error(self, served, field, bad):
        # the master refuses the graph before registering or
        # broadcasting it, so no catalog knows the name
        client = served["client"]
        g = make_grid(3, 4, seed=9)
        getattr(g, field)[2] = bad
        with pytest.raises(ServiceError, match="finite number"):
            client.register("wire-bad", g)
        assert "wire-bad" not in client.graphs()
        assert "wire-bad" not in served["pool"].catalog
        assert client.ping()["pong"] is True

    def test_mutate_frame_with_max_dirty_frac_still_succeeds(self, served):
        # an older client's frame may still carry the retired
        # max_dirty_frac field; the server ignores it (protocol v1)
        g8 = make_grid(5, 6, seed=25)
        client = served["client"]
        client.register("wire-g8", g8)
        q = DistanceQuery("wire-g8", 0, g8.num_faces() - 1,
                          leaf_size=10)
        client.query(q)
        w = g8.weights[1] + 5
        report = client._call("mutate_weights", graph="wire-g8",
                              edges=[[1, w]], max_dirty_frac=0.0)["report"]
        assert report["changed_edges"] == 1
        want = reference_results(
            g8.copy(weights=[w if e == 1 else x
                             for e, x in enumerate(g8.weights)]),
            [q], name="wire-g8")[0]
        assert client.query(q).result == want

    def test_mutate_unknown_graph_typed_error(self, served):
        with pytest.raises(ServiceError, match="unknown graph"):
            served["client"].mutate_weights("missing", {0: 1})

    def test_mutate_bad_edges_typed_error(self, served):
        client = served["client"]
        with pytest.raises(ServiceError, match="bad edge id"):
            client.mutate_weights("g", {-1: 5})
        with pytest.raises(ServiceError, match="finite number"):
            client.mutate_weights("g", {0: float("inf")})
        # a malformed frame (edges not a list) is a protocol error,
        # and neither failure killed the connection
        with pytest.raises(ProtocolError, match="edges"):
            client._call("mutate_weights", graph="g", edges="nope")
        assert client.ping()["pong"] is True

    def test_mutation_negative_cycle_surfaces_typed_with_site(self, served):
        # forked pool: the master catalog holds no labeling (queries
        # warm the workers), so the mutate applies the bad weights
        # without raising — the cycle surfaces, typed, at the next
        # query, exactly like a set_weights reprice would
        g5 = make_grid(5, 6, seed=29)
        client = served["client"]
        client.register("wire-g5", g5)
        q = DistanceQuery("wire-g5", 0, 5, leaf_size=10)
        client.query(q)  # warm a labeling somewhere in the pool
        client.mutate_weights("wire-g5", {2: -9})
        with pytest.raises(NegativeCycleError) as info:
            client.query(q)
        # the raise site travelled the wire intact (tuples come back
        # as tuples), identical to what a local fresh build reports
        bad = g5.copy(weights=[(-9 if e == 2 else w)
                               for e, w in enumerate(g5.weights)])
        cat = GraphCatalog()
        cat.register("wire-g5", bad)
        with pytest.raises(NegativeCycleError) as want:
            cat.get("wire-g5").labeling(leaf_size=10)
        assert str(info.value) == str(want.value)
        assert info.value.where == want.value.where
        assert isinstance(info.value.where, type(want.value.where))
        # every catalog reports the same error site through the audit
        audit = client.audit_labeling("wire-g5", leaf_size=10)
        sites = [audit["master"]["error"]] + \
            [rep["error"] for rep in audit["workers"].values()]
        assert all(s == sites[0] and s["type"] == "NegativeCycleError"
                   for s in sites)
        # recovery: a set_weights rollback serves correctly again
        client.set_weights("wire-g5", weights=list(g5.weights))
        assert client.query(q).result == \
            reference_results(g5, [q], name="wire-g5")[0]

    def test_stats_verb(self, served):
        stats = served["client"].stats()
        assert stats["workers"] == 2
        assert {row["worker"] for row in stats["occupancy"]} == {0, 1}
        assert "FlowQuery" in stats["by_kind"]
        assert stats["master"]["artifacts"]["hits"] >= 0
        assert set(stats["catalogs"]) == {"0", "1"}  # JSON object keys

    def test_flag_fields_must_be_json_booleans(self, served):
        # bool is an int subclass and bool("false") is True: neither
        # may slip through the wire boundary
        client = served["client"]
        before = served["pool"].catalog.get("g").graph
        with pytest.raises(ProtocolError, match="overwrite"):
            client.register("g", make_grid(3, 4, seed=23),
                            overwrite="false")
        assert served["pool"].catalog.get("g").graph is before
        with pytest.raises(ProtocolError, match="worker_catalogs"):
            client.stats(worker_catalogs="no")
        with pytest.raises(ProtocolError, match="limit"):
            client.exemplars(limit=True)
        assert client.ping()["pong"] is True

    def test_unknown_graph_raises_service_error(self, served):
        with pytest.raises(ServiceError, match="unknown graph"):
            served["client"].query(FlowQuery("missing", 0, 1))

    def test_protocol_errors_do_not_kill_connection(self, served):
        with socket.create_connection((served["host"], served["port"]),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            # bad JSON -> typed error frame
            f.write(b"this is not json\n")
            f.flush()
            frame = wire.decode_frame(f.readline())
            assert frame["ok"] is False
            assert frame["error"]["type"] == "ProtocolError"
            # wrong version -> typed error frame
            f.write(wire.encode_frame({"v": 99, "id": 1,
                                       "verb": "ping"}))
            f.flush()
            frame = wire.decode_frame(f.readline())
            assert frame["ok"] is False
            assert "version" in frame["error"]["message"]
            # unknown verb -> typed error frame
            f.write(wire.encode_frame({"v": PROTOCOL_VERSION, "id": 2,
                                       "verb": "teleport"}))
            f.flush()
            frame = wire.decode_frame(f.readline())
            assert frame["ok"] is False and frame["id"] == 2
            # and the connection still serves real queries
            f.write(wire.encode_frame({
                "v": PROTOCOL_VERSION, "id": 3, "verb": "query",
                "query": wire.query_to_wire(GirthQuery("g"))}))
            f.flush()
            frame = wire.decode_frame(f.readline())
            assert frame["ok"] is True

    def test_client_reconnects_after_server_side_close(self, served):
        client = ServiceClient(served["host"], served["port"],
                               timeout=60)
        assert client.ping()["pong"] is True
        # simulate a dropped connection under the client
        client._sock.close()
        assert client.ping()["pong"] is True
        client.close()


class _DroppingServer:
    """A stand-in server on a loopback port: it reads and records every
    request frame, and when ``drop_next`` is set closes the connection
    instead of answering (the frame arrived, its answer is lost)."""

    def __init__(self):
        import threading

        self.frames = []
        self.drop_next = False
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rwb") as f:
                for line in f:
                    frame = wire.decode_frame(line)
                    self.frames.append(frame)
                    if self.drop_next:
                        self.drop_next = False
                        break
                    reply = {"v": PROTOCOL_VERSION, "id": frame["id"],
                             "ok": True, "pong": True}
                    if frame["verb"] == "query":
                        reply.update(backend="engine", warm=False,
                                     seconds=0.0,
                                     result={"kind": "number",
                                             "value": 7})
                    f.write(wire.encode_frame(reply))
                    f.flush()

    def close(self):
        self._sock.close()


def test_client_resends_only_retry_safe_verbs():
    srv = _DroppingServer()
    client = ServiceClient(*srv.address, timeout=30)
    try:
        srv.drop_next = True
        assert client.ping()["pong"] is True
        srv.drop_next = True
        r = client.query(DistanceQuery("g", 0, 3))
        assert r.result == 7 and r.retried is True
        srv.drop_next = True
        with pytest.raises((EOFError, ConnectionResetError)):
            client.register("h", make_grid(2, 2))
        # ping and query went out twice, the very same frame each time;
        # register went out once and was not replayed
        assert [f["verb"] for f in srv.frames] == \
            ["ping", "ping", "query", "query", "register"]
        assert srv.frames[0] == srv.frames[1]
        assert srv.frames[2] == srv.frames[3]
        assert client.reconnects == 2
    finally:
        client.close()
        srv.close()


def test_verb_table_is_the_one_source():
    assert set(QueryServer._HANDLERS) == set(wire.VERBS)
    assert {name[len("_on_"):] for name in vars(QueryServer)
            if name.startswith("_on_")} == set(wire.VERBS)
    assert ServiceClient._RETRY_VERBS == \
        {verb for verb, safe in wire.VERBS.items() if safe}
    assert "register" not in ServiceClient._RETRY_VERBS


def test_run_sharded_prewarm_signatures_per_graph_and_knob():
    from repro.service.batch import _prewarm_queries

    reps = _prewarm_queries([
        DistanceQuery("a", 0, 1), DistanceQuery("a", 1, 2),
        FlowQuery("b", 0, 9), FlowQuery("b", 3, 7),
        FlowQuery("b", 0, 9, leaf_size=9),   # distinct artifact
        CutQuery("b", 0, 9), GirthQuery("a")])
    # one representative per artifact signature: graph b's flow pairs
    # collapse to one, but the leaf_size variant keeps its own build,
    # and graph b never pays graph a's labeling
    assert reps == [DistanceQuery("a", 0, 1),
                    FlowQuery("b", 0, 9),
                    FlowQuery("b", 0, 9, leaf_size=9),
                    CutQuery("b", 0, 9),
                    GirthQuery("a")]


def test_run_sharded_preserves_callers_shared_cache():
    from repro._artifacts import shared_cache, topo_token
    from repro.service import run_sharded

    mine = make_grid(4, 4, seed=31)       # caller is already serving
    fresh = make_grid(3, 4, seed=32)      # introduced by the call
    max_st_flow(mine, 0, mine.n - 1, backend="engine")  # warm CSR
    assert any(len(k) > 1 and k[1] == topo_token(mine)
               for k in shared_cache().keys())
    run_sharded({"mine": mine, "fresh": fresh},
                [FlowQuery("mine", 0, mine.n - 1),
                 FlowQuery("fresh", 0, fresh.n - 1)], max_workers=1)
    keys = shared_cache().keys()
    # the caller's warm artifacts survive; the call's own graph was
    # swept so the parent process stays clean
    assert any(len(k) > 1 and k[1] == topo_token(mine) for k in keys)
    assert not any(len(k) > 1 and k[1] == topo_token(fresh)
                   for k in keys)


def test_mutate_cycle_raise_travels_wire_from_serving_catalog():
    # workers=0: the server's own catalog serves queries, so it holds
    # the repairable labeling and the *mutate itself* raises the
    # NegativeCycleError over the wire, ``where`` tuple and all
    g = make_grid(5, 6, seed=31)
    server = serve(graphs={"g": g}, workers=0, prewarm=None)
    try:
        with ServiceClient(*server.address, timeout=60) as client:
            q = DistanceQuery("g", 0, 5, leaf_size=10)
            client.query(q)  # warm the serving labeling
            with pytest.raises(NegativeCycleError) as info:
                client.mutate_weights("g", {2: -9})
        cat = GraphCatalog()
        cat.register("g", g.copy(weights=[(-9 if e == 2 else w)
                                          for e, w in
                                          enumerate(g.weights)]))
        with pytest.raises(NegativeCycleError) as want:
            cat.get("g").labeling(leaf_size=10)
        assert str(info.value) == str(want.value)
        assert info.value.where == want.value.where
        assert isinstance(info.value.where, type(want.value.where))
    finally:
        server.shutdown()
        server.pool.close()


def flow_then_cut_queries(name, g):
    """Flow-then-cut on the same pairs, both directions: the cut reuses
    its pair's memoized flow wherever the flow landed first."""
    out = []
    for directed in (True, False):
        for s, t in ((0, g.n - 1), (2, g.n - 3)):
            out += [FlowQuery(name, s, t, directed=directed),
                    CutQuery(name, s, t, directed=directed)]
    return out


@pytest.mark.parametrize("workers", [1, 0])
def test_cut_after_flow_served_parity(workers):
    # workers=1: through the forked pool; workers=0: over the wire from
    # the server's own catalog.  Reuse is per catalog, so only equality
    # is asserted, not warmth
    g = make_grid(4, 4, seed=17)
    queries = flow_then_cut_queries("g", g)
    expected = reference_results(g, queries)
    with WarmWorkerPool(workers=workers) as pool:
        pool.register("g", g)
        assert pool.run(queries).values() == expected
    server = serve(graphs={"g": g}, workers=workers, prewarm=("flow",))
    try:
        with ServiceClient(*server.address, timeout=60) as client:
            assert client.run(queries).values() == expected
    finally:
        server.shutdown()
        server.pool.close()


@pytest.mark.parametrize("workers", [1, 0])
def test_served_frames_match_in_process_encoding(workers):
    # workers=1: bodies encoded in the forked worker; workers=0: in the
    # server's own process.  Either way a response frame carries what
    # encoding the in-process QueryResult gives, and a repeat ships the
    # same body bytes
    g = make_grid()
    queries = [FlowQuery("g", 0, g.n - 1), CutQuery("g", 0, g.n - 1),
               GirthQuery("g"), DistanceQuery("g", 0, 3)]
    catalog = GraphCatalog()
    catalog.register("g", g.copy())
    local = {q: execute_query(catalog, q) for q in queries}

    def fields(payload):
        return {k: v for k, v in payload.items()
                if k not in ("seconds", "warm")}

    def expected(q, head):
        return fields(wire.decode_frame(wire.encode_frame(
            dict(head, **wire.query_result_to_wire(local[q])))))

    with WarmWorkerPool(workers=workers) as pool:
        pool.register("g", g)
        for q in queries:                     # cache every result
            pool.submit(q).result()
        hits = [[pool.submit(q, body=True).result().result
                 for q in queries] for _ in range(2)]
        # flow, cut and girth ship encoded, the distance as itself
        assert [b.text for b in hits[0][:3]] \
            == [b.text for b in hits[1][:3]]
        assert hits[0][3] == hits[1][3] == local[queries[3]].result
        if workers == 0:                      # the memoized object itself
            assert all(a is b for a, b in zip(hits[0][:3], hits[1][:3]))
        server = QueryServer(pool).start_background()
        try:
            with socket.create_connection(server.address,
                                          timeout=60) as sock:
                f = sock.makefile("rwb")

                def call(frame):
                    f.write(wire.encode_frame(
                        dict(frame, v=PROTOCOL_VERSION)))
                    f.flush()
                    return f.readline()

                for i, q in enumerate(queries):
                    lines = [call({"id": i, "verb": "query",
                                   "query": wire.query_to_wire(q)})
                             for _ in range(2)]
                    head = {"v": PROTOCOL_VERSION, "id": i, "ok": True}
                    assert fields(wire.decode_frame(lines[0])) \
                        == expected(q, head)
                    body = json.dumps(wire.result_to_wire(local[q].result),
                                      separators=(",", ":")).encode()
                    assert [ln[ln.index(b'"result":') + 9:] for ln in lines] \
                        == [body + b"}\n"] * 2
                bad = FlowQuery("missing", 0, 1)
                response = wire.decode_frame(call({
                    "id": 9, "verb": "batch",
                    "queries": [wire.query_to_wire(q)
                                for q in queries + [bad]]}))
                entries = response["results"]
                assert [fields(e) for e in entries[:-1]] \
                    == [expected(q, {"ok": True}) for q in queries]
                assert entries[-1]["ok"] is False
                assert entries[-1]["error"]["type"] == "ServiceError"
        finally:
            server.shutdown()


def test_serve_helper_builds_and_serves():
    g = make_grid(3, 4, seed=5)
    server = serve(graphs={"g": g}, workers=0, prewarm=("flow",))
    try:
        with ServiceClient(*server.address, timeout=60) as client:
            q = FlowQuery("g", 0, g.n - 1)
            assert client.query(q).result == \
                reference_results(g, [q])[0]
    finally:
        server.shutdown()
        server.pool.close()


# ----------------------------------------------------------------------
# worker-death harness (shared with tests/test_loadgen.py)
# ----------------------------------------------------------------------
def kill_pool_worker(pool, wid=None):
    """Kill one live forked worker outright and wait for the corpse.

    The pool's reaper then fails the corpse's in-flight futures with a
    typed :class:`~repro.errors.ServiceError` and keeps serving on the
    survivors — this helper is the shared way to provoke that path
    (``tests/test_loadgen.py`` drives it mid-load to count the error
    frames).  Returns the killed worker id.
    """
    live = sorted(w for w, p in pool._procs.items()
                  if w not in pool._dead and p.is_alive())
    if not live:
        raise RuntimeError("no live worker left to kill")
    if wid is None:
        wid = live[0]
    proc = pool._procs[wid]
    proc.kill()
    proc.join(timeout=10)
    return wid


def wait_for_reap(pool, wid, timeout=30):
    """Block until the pool has noticed worker ``wid`` is dead."""
    deadline = time.monotonic() + timeout
    while wid not in pool._dead:
        if time.monotonic() > deadline:
            raise TimeoutError(f"pool never reaped worker {wid}")
        time.sleep(0.05)


class TestWorkerDeath:
    def test_pool_survives_killed_worker(self):
        g = make_grid()
        queries = mixed_queries("g", g)
        expected = reference_results(g, queries)
        pool = WarmWorkerPool(workers=2)
        pool.register("g", g)
        pool.prewarm(kinds=("flow", "distance", "girth"))
        with pool:
            wid = kill_pool_worker(pool)
            # submissions racing the reaper either land on the
            # survivor (correct answer) or are failed, typed, by the
            # corpse's cleanup — never hang, never wrong
            futures = [pool.submit(q) for q in queries * 3]
            for f, q in zip(futures, queries * 3):
                try:
                    r = f.result(timeout=120)
                except ServiceError as exc:
                    assert "died" in str(exc)
                else:
                    assert r.result == \
                        expected[queries.index(q)]
            wait_for_reap(pool, wid)
            # after the reap, the survivor serves everything
            report = pool.run(queries)
            assert report.values() == expected

    def test_killed_worker_fails_only_its_inflight_queries(self):
        g = make_grid()
        q = GirthQuery("g")
        expected = reference_results(g, [q])[0]
        pool = WarmWorkerPool(workers=2)
        pool.register("g", g)
        with pool:
            wid = kill_pool_worker(pool)
            wait_for_reap(pool, wid)
            for _ in range(4):
                assert pool.submit(q).result(timeout=120).result \
                    == expected


# ----------------------------------------------------------------------
# per-query batch error frames (duplicate-coalescing regression)
# ----------------------------------------------------------------------
class TestBatchErrorFrames:
    def test_batch_partial_failure_default_raises_typed(self, served):
        client = served["client"]
        with pytest.raises(ServiceError, match="unknown graph"):
            client.run([GirthQuery("g"), FlowQuery("missing", 0, 1)])
        # the failure did not poison the connection or the batch verb
        assert client.run([GirthQuery("g")]).values()[0] is not None

    def test_batch_on_error_return_gives_per_query_outcomes(self, served):
        client = served["client"]
        good, bad = GirthQuery("g"), FlowQuery("missing", 0, 1)
        report = client.run([good, bad, good], on_error="return")
        ok0, err, ok2 = report.results
        assert ok0.error is None and ok0.result is not None
        assert isinstance(err.error, ServiceError)
        assert err.result is None and err.warm is False
        # the duplicate good query still coalesces
        assert ok2.result is ok0.result and ok2.warm is True
        with pytest.raises(ProtocolError, match="on_error"):
            client.run([good], on_error="ignore")

    def test_batch_wire_entries_carry_ok_flags(self, served):
        client = served["client"]
        response = client._call("batch", queries=[
            wire.query_to_wire(GirthQuery("g")),
            wire.query_to_wire(FlowQuery("missing", 0, 1))])
        ok_entry, err_entry = response["results"]
        assert ok_entry["ok"] is True and "result" in ok_entry
        assert err_entry["ok"] is False
        assert err_entry["error"]["type"] == "ServiceError"

    def test_duplicate_queries_never_share_an_error_frame(self, served):
        # regression: identical DistanceQuerys coalesced in one batch
        # used to resolve to one shared exception after a
        # NegativeCycleError — two load-gen connections (or one
        # retry) would alias the same error object.  Every occurrence
        # must now rebuild its own, value-identical instance.
        g6 = make_grid(5, 6, seed=29)
        client = served["client"]
        client.register("wire-g6", g6)
        q = DistanceQuery("wire-g6", 0, 5, leaf_size=10)
        client.query(q)                       # warm a labeling
        client.mutate_weights("wire-g6", {2: -9})
        report = client.run([q, q], on_error="return")
        e0, e1 = (r.error for r in report.results)
        assert isinstance(e0, NegativeCycleError)
        assert isinstance(e1, NegativeCycleError)
        assert e0 is not e1                   # fresh per occurrence
        assert str(e0) == str(e1) and e0.where == e1.where
        assert isinstance(e0.where, tuple)    # site travelled intact
        # retry safety: resending the batch yields equal but again
        # distinct errors (nothing cached client- or server-side)
        retry = client.run([q, q], on_error="return")
        e2 = retry.results[0].error
        assert e2 is not e0 and e2 is not e1
        assert str(e2) == str(e0) and e2.where == e0.where
        # default mode raises the typed error
        with pytest.raises(NegativeCycleError):
            client.run([q, q])
        # recovery: rollback reprices and the same batch serves real
        # results again, duplicate coalescing included
        client.set_weights("wire-g6", weights=list(g6.weights))
        healed = client.run([q, q])
        want = reference_results(g6, [q], name="wire-g6")[0]
        assert healed.values() == [want, want]
        assert healed.results[1].warm is True


# ----------------------------------------------------------------------
# CLI end-to-end (subprocess, as CI runs it — incl. no-numpy env)
# ----------------------------------------------------------------------
class TestServerCLI:
    def test_subprocess_server_serves_mixed_batch(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", "1", "--rows", "3", "--cols", "4",
             "--seed", "5", "--prewarm", "flow,distance"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "repro.server listening on" in line, line
            addr = line.split("listening on ")[1].split(" ")[0]
            host, port = addr.rsplit(":", 1)
            g = randomize_weights(grid(3, 4), seed=5,
                                  directed_capacities=True)
            queries = mixed_queries("grid-3x4", g)
            expected = reference_results(g, queries, name="grid-3x4")
            deadline = time.monotonic() + 60
            with ServiceClient(host, int(port), timeout=60) as client:
                while True:
                    try:
                        client.ping()
                        break
                    except OSError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.1)
                report = client.run(queries)
                pids = [row["pid"] for row in
                        client.stats(worker_catalogs=False)["occupancy"]]
            assert report.values() == expected
            assert len(pids) == 1 and proc.pid not in pids
        finally:
            proc.terminate()
            proc.wait(timeout=15)
        # SIGTERM unwinds like ^C: the server closes its pool, so no
        # forked worker outlives it
        deadline = time.monotonic() + 10
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, \
                    f"worker {pid} outlived its terminated server"
                time.sleep(0.05)
