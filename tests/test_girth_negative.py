"""The girth refuses a negative weight (DESIGN.md §7).

The girth kernels and the pruning of the engine sweep rest on
nonnegative weights, and the centralized oracle's Dijkstra need not
stop without them.  Every surface — legacy, engine, the numpy-free
engine, the centralized oracle, the worker pool and the wire — raises
the same :class:`~repro.errors.NegativeWeightError` with the same
message, naming the first negative edge id and its weight.  After a
restoring write the warm engine girth equals a cold one again.
"""

import os
import subprocess
import sys

import pytest

from repro._artifacts import shared_cache, topo_token
from repro.baselines.centralized import centralized_weighted_girth
from repro.core import weighted_girth
from repro.errors import NegativeWeightError
from repro.planar.generators import grid, path, randomize_weights
from repro.server import ServiceClient, WarmWorkerPool, serve
from repro.service import GirthQuery, GraphCatalog

MESSAGE = ("edge 5: weight -30 is negative; the girth needs nonnegative "
           "weights")


def _grid():
    return randomize_weights(grid(4, 4), seed=1)


def _negative():
    g = _grid()
    g.weights[5] = -30
    return g


def _key(res):
    return (res.value, type(res.value), res.cycle_edge_ids,
            res.cut_side_faces)


def _cold(g):
    """A cold engine girth on a fresh copy, its oracle freed after."""
    fresh = g.copy()
    try:
        return weighted_girth(fresh, backend="engine")
    finally:
        topo = topo_token(fresh)
        shared_cache().invalidate(lambda k: len(k) > 1 and k[1] == topo)


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_backends_refuse_with_one_message(backend):
    with pytest.raises(NegativeWeightError) as info:
        weighted_girth(_negative(), backend=backend)
    assert str(info.value) == MESSAGE


def test_centralized_oracle_refuses():
    with pytest.raises(NegativeWeightError) as info:
        centralized_weighted_girth(_negative())
    assert str(info.value) == MESSAGE


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_first_negative_edge_is_named(backend):
    g = _grid()
    g.weights[9] = -1.5
    g.weights[3] = -2
    with pytest.raises(NegativeWeightError, match=r"^edge 3: weight -2 "):
        weighted_girth(g, backend=backend)


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_forest_refuses_too(backend):
    g = path(5)
    g.weights[2] = -1
    with pytest.raises(NegativeWeightError, match=r"^edge 2: weight -1 "):
        weighted_girth(g, backend=backend)


def test_zero_and_negative_zero_are_accepted():
    g = _grid()
    g.weights[5] = 0
    g.weights[6] = -0.0
    assert _key(weighted_girth(g, backend="engine")) == _key(_cold(g))
    assert weighted_girth(g).value == weighted_girth(
        g, backend="engine").value


def test_warm_girth_after_negative_and_restoring_writes():
    """A negative write makes every later read refuse until a write
    restores it, whatever was written in between; then the warm girth
    equals a cold one (the write reset the kept bounds)."""
    cat = GraphCatalog()
    g = _grid()
    cat.register("g", g)
    try:
        first = cat.serve(GirthQuery("g")).result
        old = g.weights[5]
        cat.mutate_weights("g", {5: -30})
        for _ in range(2):  # a warm read with no change refuses too
            with pytest.raises(NegativeWeightError) as info:
                cat.serve(GirthQuery("g"))
            assert str(info.value) == MESSAGE
        # a raise elsewhere keeps the refusal
        e = next(e for e in range(g.m) if e != 5)
        cat.mutate_weights("g", {e: g.weights[e] + 4})
        with pytest.raises(NegativeWeightError):
            cat.serve(GirthQuery("g"))
        cat.mutate_weights("g", {5: old})
        warm = cat.serve(GirthQuery("g")).result
        assert _key(warm) == _key(_cold(g))
        cat.mutate_weights("g", {e: g.weights[e] - 4})
        assert _key(cat.serve(GirthQuery("g")).result) == _key(first)
    finally:
        cat.unregister("g")


def test_numpy_free_engine_refuses_with_one_message():
    code = (
        "from repro._compat import np\n"
        "assert np is None\n"
        "from repro.core import weighted_girth\n"
        "from repro.errors import NegativeWeightError\n"
        "from repro.planar.generators import grid, randomize_weights\n"
        "for backend in ('legacy', 'engine'):\n"
        "    g = randomize_weights(grid(4, 4), seed=1)\n"
        "    g.weights[5] = -30\n"
        "    try:\n"
        "        weighted_girth(g, backend=backend)\n"
        "    except NegativeWeightError as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, REPRO_ENGINE_NO_NUMPY="1",
               PYTHONPATH="src" + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"NegativeWeightError {MESSAGE}"] * 2


@pytest.mark.parametrize("workers", [0, 1])
def test_pool_refuses_with_one_message(workers):
    with WarmWorkerPool(workers=workers) as pool:
        pool.register("g", _grid())
        pool.prewarm(kinds=("girth",))
        good = pool.submit(GirthQuery("g")).result().result
        pool.mutate_weights("g", {5: -30})
        with pytest.raises(NegativeWeightError) as info:
            pool.submit(GirthQuery("g")).result()
        assert str(info.value) == MESSAGE
        pool.mutate_weights("g", {5: _grid().weights[5]})
        assert _key(pool.submit(GirthQuery("g")).result().result) \
            == _key(good)


def test_wire_refuses_with_one_message():
    server = serve(graphs={"g": _grid()}, workers=1, prewarm=("girth",))
    try:
        with ServiceClient(*server.address, timeout=60) as client:
            client.mutate_weights("g", {5: -30})
            with pytest.raises(NegativeWeightError) as info:
                client.query(GirthQuery("g"))
        assert str(info.value) == MESSAGE
    finally:
        server.shutdown()
        server.pool.close()
