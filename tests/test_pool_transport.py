"""The worker pool's transport: one socket pair per worker, frames as
length-prefixed pickles, sends that never block, and a reader role
taken by the threads that wait (DESIGN.md §10).

Every pool test runs under both ``fork`` and ``spawn``.
"""

import multiprocessing as mp
import os
import random
import signal
import socket
import sys
import threading
import time

import pytest

from concurrent.futures import TimeoutError as FutureTimeout

from repro.errors import ServiceError
from repro.planar.generators import grid, randomize_weights
from repro.server import WarmWorkerPool
from repro.server.pool import _HEADER, _frame, _unframe
from repro.service import DistanceQuery, FlowQuery, GirthQuery, GraphCatalog

METHODS = [m for m in ("fork", "spawn")
           if m in mp.get_all_start_methods()]


def make_grid(rows=4, cols=5, seed=3):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


def sndbuf():
    a, b = socket.socketpair()
    try:
        return a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    finally:
        a.close()
        b.close()


def big_grid(min_bytes):
    """A grid whose register frame is longer than ``min_bytes``."""
    side = 40
    while True:
        g = make_grid(side, side, seed=5)
        if len(_frame(("register", "big", g, False))) > min_bytes:
            return g
        side += 10


def reference(graph, query, mutate=None):
    catalog = GraphCatalog()
    catalog.register(query.graph, graph)
    if mutate is not None:
        catalog.mutate_weights(query.graph, mutate)
    return catalog.serve(query).result


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_unframe_keeps_a_partial_frame():
    frames = _frame(("a", 1)) + _frame(b"")
    buf = bytearray()
    got = []
    for i in range(len(frames)):  # one byte at a time, headers split too
        buf += frames[i:i + 1]
        got += _unframe(buf)
    assert got == [("a", 1), b""]
    assert buf == bytearray()


@pytest.mark.parametrize("delta", [None, -1, 0, 1])
def test_framing_round_trips_through_a_nonblocking_socket(delta):
    limit = sndbuf()
    size = 0 if delta is None else limit + delta
    messages = [b"", b"x", os.urandom(size)]
    a, b = socket.socketpair()
    a.setblocking(False)
    b.setblocking(False)
    try:
        out = memoryview(b"".join(_frame(m) for m in messages))
        buf, got = bytearray(), []
        while out or len(got) < len(messages):
            if out:
                try:
                    out = out[a.send(out):]
                except BlockingIOError:
                    pass
            try:
                buf += b.recv(1 << 16)
            except BlockingIOError:
                pass
            got += _unframe(buf)
        assert got == messages
        assert not buf
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# pools
# ----------------------------------------------------------------------
@pytest.fixture(params=METHODS)
def method(request):
    return request.param


def test_started_pool_runs_no_feeder_or_collector_thread(method):
    g = make_grid()
    before = set(threading.enumerate())
    with WarmWorkerPool(workers=2, start_method=method) as pool:
        pool.register("g", g)
        pool.run([GirthQuery("g"), DistanceQuery("g", 0, 3)])
        pool.set_weights("g", weights=list(g.weights))
        pool.stats()
        started = {t.name for t in set(threading.enumerate()) - before}
    assert started == {"repro-server-watchdog"}


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP/SIGCONT")
def test_sends_to_a_stopped_worker_return_at_once(method):
    """A register frame longer than the socket buffer and a
    mutate_weights both return while the worker is stopped; after
    SIGCONT it applies them in order and its next query sees the new
    weights."""
    g = make_grid()
    # twice the buffer: a send may queue up to about 1.5 times it
    big = big_grid(2 * sndbuf())
    edit = {0: 17, 3: 2}
    pool = WarmWorkerPool(workers=1, start_method=method)
    pool.register("g", g)
    pool.prewarm(kinds=("distance",))
    with pool:
        proc = pool._procs[0]
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            for call, args in ((pool.register, ("big", big)),
                               (pool.mutate_weights, ("g", edit))):
                # on a thread, so a send that blocks fails the test
                # instead of hanging it
                t = threading.Thread(target=call, args=args)
                t.start()
                t.join(timeout=1.0)
                assert not t.is_alive()
            assert pool._outbox[0]  # the register frame stopped part way
        finally:
            os.kill(proc.pid, signal.SIGCONT)
        t.join(timeout=30)
        q = DistanceQuery("g", 0, 5)
        assert pool.submit(q).result(timeout=60).result \
            == reference(g, q, mutate=edit)
        flow = FlowQuery("big", 0, big.n - 1)
        assert pool.submit(flow).result(timeout=60).result.value \
            == reference(big, flow).value
        assert not pool._outbox[0]


def test_unwaited_flow_bodies_and_a_large_broadcast_do_not_deadlock(
        method):
    g = make_grid(24, 24, seed=7)
    big = big_grid(2 * sndbuf())
    pairs = [(0, g.n - 1 - k) for k in range(8)]
    pool = WarmWorkerPool(workers=1, start_method=method)
    pool.register("g", g)
    pool.prewarm(kinds=("flow",))
    with pool:
        futures = [pool.submit(FlowQuery("g", s, t), body=True)
                   for s, t in pairs]
        pool.register("big", big)
        futures.append(pool.submit(FlowQuery("big", 0, big.n - 1)))
        results = [f.result(timeout=120) for f in futures]
    assert all(r.result is not None for r in results)
    assert results[-1].result.value \
        == reference(big, FlowQuery("big", 0, big.n - 1)).value


def _mid_frame(sock):
    """True when the bytes waiting on ``sock`` end inside a frame
    longer than what has arrived of it."""
    try:
        data = sock.recv(1 << 23, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    pos = 0
    while len(data) - pos >= _HEADER.size:
        (size,) = _HEADER.unpack_from(data, pos)
        end = pos + _HEADER.size + size
        if end > len(data):
            return size > 1 << 16
        pos = end
    return False


def test_worker_killed_mid_frame_fails_only_its_own_futures(method):
    g = make_grid()
    girth = GirthQuery("g")
    # the error reply repeats the unknown name, so it outgrows the
    # socket buffer and the worker blocks part way through sending it
    huge = FlowQuery("x" * (4 * sndbuf()), 0, 1)
    pool = WarmWorkerPool(workers=2, start_method=method)
    pool.register("g", g)
    with pool:
        with pool._lock:
            pool._reader = "test"  # hold the reader role: no replies read
        try:
            doomed = pool.submit(huge)
            [wid] = pool._assigned.values()
            survivor = pool.submit(girth)
            sock = pool._socks[wid]

            def stuck():
                with pool._lock:
                    pool._flush(wid)  # stand in for the held reader
                return _mid_frame(sock)

            assert wait_until(stuck)
            pool._procs[wid].kill()
            pool._procs[wid].join(timeout=10)
        finally:
            pool._release()
        with pytest.raises(ServiceError, match="died"):
            doomed.result(timeout=30)
        assert survivor.result(timeout=60).result == reference(g, girth)
        assert wid in pool._dead
        assert pool.submit(girth).result(timeout=60).result \
            == reference(g, girth)


def test_query_after_a_write_returns_sees_the_new_weights(method):
    g = make_grid()
    q = DistanceQuery("g", 0, 5)
    edit = {1: 11}
    pool = WarmWorkerPool(workers=2, start_method=method)
    pool.register("g", g)
    pool.prewarm(kinds=("distance",))
    with pool:
        # in flight across the write: may finish under either weighting
        straddling = [pool.submit(q) for _ in range(4)]
        pool.mutate_weights("g", edit)
        after = [pool.submit(q) for _ in range(4)]
        expected = reference(g, q, mutate=edit)
        assert all(f.result(timeout=60).result == expected
                   for f in after)
        for f in straddling:
            f.result(timeout=60)


def test_threads_sharing_the_reader_role_lose_no_reply(method):
    """More waiting threads than cores, switching often: every reply
    reaches its own future and every completion is counted once."""
    g = make_grid(6, 6)
    catalog = GraphCatalog()
    catalog.register("g", g)
    queries = [DistanceQuery("g", f, (3 * f + 1) % 25)
               for f in range(25)] + [FlowQuery("g", 0, g.n - 1)]
    expected = {q: catalog.serve(q).result for q in queries}
    wrong, served = [], []
    pool = WarmWorkerPool(workers=2, start_method=method)
    pool.register("g", g)
    pool.prewarm()

    def client(seed):
        rnd = random.Random(seed)
        for _ in range(40):
            batch = [rnd.choice(queries) for _ in range(rnd.randint(1, 4))]
            futures = [pool.submit(q) for q in batch]
            try:  # give up the role early now and then
                futures[-1].result(timeout=rnd.random() * 1e-4)
            except FutureTimeout:
                pass
            for q, f in zip(batch, futures):
                if f.result(timeout=60).result != expected[q]:
                    wrong.append(q)
                served.append(q)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pool:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4 * (os.cpu_count() or 1))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            stats = pool.stats(worker_catalogs=False)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert sum(row["count"] for row in stats["by_kind"].values()) \
        == len(served)
    assert all(row["inflight"] == 0 for row in stats["occupancy"])
