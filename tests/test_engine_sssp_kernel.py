"""The Bellman–Ford kernels of the engine on the degree-padded in-arc
layout (DESIGN.md §6 and §9).

``_VectorDualKernel.multi_sssp`` (the labeling's batched kernel) and
``_run`` (the single-source and probe kernel) relax on each face's
first ``D`` in-arcs as a padded gather (missing arcs read an ``inf``
sentinel slot), the in-arcs of faces wider than ``D`` folded in by one
``reduceat`` over those slots only.  Every candidate is the left-fold
``dist[tail] + len``, so the rows of ``multi_sssp`` and the distances
of ``sssp`` must equal, with ``==`` and therefore bit for bit on
floats:

* the pure-Python SPFA fallback ``_spfa_sssp`` from the same source,
  row by row;
* the per-pass ``minimum.reduceat`` over all slots that the layout
  replaced (kept here as a reference).

``_as_scalars`` must type every distance as ``_as_scalar`` does.

The slices come from real BDDs (a triangulation with faces of in-degree
up to 8 and padded faces of global dart ``-1``, and a grid whose outer
face is wide).  A length load must never leave stale padded lengths
behind: consecutive loads and a ``set_lambda`` in between must match a
fresh workspace.
"""

import random

import numpy as np
import pytest

from repro.bdd import build_bdd
from repro.engine import FlowWorkspace, compile_graph, compile_labeling_bags
from repro.engine.labels import dart_length_table
from repro.engine.workspace import PAD_WIDTH, _as_scalar, _as_scalars
from repro.errors import NegativeCycleError
from repro.planar.generators import grid, random_planar, randomize_weights
from repro.planar.graph import rev

INF = float("inf")

FAMILIES = {
    "triangulation": (lambda: random_planar(45, seed=3), 14),
    "grid": (lambda: grid(6, 6), 10),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    maker, leaf = FAMILIES[request.param]
    g = maker()
    return g, compile_labeling_bags(build_bdd(g, leaf_size=leaf))


def reduceat_multi_sssp(kernel, sources):
    """The all-slot ``minimum.reduceat`` pass that the padded layout
    replaced, kept as a reference."""
    k = len(sources)
    dist = np.full((k, kernel.nf), INF)
    dist[np.arange(k), sources] = 0.0
    active = np.arange(k)
    while len(active):
        sub = dist[active]
        cand = sub[:, kernel.in_tail] + kernel.len_in
        seg = np.minimum.reduceat(cand, kernel.starts, axis=1)
        improved = (seg < sub).any(axis=1)
        if not improved.any():
            break
        active = active[improved]
        dist[active] = np.minimum(sub[improved], seg[improved])
    return dist


def slice_flat(sl, lengths, reverse):
    """Per-local-dart lengths of a slice, built by hand from the
    per-global-dart mapping (padding darts read ``inf``)."""
    flat = []
    for ld in range(sl.num_darts):
        gd = sl.dart_global[ld ^ 1 if reverse else ld]
        flat.append(INF if gd < 0 else lengths[gd])
    return flat


def assert_kernel_rows(sl, lengths, sources):
    """Forward and reverse: the table load equals a hand-built load on
    a fresh workspace, and ``multi_sssp`` equals SPFA, the reduceat
    reference and the single-source ``sssp`` row by row."""
    table = dart_length_table(lengths, len(lengths))
    for reverse in (False, True):
        sl.load_lengths(table, reverse=reverse)
        ws = sl.workspace
        rows = ws.batched_sssp(sources)
        fresh = FlowWorkspace(sl)
        fresh.load_lengths(slice_flat(sl, lengths, reverse))
        assert np.array_equal(fresh._vec.len_in, ws._vec.len_in)
        assert np.array_equal(rows, reduceat_multi_sssp(ws._vec, sources))
        for row, s in zip(rows.tolist(), sources):
            assert row == list(fresh._spfa_sssp(s))
            assert ws.sssp(s) == row


def potential_lengths(g, rng, values):
    """Dart lengths ``w + pot(tail face) - pot(head face)`` with ``w``
    drawn from ``values``: negative arcs, but every cycle keeps its
    nonnegative ``w`` sum."""
    pot = [rng.randint(-5, 5) for _ in range(g.num_faces())]
    return {d: rng.choice(values) + pot[g.face_of[d]]
            - pot[g.face_of[rev(d)]] for d in g.darts()}


def test_families_cover_wide_and_padded_faces(family):
    """The fixtures exercise the overflow fold and the sentinel."""
    _, compiled = family
    slices = compiled.slices.values()
    assert any(np.diff(sl.dual_indptr).max() > PAD_WIDTH for sl in slices)
    assert any(-1 in sl.dart_global for sl in slices)


def test_every_face_as_source_integral(family):
    g, compiled = family
    rng = random.Random(1)
    lengths = {d: rng.randint(1, 20) for d in g.darts()}
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, lengths, list(range(sl.num_faces)))


def test_single_source(family):
    g, compiled = family
    rng = random.Random(2)
    lengths = {d: rng.randint(0, 9) for d in g.darts()}
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, lengths, [sl.num_faces // 2])


def test_zero_length_arcs(family):
    g, compiled = family
    rng = random.Random(3)
    lengths = {d: rng.choice((0, 0, 1)) for d in g.darts()}
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, lengths, list(range(sl.num_faces)))
    zeros = {d: 0 for d in g.darts()}
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, zeros, list(range(sl.num_faces)))


def test_negative_arcs_without_cycle(family):
    g, compiled = family
    lengths = potential_lengths(g, random.Random(4), (0, 1, 2, 5))
    assert min(lengths.values()) < 0
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, lengths, list(range(sl.num_faces)))


def test_non_integral_floats_bit_equal(family):
    g, compiled = family
    rng = random.Random(5)
    values = (0, 0.1, 0.2, 1 / 3, 0.7, 2.5)
    lengths = {d: rng.choice(values) for d in g.darts()}
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, lengths, list(range(sl.num_faces)))
    mixed = potential_lengths(g, rng, values)
    for sl in compiled.slices.values():
        assert_kernel_rows(sl, mixed, list(range(sl.num_faces)))


def test_negative_cycle_raises_engine_sssp(family):
    """A dart pair at -1 each is a 2-cycle of length -2 in any slice
    holding it; SPFA agrees."""
    g, compiled = family
    table = dart_length_table({d: -1 for d in g.darts()}, g.num_darts)
    checked = 0
    for sl in compiled.slices.values():
        if all(gd < 0 for gd in sl.dart_global):
            continue  # padding only: no real arc, nothing negative
        sl.load_lengths(table)
        with pytest.raises(NegativeCycleError) as exc:
            sl.workspace.batched_sssp(list(range(sl.num_faces)))
        assert exc.value.where == "engine-sssp"
        # the single-source kernel, from a face with a real dart
        real = next(ld for ld, gd in enumerate(sl.dart_global) if gd >= 0)
        with pytest.raises(NegativeCycleError) as exc:
            sl.workspace.sssp(sl.face_left[real])
        assert exc.value.where == "engine-sssp"
        with pytest.raises(NegativeCycleError):
            sl.workspace._spfa_sssp(0)
        checked += 1
    assert checked


# ----------------------------------------------------------------------
# no stale padded lengths
# ----------------------------------------------------------------------
def _all_rows(ws):
    return ws.batched_sssp(list(range(ws.compiled.num_faces)))


def test_consecutive_loads_match_fresh_workspace():
    g = randomize_weights(random_planar(35, seed=6), seed=6,
                          directed_capacities=True)
    compiled = compile_graph(g)
    rng = random.Random(6)
    first = {d: rng.randint(1, 9) for d in g.darts()}
    second = {d: rng.choice((0, 0.5, 1 / 3, 7)) for d in g.darts()}
    ws = FlowWorkspace(compiled)
    for lengths in (first, second, first):
        ws.load_lengths(lengths)
        fresh = FlowWorkspace(compiled)
        fresh.load_lengths(lengths)
        assert np.array_equal(_all_rows(ws), _all_rows(fresh))


def test_set_lambda_between_loads_matches_fresh_workspace():
    g = grid(5, 6)
    compiled = compile_graph(g)
    rng = random.Random(7)
    cap = {d: rng.randint(2, 9) for d in g.darts()}
    path = [0, 6, 12]
    on_path = set(path)
    lam = 1
    residual = {d: cap[d] - lam * (d in on_path) + lam * (rev(d) in on_path)
                for d in g.darts()}
    plain = {d: 2 * cap[d] + 1 for d in g.darts()}

    ws = FlowWorkspace(compiled)
    ws.load_lengths(plain)
    before = _all_rows(ws)
    ws.bind_flow_problem(cap, path)
    ws.set_lambda(lam)
    fresh = FlowWorkspace(compiled)
    fresh.load_lengths(residual)
    assert np.array_equal(_all_rows(ws), _all_rows(fresh))
    ws.load_lengths(plain)
    assert np.array_equal(_all_rows(ws), before)


# ----------------------------------------------------------------------
# scalar conversion
# ----------------------------------------------------------------------
def test_as_scalars_matches_as_scalar():
    m = np.array([[1.0, 0.5, -2.5, INF, 3.0],
                  [-INF, -0.0, 2.0 ** 53 + 2, 2.0 ** 64, -(2.0 ** 64)],
                  [7.0, 1 / 3, 0.0, -7.0, 2.0 ** 63]])

    def typed(rows):
        return [[(type(x), repr(x)) for x in row] for row in rows]

    for a in (m, m.T, m[:, :2]):
        assert typed(_as_scalars(a)) == typed(
            [[_as_scalar(x) for x in row] for row in a])
    assert typed([_as_scalars(m[0])]) == typed([[_as_scalar(x)
                                                for x in m[0]]])
    assert typed(_as_scalars(m[:, [0, 4]])) == typed([[1, 3], [-INF, -2 ** 64],
                                                      [7, 2 ** 63]])
