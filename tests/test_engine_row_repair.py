"""The row test of the engine label repair (DESIGN.md §11): in a dirty
slice a repair recomputes only the Bellman–Ford rows a write can
change — a row whose old distances make no changed arc tight or
improving comes back from a cold run bit for bit — and the labels
still equal a cold build's, negative-cycle raise sites included.

Without numpy every row is recomputed (the no-numpy path is the
reference), so the row counts below depend on the kernel.
"""

import random

import pytest

from repro._compat import np
from repro.bdd import build_bdd
from repro.engine.labels import CompiledBagSlice
from repro.errors import NegativeCycleError
from repro.labeling import DualDistanceLabeling
from repro.planar.generators import grid

from test_mutation_parity import assert_matches_cold


def one_bag(rows=6, cols=6):
    """A grid whose BDD is a single leaf: its slice is the whole dual."""
    g = grid(rows, cols)
    bdd = build_bdd(g, leaf_size=10 * g.num_faces())
    assert len(bdd.bags) == 1 and bdd.root.is_leaf
    return g, bdd


def interior_edge(g):
    """An edge with both endpoints of degree 4: its two faces are also
    joined around either endpoint by three other dual arcs."""
    return next(e for e in range(g.m)
                if all(g.degree(v) == 4 for v in g.endpoints(e)))


def repair(lab, lengths, changes):
    lengths.update(changes)
    stats = lab.reprice(changes)
    assert_matches_cold(lab, lengths)
    return stats


def test_raising_unused_arcs_recomputes_no_row():
    """Raising an arc that is no shortest path's, and stays longer than
    the way around, leaves every row as it was."""
    g, bdd = one_bag()
    e = interior_edge(g)
    lengths = {d: 1 for d in g.darts()}
    lengths[2 * e] = lengths[2 * e + 1] = 100
    lab = DualDistanceLabeling(bdd, dict(lengths), backend="engine")
    k = g.num_faces()
    # a leaf keeps its float64 rows from its first repair on, so the
    # first repair recomputes them all
    first = repair(lab, lengths, {2 * e: 150})
    assert (first["recomputed_rows"], first["reused_rows"]) == (k, 0)
    stats = repair(lab, lengths, {2 * e: 200, 2 * e + 1: 120})
    want = (0, k) if np is not None else (k, 0)
    assert (stats["recomputed_rows"], stats["reused_rows"]) == want


@pytest.mark.skipif(np is None, reason="rows are skipped on the numpy "
                    "kernels only")
def test_shortening_recomputes_every_row_that_changes(monkeypatch):
    """A write that shortens paths on a multi-bag labeling: every row
    of a leaf APSP or a non-leaf child's anchored SSSP that changes was
    among the rows recomputed, and rows were skipped too."""
    g = grid(8, 8)
    bdd = build_bdd(g, leaf_size=8)
    rng = random.Random(3)
    lengths = {d: rng.randint(5, 20) for d in g.darts()}
    lab = DualDistanceLabeling(bdd, dict(lengths), backend="engine")
    darts = [2 * e for e in range(40, 52)]
    repair(lab, lengths, {d: lengths[d] + 1 for d in darts})  # warm
    # a repair replaces the kept matrices, never writes into them
    before = dict(lab._repair)

    ran = {}
    sssp = CompiledBagSlice.batched_sssp

    def spy(self, lens, sources, reverse=False):
        ran.setdefault((self.bag_id, reverse), set()).update(
            int(s) for s in sources)
        return sssp(self, lens, sources, reverse=reverse)

    monkeypatch.setattr(CompiledBagSlice, "batched_sssp", spy)
    shorter = {d: 1 for d in darts}
    lengths.update(shorter)
    stats = lab.reprice(shorter)
    monkeypatch.undo()
    assert_matches_cold(lab, lengths)
    assert stats["recomputed_rows"] == sum(map(len, ran.values()))
    assert stats["recomputed_rows"] > 0 and stats["reused_rows"] > 0

    compiled = lab._compiled()
    changed = 0
    for bag, old in before.items():
        new = lab._repair[bag]
        if bag not in compiled.internal:  # a leaf's APSP, row = source
            runs = [((bag, False), old, new, range(len(old)))]
        else:  # the anchored rows of the non-leaf children
            runs = []
            for ci, child in enumerate(compiled.internal[bag].children):
                if child.bag_id in compiled.internal \
                        and old.fwd[ci] is not None:
                    runs += [((child.bag_id, False), old.fwd[ci],
                              new.fwd[ci], child.cf_local),
                             ((child.bag_id, True), old.back[ci],
                              new.back[ci], child.cf_local)]
        for key, was, now, sources in runs:
            rows = np.nonzero((was != now).any(axis=1))[0].tolist()
            assert {sources[r] for r in rows} <= ran.get(key, set())
            changed += len(rows)
    assert changed > 0


def potential_lengths(g, phis, seed):
    """Positive base lengths shifted by a face potential: mixed signs,
    no negative cycle."""
    rng = random.Random(seed)
    phi = [rng.choice(phis) for _ in range(g.num_faces())]
    return {d: rng.randint(1, 10) + phi[g.face_of[d]]
            - phi[g.face_of[d ^ 1]] for d in g.darts()}


@pytest.mark.parametrize("phis, proven", [
    ((-2.5, -1.3, 0, 0.7, 1.9), False),
    ((-3, -1, 0, 2, 5), True),
], ids=["fractional", "integral"])
def test_mixed_sign_rows(phis, proven):
    """On a slice with mixed signs the test is proven only when every
    sum the kernel forms is exact: with non-integral floats every row
    is recomputed, with integers rows are skipped."""
    g, bdd = one_bag()
    lengths = potential_lengths(g, phis, seed=5)
    assert min(lengths.values()) < 0
    assert proven == all(float(v).is_integer() for v in lengths.values())
    lab = DualDistanceLabeling(bdd, dict(lengths), backend="engine")
    e = interior_edge(g)
    k = g.num_faces()
    repair(lab, lengths, {2 * e: lengths[2 * e] + 1})  # warm
    stats = repair(lab, lengths, {2 * e: lengths[2 * e] + 1})
    assert stats["recomputed_rows"] + stats["reused_rows"] == k
    if proven and np is not None:
        assert stats["reused_rows"] > 0
    else:
        assert stats["reused_rows"] == 0


def raise_site(fn):
    try:
        fn()
    except NegativeCycleError as e:
        return (str(e), e.where)
    return None


@pytest.mark.parametrize("seed", range(6))
def test_negative_cycle_site_matches_cold_build(seed):
    """After repairs that skip rows, a write that closes a negative
    cycle raises where a cold build of the same lengths raises."""
    g = grid(8, 8)
    bdd = build_bdd(g, leaf_size=8)
    rng = random.Random(seed)
    lengths = potential_lengths(g, (-3, -1, 0, 2, 5), seed)
    lab = DualDistanceLabeling(bdd, dict(lengths), backend="engine")
    d = rng.randrange(g.num_darts)
    warm = repair(lab, lengths, {d: lengths[d] + 2})
    warm = repair(lab, lengths, {d: lengths[d] + 1})
    if np is not None:
        assert warm["reused_rows"] > 0
    # the two-dart cycle through d and its partner goes negative
    bad = {d: -lengths[d ^ 1] - rng.randint(1, 4)}
    lengths.update(bad)
    got = raise_site(lambda: lab.reprice(bad))
    want = raise_site(lambda: DualDistanceLabeling(bdd, dict(lengths),
                                                   backend="engine"))
    assert got is not None and got == want
