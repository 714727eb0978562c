"""Engine-vs-legacy parity for the Theorem 2.1 labeling pipeline
(DESIGN.md §9): the compiled-bag builder must produce *bit-identical*
labels — same Label chains, same dict contents, same decoded distances,
same NegativeCycleError messages and ``where`` sites — on positive and
mixed-sign lengths, and the compiled bag arrays must be reused across
weight-only changes (including a ``GraphCatalog.set_weights`` reprice).
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro._artifacts import shared_cache, topo_token
from repro.bdd import build_bdd
from repro.congest import RoundLedger
from repro.errors import NegativeCycleError
from repro.labeling import (
    DualDistanceLabeling,
    PrimalDistanceLabeling,
    dual_sssp,
)
from repro.planar.generators import (
    cylinder,
    grid,
    random_planar,
    randomize_weights,
)
from repro.service import DistanceQuery, GraphCatalog


def positive_lengths(g, seed=0):
    rng = random.Random(seed)
    return {d: rng.randint(1, 12) for d in g.darts()}


def mixed_lengths(g, seed=0):
    """Negative lengths without negative cycles (potential shifts)."""
    rng = random.Random(seed)
    base = {d: rng.randint(1, 10) for d in g.darts()}
    phi = {f: rng.randint(-8, 8) for f in range(g.num_faces())}
    return {d: base[d] + phi[g.face_of[d]] - phi[g.face_of[d ^ 1]]
            for d in g.darts()}


def both(bdd, lengths):
    return (DualDistanceLabeling(bdd, lengths),
            DualDistanceLabeling(bdd, lengths, backend="engine"))


# ----------------------------------------------------------------------
# bit-identical labels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maker,leaf", [
    (lambda: grid(5, 5), 12),
    (lambda: grid(3, 10), 10),
    (lambda: cylinder(3, 7), 12),
    (lambda: random_planar(45, seed=3), 14),
    (lambda: random_planar(40, seed=8, keep=0.8), 12),
])
class TestLabelParity:
    def test_positive_lengths_bit_identical(self, maker, leaf):
        g = maker()
        bdd = build_bdd(g, leaf_size=leaf)
        leg, eng = both(bdd, positive_lengths(g, seed=1))
        assert leg._labels == eng._labels

    def test_negative_lengths_bit_identical(self, maker, leaf):
        g = maker()
        lengths = mixed_lengths(g, seed=2)
        assert any(v < 0 for v in lengths.values())
        bdd = build_bdd(g, leaf_size=leaf)
        leg, eng = both(bdd, lengths)
        assert leg._labels == eng._labels

    def test_decoded_distances_match(self, maker, leaf):
        g = maker()
        bdd = build_bdd(g, leaf_size=leaf)
        leg, eng = both(bdd, mixed_lengths(g, seed=5))
        for s in range(0, g.num_faces(), 2):
            for t in range(g.num_faces()):
                assert eng.distance(s, t) == leg.distance(s, t)


    def test_table_labels_after_build_and_repair(self, maker, leaf):
        """The engine keeps row tables; the ``Label`` objects built
        from them on demand, the chain-walked ``label()`` and the
        topology-only ``max_label_bits()`` equal legacy's, after a
        build and after a repair (which drops the built objects)."""
        g = maker()
        bdd = build_bdd(g, leaf_size=leaf)
        lengths = positive_lengths(g, seed=6)
        leg, eng = both(bdd, dict(lengths))

        def check(leg, eng):
            assert eng._labels == leg._labels
            for bag, f in leg._labels:
                assert eng.label(f, bag=bag) == leg._labels[(bag, f)]
            assert eng.all_labels_root() == leg.all_labels_root()
            assert eng.max_label_bits() == leg.max_label_bits()
            for s in range(0, g.num_faces(), 3):
                for t in range(g.num_faces()):
                    a, b = eng.distance(s, t), leg.distance(s, t)
                    assert a == b and type(a) is type(b)

        check(leg, eng)
        rng = random.Random(7)
        changes = {d: rng.randint(1, 12)
                   for d in rng.sample(sorted(lengths), 6)}
        lengths.update(changes)
        eng.reprice(changes)
        check(DualDistanceLabeling(bdd, lengths), eng)


def test_float_labels_match_legacy_at_bags_over_leaves():
    """A leaf child's anchored rows are read out of its APSP, the rows
    legacy decodes its child distances from, so on non-integral floats
    every bag whose children are all leaves holds legacy's entries
    (with two anchored SSSPs per child, one entry differed)."""
    g = random_planar(45, seed=3)
    rng = random.Random(3)
    plus = (0, .1, .2, .3, 1 / 3, .7, 2)
    lengths = {d: rng.choice(plus if d % 2 == 0 else (0, .1))
               for d in g.darts()}
    bdd = build_bdd(g, leaf_size=10)
    leg, eng = both(bdd, lengths)
    low = {b.bag_id for b in bdd.bags
           if not b.is_leaf and all(c.is_leaf for c in b.children)}
    assert low
    for (bag, f), lbl in leg._labels.items():
        if bag in low:
            assert eng._labels[(bag, f)] == lbl


class TestEngineLabelingBehaviour:
    def test_root_labels_and_bits(self):
        g = grid(6, 6)
        bdd = build_bdd(g, leaf_size=10)
        leg, eng = both(bdd, positive_lengths(g, seed=3))
        assert eng.all_labels_root() == leg.all_labels_root()
        assert eng.max_label_bits() == leg.max_label_bits()

    def test_dual_sssp_on_engine_labels(self):
        g = grid(5, 5)
        bdd = build_bdd(g, leaf_size=10)
        leg, eng = both(bdd, mixed_lengths(g, seed=4))
        for src in (0, 3):
            assert dual_sssp(eng, source=src).dist == \
                dual_sssp(leg, source=src).dist

    def test_single_leaf_bag(self):
        g = grid(3, 3)
        bdd = build_bdd(g, leaf_size=1000)  # everything in one leaf
        leg, eng = both(bdd, positive_lengths(g))
        assert leg._labels == eng._labels

    def test_unknown_backend_rejected(self):
        g = grid(3, 3)
        bdd = build_bdd(g, leaf_size=8)
        with pytest.raises(ValueError):
            DualDistanceLabeling(bdd, positive_lengths(g),
                                 backend="vroom")
        with pytest.raises(ValueError):
            PrimalDistanceLabeling(g, backend="vroom")

    def test_engine_charges_no_rounds(self):
        """CONGEST accounting is a legacy-backend contract (same as
        PlanarMaxFlow): the centralized engine charges nothing."""
        g = grid(5, 5)
        bdd = build_bdd(g, leaf_size=10)
        led = RoundLedger()
        DualDistanceLabeling(bdd, positive_lengths(g), ledger=led,
                             backend="engine")
        assert led.total() == 0


# ----------------------------------------------------------------------
# negative-cycle detection parity (Lemma 5.19 sites)
# ----------------------------------------------------------------------
def raise_site(bdd, lengths, backend):
    try:
        DualDistanceLabeling(bdd, lengths, backend=backend)
    except NegativeCycleError as e:
        return (str(e), e.where)
    return None


class TestNegativeCycleParity:
    def test_negative_self_loop_same_site(self):
        g = grid(1, 4)
        lengths = {d: 1 for d in g.darts()}
        lengths[0] = -5
        bdd = build_bdd(g, leaf_size=8)
        leg = raise_site(bdd, lengths, "legacy")
        eng = raise_site(bdd, lengths, "engine")
        assert leg is not None and leg[1][0] == "leaf"
        assert eng == leg

    def test_leaf_cycle_same_bag(self):
        g = grid(4, 4)
        lengths = {d: 3 for d in g.darts()}
        for d in g.rotations[5]:
            lengths[d] = -10
        bdd = build_bdd(g, leaf_size=10)
        leg = raise_site(bdd, lengths, "legacy")
        eng = raise_site(bdd, lengths, "engine")
        assert leg is not None and leg[1][0] == "leaf"
        assert eng == leg

    def test_fx_crossing_cycle_same_bag(self):
        g = grid(6, 6)
        lengths = {d: 2 for d in g.darts()}
        for d in g.rotations[14]:
            lengths[d] = -9
        bdd = build_bdd(g, leaf_size=6)
        leg = raise_site(bdd, lengths, "legacy")
        eng = raise_site(bdd, lengths, "engine")
        assert leg is not None and leg[1][0] == "ddg"
        assert eng == leg

    def test_no_false_positive(self):
        g = grid(5, 5)
        bdd = build_bdd(g, leaf_size=10)
        DualDistanceLabeling(bdd, mixed_lengths(g, seed=5),
                             backend="engine")  # must not raise

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_random_negative_instances_same_outcome(self, seed):
        """Random sprinkled negatives: either both backends build the
        same labels or both raise at the same site."""
        rng = random.Random(seed)
        g = random_planar(18 + seed % 20, seed=seed % 37)
        lengths = {d: rng.randint(1, 9) for d in g.darts()}
        for d in rng.sample(sorted(lengths), k=max(1, g.m // 6)):
            lengths[d] = -rng.randint(1, 6)
        bdd = build_bdd(g, leaf_size=8 + seed % 8)
        leg = raise_site(bdd, lengths, "legacy")
        eng = raise_site(bdd, lengths, "engine")
        if leg is None:
            leg_lab, eng_lab = both(bdd, lengths)
            assert leg_lab._labels == eng_lab._labels
        assert eng == leg


# ----------------------------------------------------------------------
# primal labeling engine backend
# ----------------------------------------------------------------------
class TestPrimalEngineParity:
    @pytest.mark.parametrize("maker", [
        lambda: randomize_weights(grid(5, 6), seed=2),
        lambda: randomize_weights(random_planar(45, seed=4), seed=4),
    ])
    def test_labels_bit_identical(self, maker):
        g = maker()
        leg = PrimalDistanceLabeling(g, leaf_size=12)
        eng = PrimalDistanceLabeling(g, leaf_size=12, backend="engine")
        assert leg._labels == eng._labels
        for u in range(0, g.n, 3):
            for v in range(g.n):
                assert eng.distance(u, v) == leg.distance(u, v)

    def test_engine_reuses_one_workspace(self):
        g = randomize_weights(grid(4, 5), seed=1)
        eng = PrimalDistanceLabeling(g, leaf_size=10, backend="engine")
        # one pooled workspace for the whole recursion, many runs
        assert eng._ws.sssp_runs > len(eng.bdd.bags)


# ----------------------------------------------------------------------
# compiled-bag artifact reuse
# ----------------------------------------------------------------------
class TestCompiledBagReuse:
    def test_weight_only_rebuild_hits_compiled_bags(self):
        g = grid(5, 5)
        bdd = build_bdd(g, leaf_size=10)
        key_prefix = ("labels-bags", topo_token(g))
        DualDistanceLabeling(bdd, positive_lengths(g, 1),
                             backend="engine")
        keys = [k for k in shared_cache().keys()
                if k[:2] == key_prefix]
        assert len(keys) == 1
        hits_before = shared_cache().hits
        DualDistanceLabeling(bdd, positive_lengths(g, 2),
                             backend="engine")
        assert shared_cache().hits > hits_before
        assert [k for k in shared_cache().keys()
                if k[:2] == key_prefix] == keys

    def test_fresh_bdd_same_topology_reuses_bags(self):
        """set_weights drops the catalog's BDD artifact; the rebuild's
        fresh (deterministic) BDD must still hit the compiled bags."""
        g = randomize_weights(grid(4, 5), seed=3)
        cat = GraphCatalog()
        cat.register("g", g)
        cat.serve(DistanceQuery("g", 0, 1))
        prefix = ("labels-bags", topo_token(g))
        keys = [k for k in shared_cache().keys() if k[:2] == prefix]
        assert len(keys) == 1
        cat.set_weights("g", [w + 1 for w in g.weights])
        got = cat.serve(DistanceQuery("g", 1, 3))
        assert got.warm is False
        assert [k for k in shared_cache().keys()
                if k[:2] == prefix] == keys
        lab = DualDistanceLabeling(
            build_bdd(g),
            {d: (g.weights[d >> 1] if d % 2 == 0 else 0)
             for d in g.darts()})
        assert got.result == lab.distance(1, 3)

    def test_slice_workspaces_survive_rebuilds(self):
        from repro.engine import compile_labeling_bags

        g = grid(4, 4)
        bdd = build_bdd(g, leaf_size=10)
        compiled = compile_labeling_bags(bdd)
        ws = {bid: sl.workspace
              for bid, sl in compiled.slices.items()}
        DualDistanceLabeling(bdd, positive_lengths(g, 1),
                             backend="engine")
        DualDistanceLabeling(bdd, positive_lengths(g, 2),
                             backend="engine")
        compiled2 = compile_labeling_bags(bdd)
        assert compiled2 is compiled
        for bid, sl in compiled2.slices.items():
            assert sl.workspace is ws[bid]


# ----------------------------------------------------------------------
# numpy-free fallback (subprocess: the toggle is read at import time)
# ----------------------------------------------------------------------
def test_no_numpy_labeling_parity():
    code = (
        "from repro._compat import np\n"
        "assert np is None\n"
        "import random\n"
        "from repro.bdd import build_bdd\n"
        "from repro.labeling import (DualDistanceLabeling,"
        " PrimalDistanceLabeling)\n"
        "from repro.planar.generators import grid, randomize_weights\n"
        "g = randomize_weights(grid(4, 5), seed=3)\n"
        "rng = random.Random(7)\n"
        "base = {d: rng.randint(1, 9) for d in g.darts()}\n"
        "phi = {f: rng.randint(-5, 5) for f in range(g.num_faces())}\n"
        "lengths = {d: base[d] + phi[g.face_of[d]]"
        " - phi[g.face_of[d ^ 1]] for d in g.darts()}\n"
        "bdd = build_bdd(g, leaf_size=10)\n"
        "a = DualDistanceLabeling(bdd, lengths)\n"
        "b = DualDistanceLabeling(bdd, lengths, backend='engine')\n"
        "assert a._labels == b._labels\n"
        "p = PrimalDistanceLabeling(g, leaf_size=10)\n"
        "q = PrimalDistanceLabeling(g, leaf_size=10, backend='engine')\n"
        "assert p._labels == q._labels\n"
        "print('OK')\n"
    )
    env = dict(os.environ, REPRO_ENGINE_NO_NUMPY="1",
               PYTHONPATH="src" + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"
