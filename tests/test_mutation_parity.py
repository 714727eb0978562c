"""Property-based audit of incremental label repair (DESIGN.md §11):
random sequences of ``mutate_weights`` / ``set_weights`` / query calls
must leave the catalog's delta-repaired Theorem 2.1 labeling
*bit-identical* to a fresh-catalog full rebuild after every step —
same label chains, same decoded distances (values AND Python types),
and the same ``NegativeCycleError`` message/``where`` site when the
mutated weights contain a negative dual cycle.

Most tests pin a small ``leaf_size``: at the default
:func:`~repro.bdd.build.default_leaf_size` these graphs compile to a
single bag, where every write dirties the whole (one-bag) labeling and
the clean-child reuse of a repair would never execute.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro._compat import np
from repro.bdd import build_bdd
from repro.errors import AuditError, NegativeCycleError, ServiceError
from repro.labeling import DualDistanceLabeling
from repro.labeling.labels import LabelEntry
from repro.planar.generators import (
    cylinder,
    grid,
    random_planar,
    randomize_weights,
)
from repro.service import DistanceQuery, FlowQuery, GraphCatalog
from repro.service.catalog import default_dual_lengths

#: small leaf => multi-bag BDDs, so the delta-repair path actually runs
LEAF = 8

#: the graph families of the mutation audit: square and skewed grids,
#: a graph with genus-like structure (cylinder), and irregular random
#: planar triangulation remnants
FAMILIES = {
    "grid": lambda: grid(6, 6),
    "wide-grid": lambda: grid(3, 12),
    "cylinder": lambda: cylinder(3, 8),
    "random-planar": lambda: random_planar(40, seed=5),
}


def make_family(name, seed=11):
    return randomize_weights(FAMILIES[name](), seed=seed,
                             directed_capacities=True)


def mixed_lengths(g, seed=0):
    """Negative lengths without negative cycles (potential shifts)."""
    rng = random.Random(seed)
    base = {d: rng.randint(1, 10) for d in g.darts()}
    phi = {f: rng.randint(-8, 8) for f in range(g.num_faces())}
    return (base, phi,
            {d: base[d] + phi[g.face_of[d]] - phi[g.face_of[d ^ 1]]
             for d in g.darts()})


def assert_bit_parity(cat, name, g, pairs, leaf_size=LEAF):
    """The served labeling must match a fresh-catalog rebuild bit for
    bit: ``audit_labeling`` compares the label chains (values and
    types), and the decoded distances must agree the same way."""
    report = cat.audit_labeling(name, leaf_size=leaf_size)
    assert report["error"] is None and report["labels"] > 0
    fresh = GraphCatalog()
    fresh.register(name, g.copy())
    for f, h in pairs:
        q = DistanceQuery(name, f, h, leaf_size=leaf_size)
        a = cat.serve(q).result
        b = fresh.serve(q).result
        assert a == b and type(a) is type(b)


def assert_same_bits(a, b):
    """Equal bit for bit: float64 arrays byte for byte, lists element
    by element, scalars by value *and* Python type."""
    if np is not None and isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape
        assert a.astype(np.float64).tobytes() \
            == b.astype(np.float64).tobytes()
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    else:
        assert a == b and type(a) is type(b)


def assert_matches_cold(lab, lengths):
    """An engine labeling after repairs must equal a cold engine build
    of ``lengths`` bit for bit: the same label store (values and Python
    types) and the same repair state — every internal bag's anchored
    child matrices and boundary rows, and each leaf's float64 APSP,
    which a repair keeps from the leaf's first repair on (the cold
    build keeps none: its label rows are those values exactly)."""
    cold = DualDistanceLabeling(lab.bdd, dict(lengths), duals=lab.duals,
                                backend="engine")
    assert set(lab._store) == set(cold._store)
    for bag, tables in cold._store.items():
        assert_same_bits(lab._store[bag], tables)
    assert set(cold._repair) <= set(lab._repair)
    for bag, state in lab._repair.items():
        if bag in cold._repair:
            assert_same_bits(list(state), list(cold._repair[bag]))
        else:
            assert_same_bits(state, np.array(cold._store[bag][0][0],
                                             dtype=np.float64))


# ----------------------------------------------------------------------
# hypothesis: random mutate/set_weights/query sequences, audited
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_random_mutation_sequences_bit_parity(family, data):
    g = make_family(family)
    cat = GraphCatalog()
    cat.register("g", g)
    cat.get("g").labeling(leaf_size=LEAF)  # warm: repair has a target
    nf = g.num_faces()
    pair_st = st.tuples(st.integers(0, nf - 1), st.integers(0, nf - 1))
    for _ in range(data.draw(st.integers(2, 4), label="steps")):
        op = data.draw(st.sampled_from(
            ["mutate", "mutate", "set_weights", "query"]), label="op")
        if op == "mutate":
            eids = data.draw(st.lists(st.integers(0, g.m - 1),
                                      min_size=1, max_size=4,
                                      unique=True), label="eids")
            edges = {eid: data.draw(st.integers(1, 30),
                                    label=f"w[{eid}]")
                     for eid in eids}
            report = cat.mutate_weights("g", edges)
            assert all(g.weights[eid] == w for eid, w in edges.items())
            for row in report["labelings"]:
                assert row["action"] == "repaired"
        elif op == "set_weights":
            rng = random.Random(data.draw(st.integers(0, 10 ** 6),
                                          label="reseed"))
            cat.set_weights("g", weights=[rng.randint(1, 25)
                                          for _ in range(g.m)])
        else:
            f, h = data.draw(pair_st, label="pair")
            cat.serve(DistanceQuery("g", f, h, leaf_size=LEAF))
        pairs = data.draw(st.lists(pair_st, min_size=2, max_size=4),
                          label="audit pairs")
        assert_bit_parity(cat, "g", g, pairs)


#: adversarial weights: zero lengths, all-equal ties (a base weight and
#: its double) and non-integral floats, subnormals included
ADVERSARIAL = {
    "zeros": st.sampled_from([0, 0, 0.0, 1, 2]),
    "ties": st.sampled_from([2.5, 5.0]),
    "floats": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 0.1 + 1e-12])
    | st.floats(0.0, 8.0, allow_nan=False),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_adversarial_weight_sequences_match_cold_build(family, data):
    """Random write sequences over zero, tied and non-integral float
    weights: after every step the repaired labeling's store and repair
    state equal a cold engine build of the same weights bit for bit
    (on non-integral floats the engine is its own reference, see
    :mod:`repro.engine.labels`)."""
    kind = data.draw(st.sampled_from(sorted(ADVERSARIAL)), label="kind")
    weight = ADVERSARIAL[kind]
    g = make_family(family)
    g.weights[:] = [2.5 if kind == "ties" else data.draw(weight)
                    for _ in range(g.m)]
    cat = GraphCatalog()
    cat.register("g", g)
    lab = cat.get("g").labeling(leaf_size=LEAF)
    nf = g.num_faces()
    for _ in range(data.draw(st.integers(2, 5), label="steps")):
        eids = data.draw(st.lists(st.integers(0, g.m - 1), min_size=1,
                                  max_size=6, unique=True), label="eids")
        report = cat.mutate_weights(
            "g", {eid: data.draw(weight, label=f"w[{eid}]")
                  for eid in eids})
        for row in report["labelings"]:
            assert row["action"] == "repaired"
        f, h = data.draw(st.tuples(st.integers(0, nf - 1),
                                   st.integers(0, nf - 1)), label="pair")
        cat.serve(DistanceQuery("g", f, h, leaf_size=LEAF))
        assert cat.get("g").labeling(leaf_size=LEAF) is lab
        assert_matches_cold(lab, default_dual_lengths(g))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_negative_length_reprice_bit_parity(seed):
    """Negative lengths family (labeling level, where the length map
    is free): potential-shifted negatives stay cycle-free, and a
    sequence of reprices — single-dart base changes and whole-face
    potential bumps — stays bit-identical to from-scratch builds."""
    rng = random.Random(seed)
    g = random_planar(30 + seed % 15, seed=seed % 23)
    base, phi, lengths = mixed_lengths(g, seed=seed)
    assert any(v < 0 for v in lengths.values())
    bdd = build_bdd(g, leaf_size=8 + seed % 5)
    lab = DualDistanceLabeling(bdd, dict(lengths), backend="engine")
    for _ in range(3):
        changes = {}
        if rng.random() < 0.5:  # re-draw one dart's base length
            d = rng.randrange(2 * g.m)
            base[d] = rng.randint(1, 10)
            changes[d] = (base[d] + phi[g.face_of[d]]
                          - phi[g.face_of[d ^ 1]])
        else:  # bump one face potential: touches every incident dart
            f = rng.randrange(g.num_faces())
            phi[f] += rng.choice([-3, -1, 1, 3])
            for d in g.darts():
                if g.face_of[d] == f or g.face_of[d ^ 1] == f:
                    changes[d] = (base[d] + phi[g.face_of[d]]
                                  - phi[g.face_of[d ^ 1]])
        lengths.update(changes)
        stats = lab.reprice(changes)
        assert stats["repaired_leaves"] + stats["repaired_internal"] \
            == stats["dirty_bags"]
        ref = DualDistanceLabeling(bdd, dict(lengths),
                                   backend="engine")
        assert lab._labels == ref._labels
        for (bag, f), lbl in lab._labels.items():
            for ea, eb in zip(lbl.entries,
                              ref._labels[(bag, f)].entries):
                for attr in ("dist_to", "dist_from"):
                    da, db = getattr(ea, attr), getattr(eb, attr)
                    assert all(type(da[h]) is type(db[h]) for h in da)


# ----------------------------------------------------------------------
# negative-cycle sites family: mutation raises exactly like a rebuild
# ----------------------------------------------------------------------
class TestNegativeCycleSites:
    def raise_site(self, fn):
        try:
            fn()
        except NegativeCycleError as e:
            return (str(e), e.where)
        return None

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mutation_raises_at_rebuild_site(self, family):
        g = make_family(family, seed=7)
        cat = GraphCatalog()
        cat.register("g", g)
        cat.get("g").labeling(leaf_size=LEAF)
        # any negative weight is a negative dual cycle (the two-dart
        # cycle through the edge costs w + 0), so mutation must raise
        edges = {2: -4, 5: g.weights[5] + 1}
        got = self.raise_site(
            lambda: cat.mutate_weights("g", edges))
        assert got is not None
        # ... with the weights applied and every labeling dropped
        assert g.weights[2] == -4 and g.weights[5] == edges[5]
        assert not any(k[0] == "labeling" and k[1] == "g"
                       for k, _ in cat.artifacts.items())
        fresh = GraphCatalog()
        fresh.register("g", g.copy())
        want = self.raise_site(
            lambda: fresh.get("g").labeling(leaf_size=LEAF))
        assert got == want
        # both sides of the audit raise identically -> report, not
        # AuditError, and the error site is recorded
        report = cat.audit_labeling("g", leaf_size=LEAF)
        assert report["error"]["type"] == "NegativeCycleError"
        assert report["error"]["message"] == want[0]

    def test_recovery_after_cycle(self):
        g = make_family("grid", seed=9)
        cat = GraphCatalog()
        cat.register("g", g)
        cat.get("g").labeling(leaf_size=LEAF)
        with pytest.raises(NegativeCycleError):
            cat.mutate_weights("g", {0: -9})
        cat.mutate_weights("g", {0: 9})  # no labeling left: just mutates
        nf = g.num_faces()
        assert_bit_parity(cat, "g", g, [(0, nf - 1), (1, 2)])


# ----------------------------------------------------------------------
# the repair must actually be a delta (not a disguised rebuild)
# ----------------------------------------------------------------------
class TestDeltaRepair:
    def test_small_mutation_repairs_few_bags(self):
        g = make_family("grid")
        cat = GraphCatalog()
        cat.register("g", g)
        lab = cat.get("g").labeling(leaf_size=LEAF)
        report = cat.mutate_weights("g", {3: g.weights[3] + 5})
        (row,) = report["labelings"]
        assert row["action"] == "repaired"
        assert 0 < row["dirty_bags"] < row["total_bags"]
        assert row["reused_children"] >= 0
        # repaired in place and re-keyed: same object, still cached
        assert cat.get("g").labeling(leaf_size=LEAF) is lab

    def test_served_path_builds_no_label_objects(self, monkeypatch):
        """The engine labeling stores row tables: a cold build, writes
        and the distance reads after them construct no LabelEntry."""
        made = []
        init = LabelEntry.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LabelEntry, "__init__", counting)
        g = make_family("grid")
        nf = g.num_faces()
        cat = GraphCatalog()
        cat.register("g", g)
        rng = random.Random(4)
        for step in range(4):
            for _ in range(6):
                q = DistanceQuery("g", rng.randrange(nf), rng.randrange(nf),
                                  leaf_size=LEAF)
                cat.serve(q)
            cat.mutate_weights("g", {e: g.weights[e] + 1 + step
                                     for e in rng.sample(range(g.m), 3)})
        assert made == []
        # the counter does see the objects built on demand
        cat.get("g").labeling(leaf_size=LEAF).label(0)
        assert made

    def test_legacy_audit_after_reprice_sequence(self):
        """The reprice workload's shape — 8-edge windows raised and
        restored, each write followed by a read — on a small grid, then
        an audit against a from-scratch legacy build.  The counts are
        those of the label objects the engine used to keep."""
        g = randomize_weights(grid(12, 12), seed=11,
                              directed_capacities=True)
        cat = GraphCatalog()
        cat.register("g", g)
        cat.get("g").labeling()
        rng = random.Random(2)
        base = list(g.weights)
        nf = g.num_faces()
        for a, b in ((0, 48), (96, 24), (48, 0)):
            for start, raise_ in ((a, True), (b, True), (a, False)):
                cat.mutate_weights("g", {
                    e: base[e] + (rng.randint(1, 20) if raise_ else 0)
                    for e in range(start, start + 8)})
                cat.serve(DistanceQuery("g", rng.randrange(nf),
                                        rng.randrange(nf)))
        report = cat.audit_labeling("g", reference_backend="legacy")
        assert report["error"] is None
        assert (report["labels"], report["entries"]) == (245, 339)

    def test_flow_results_stay_warm_distance_results_drop(self):
        g = make_family("grid")
        cat = GraphCatalog()
        cat.register("g", g)
        cat.get("g").labeling(leaf_size=LEAF)
        fq = FlowQuery("g", 0, g.n - 1)
        dq = DistanceQuery("g", 0, 3, leaf_size=LEAF)
        cat.serve(fq), cat.serve(dq)
        report = cat.mutate_weights("g", {1: g.weights[1] + 2})
        assert report["results_migrated"] >= 1
        assert report["results_dropped"] >= 1
        assert cat.serve(fq).warm is True  # capacities untouched
        assert cat.serve(dq).warm is False  # weights changed

    @pytest.mark.parametrize("make, eids", [
        (lambda: make_family("grid"), [0]),  # one bag: all of it dirty
        (lambda: randomize_weights(grid(24, 24), seed=11,
                                   directed_capacities=True),
         range(912, 920)),  # 5 of 7 bags dirty
    ], ids=["single-bag", "grid24"])
    def test_wide_write_is_repaired(self, make, eids):
        """A write that dirties more than half the bags at the default
        leaf size is repaired in place like any other, and the repair
        equals a rebuild bit for bit."""
        g = make()
        cat = GraphCatalog()
        cat.register("g", g)
        lab = cat.get("g").labeling()
        report = cat.mutate_weights(
            "g", {eid: g.weights[eid] + 3 for eid in eids})
        (row,) = report["labelings"]
        assert row["action"] == "repaired"
        assert 2 * row["dirty_bags"] > row["total_bags"]
        assert cat.get("g").labeling() is lab
        nf = g.num_faces()
        assert_bit_parity(cat, "g", g, [(0, nf - 1), (nf // 2, 1)],
                          leaf_size=None)

    def test_value_identical_mutation_is_a_no_op(self):
        g = make_family("grid")
        cat = GraphCatalog()
        cat.register("g", g)
        lab = cat.get("g").labeling(leaf_size=LEAF)
        report = cat.mutate_weights("g", {0: g.weights[0],
                                          4: g.weights[4]})
        assert report["changed_edges"] == 0
        assert report["labelings"] == []
        assert cat.get("g").labeling(leaf_size=LEAF) is lab

    def test_audit_catches_corruption(self):
        g = make_family("grid")
        cat = GraphCatalog()
        cat.register("g", g)
        lab = cat.get("g").labeling(leaf_size=LEAF)
        cat.audit_labeling("g", leaf_size=LEAF)  # clean
        # corrupt one stored distance behind the catalog's back
        key = sorted(lab._labels)[0]
        entry = lab._labels[key].entries[0]
        h = sorted(entry.dist_to)[0]
        entry.dist_to[h] += 1
        with pytest.raises(AuditError) as info:
            cat.audit_labeling("g", leaf_size=LEAF)
        assert info.value.report["divergence"]
        entry.dist_to[h] -= 1

    def test_audit_catches_stale_lengths(self):
        # (an out-of-band *graph* mutation is already stale-proof: the
        # fingerprint-keyed lookup misses and audit sees a fresh
        # build — what audit must catch is a labeling whose internal
        # length map disagrees with the graph it serves)
        g = make_family("grid")
        cat = GraphCatalog()
        cat.register("g", g)
        lab = cat.get("g").labeling(leaf_size=LEAF)
        lab.lengths[0] += 3
        with pytest.raises(AuditError, match="lengths"):
            cat.audit_labeling("g", leaf_size=LEAF)
        lab.lengths[0] -= 3
        assert lab.lengths == default_dual_lengths(g)
        cat.audit_labeling("g", leaf_size=LEAF)


# ----------------------------------------------------------------------
# input validation and misuse guards
# ----------------------------------------------------------------------
class TestValidation:
    def setup_method(self):
        self.g = make_family("grid")
        self.cat = GraphCatalog()
        self.cat.register("g", self.g)

    def test_unknown_graph(self):
        with pytest.raises(ServiceError, match="unknown graph"):
            self.cat.mutate_weights("nope", {0: 1})
        with pytest.raises(ServiceError, match="unknown graph"):
            self.cat.audit_labeling("nope")

    @pytest.mark.parametrize("edges", [
        {-1: 5}, {10 ** 9: 5}, {"0": 5}, {True: 5},
        {0: float("inf")}, {0: float("nan")}, {0: True}, {0: "7"},
        [(0,)], [(0, 1, 2)], [3],
    ])
    def test_bad_edges_rejected_before_mutation(self, edges):
        before = list(self.g.weights)
        with pytest.raises(ServiceError, match="mutate_weights"):
            self.cat.mutate_weights("g", edges)
        assert self.g.weights == before

    def test_pair_iterable_accepted(self):
        report = self.cat.mutate_weights(
            "g", [(0, self.g.weights[0] + 1), (1, 2.5)])
        assert report["changed_edges"] == 2
        assert self.g.weights[1] == 2.5

    def test_reprice_requires_repair_state(self):
        # only an engine labeling records repair state
        bdd = build_bdd(self.g, leaf_size=LEAF)
        lab = DualDistanceLabeling(bdd, default_dual_lengths(self.g))
        with pytest.raises(ValueError, match="backend='engine'"):
            lab.reprice({0: 99})
