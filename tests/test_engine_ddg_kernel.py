"""The vectorized DDG stage of the engine labeling (DESIGN.md §9).

With numpy present, a non-leaf bag's Section 5.3 dense distance graph
is assembled as one ``P x P`` arc matrix and relaxed by blocked
min-plus Bellman–Ford passes; without it, the same DDG runs one pooled
Dijkstra per part.  Two families of checks pin the two together:

* the numpy and ``REPRO_ENGINE_NO_NUMPY=1`` engines build repr-equal
  labels (values *and* Python types) on non-integral float lengths,
  after a full build and after a ``GraphCatalog.mutate_weights``
  repair — a kernel that re-associated path sums (Floyd–Warshall,
  min-plus squaring) would drift in the last bit here, where the
  integer-only parity suites cannot see it;
* the kernel against the list-based reference stage on hand-built
  DDGs: parallel arcs, zero-length arcs, an unreachable part, empty
  part groups, several source blocks, and negative ``S_X`` arcs.
"""

import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bdd import build_bdd
from repro.engine import labels as L
from repro.engine.dijkstra import DijkstraWorkspace
from repro.errors import NegativeCycleError
from repro.labeling import DualDistanceLabeling
from repro.planar.generators import random_planar

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# numpy vs numpy-free engine labels on float lengths
# ----------------------------------------------------------------------
#: builds every family of ``TestLabelParity`` under float lengths, once
#: from scratch and once through a catalog repair, and prints the labels
#: with ``repr`` so that ``1`` and ``1.0`` differ
_FLOAT_LABELS = r"""
import random

from repro._compat import np
from repro.bdd import build_bdd
from repro.labeling import DualDistanceLabeling
from repro.planar.generators import cylinder, grid, random_planar
from repro.service import GraphCatalog

print("numpy", np is not None)
FAMILIES = [
    (lambda: grid(5, 5), 12),
    (lambda: grid(3, 10), 10),
    (lambda: cylinder(3, 7), 12),
    (lambda: random_planar(45, seed=3), 14),
    (lambda: random_planar(40, seed=8, keep=0.8), 12),
]
VALUES = (0, 0.1, 0.2, 1 / 3, 0.7, 1, 2)


def dump(tag, labels):
    for key in sorted(labels):
        for e in labels[key].entries:
            print(tag, key, e.bag_id, e.node, e.is_leaf,
                  list(e.dist_to.items()), list(e.dist_from.items()))


for i, (maker, leaf) in enumerate(FAMILIES):
    rng = random.Random(i)
    g = maker()
    lengths = {d: rng.choice(VALUES) for d in g.darts()}
    lab = DualDistanceLabeling(build_bdd(g, leaf_size=leaf), lengths,
                               backend="engine")
    dump(f"build{i}", lab._labels)

    cat = GraphCatalog()
    cat.register("g", g)
    cat.set_weights("g", [rng.choice(VALUES) for _ in range(g.m)])
    cat.get("g").labeling(leaf_size=leaf)
    edges = {e: rng.choice(VALUES[1:5]) for e in rng.sample(range(g.m), 3)}
    report = cat.mutate_weights("g", edges, max_dirty_frac=1.0)
    assert [r["action"] for r in report["labelings"]] == ["repaired"], \
        report
    dump(f"repair{i}", cat.get("g").labeling(leaf_size=leaf)._labels)
"""


def _run_float_labels(no_numpy):
    env = dict(os.environ, PYTHONPATH="src" + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    env.pop("REPRO_ENGINE_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_ENGINE_NO_NUMPY"] = "1"
    proc = subprocess.run([sys.executable, "-c", _FLOAT_LABELS], env=env,
                          capture_output=True, text=True, timeout=600,
                          cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_numpy_and_no_numpy_labels_repr_equal_on_floats():
    vec = _run_float_labels(no_numpy=False)
    ref = _run_float_labels(no_numpy=True)
    assert vec[0] == "numpy True" and ref[0] == "numpy False"
    vec, ref = vec[1:], ref[1:]
    # the sums carry last-bit rounding, which a re-associated sum moves
    assert any("0.30000000000000004" in line for line in ref)
    assert len(vec) == len(ref)
    for a, b in zip(vec, ref):
        assert a == b


# ----------------------------------------------------------------------
# the kernel against the reference stage on hand-built DDGs
# ----------------------------------------------------------------------
def make_bag(groups, children, sx_arcs, bag_id=7):
    """A hand-built :class:`~repro.engine.labels.CompiledInternalBag`.

    ``groups`` lists the part count of each F_X face in order (0 makes
    an empty group); ``children`` lists per child its parts in anchor
    order (anchor ``a`` is slice node ``a``); ``sx_arcs`` lists
    ``(tail part, head part, dart)``.
    """
    rec = L.CompiledInternalBag.__new__(L.CompiledInternalBag)
    rec.bag_id = bag_id
    rec.f_x = [100 + j for j in range(len(groups))]
    bounds = []
    start = 0
    for size in groups:
        bounds.append((start, start + size))
        start += size
    rec.num_parts = start
    rec.group_bounds = bounds
    rec.children = []
    for ci, parts in enumerate(children):
        face_pos = [next(j for j, (s, e) in enumerate(bounds) if s <= p < e)
                    for p in parts]
        fx_cf_pos = [-1] * len(groups)
        for a, j in enumerate(face_pos):
            fx_cf_pos[j] = a
        rec.children.append(L._ChildRec(
            ci + 1, [rec.f_x[j] for j in face_pos],
            list(range(len(parts))), list(parts), fx_cf_pos))
    rec.sx_arcs = list(sx_arcs)
    rec.zero_links = [(p, q) for s, e in bounds for p in range(s, e)
                      for q in range(s, e) if p != q]
    rec._index_arrays()
    return rec


def _reference_compiled(rec):
    """The one attribute of the compiled bags the list path reads."""
    return SimpleNamespace(
        ddg_workspace=DijkstraWorkspace(max(rec.num_parts, 1)))


def _rows(fwd):
    return [None if f is None else f.tolist() for f in fwd]


def reference_stage(rec, fwd, lengths):
    return L._ddg_stage_py(_reference_compiled(rec), rec, _rows(fwd),
                           lengths)


def assert_stages_equal(rec, fwd, lengths):
    """The vectorized stage returns exactly the reference's values."""
    got = L._ddg_stage_np(rec, fwd, lengths)
    want = reference_stage(rec, fwd, lengths)
    fd, self_dist, m_out_c, m_in_c = got
    assert fd.tolist() == np.asarray(want[0], dtype=float).tolist()
    assert self_dist.tolist() == [float(x) for x in want[1]]
    for mo, mo_ref in zip(m_out_c + m_in_c, want[2] + want[3]):
        if mo_ref is None:
            assert mo is None
        else:
            assert mo.tolist() == np.asarray(mo_ref, dtype=float).tolist()
    return got


def reference_ddg(rec, fwd, lengths):
    arcs, negative = L._ddg_arcs(rec, _rows(fwd), lengths)
    assert not negative
    return np.array(L._ddg_dijkstra(_reference_compiled(rec), rec, arcs),
                    dtype=float)


INF = float("inf")

# F_X faces 100..104: 100 -> parts 0, 1; 101 -> none; 102 -> part 2;
# 103 -> parts 3, 4; 104 -> none (an empty group at either position,
# including one starting at P, where ``reduceat`` has no element)
GROUPS = [2, 0, 1, 2, 0]
CHILD_A = [0, 2, 3]   # faces 100, 102, 103
CHILD_B = [1, 4]      # faces 100, 103


def clique(rows):
    return np.array(rows, dtype=float)


def test_parallel_arcs_keep_the_minimum():
    # S_X 0 -> 2 (0.1) parallels the clique arc 0 -> 2 (0.7); S_X
    # 2 -> 3 (2) parallels the shorter clique arc (1/3); two S_X arcs
    # 1 -> 4 (0.7, then 0.2) parallel each other and B's clique arc
    rec = make_bag(GROUPS, [CHILD_A, CHILD_B],
                   [(0, 2, 10), (2, 3, 12), (1, 4, 14), (1, 4, 16)])
    fwd = [clique([[0, 0.7, 2.0], [0.2, 0, 1 / 3], [1.0, 0.1, 0]]),
           clique([[0, 1.0], [0.7, 0]])]
    lengths = {10: 0.1, 12: 2, 14: 0.7, 16: 0.2}
    w = L._ddg_matrix(rec, fwd, lengths)
    assert w[0, 2] == 0.1 and w[2, 3] == 1 / 3 and w[1, 4] == 0.2
    ddg = L._ddg_relax(w)
    assert ddg.tolist() == reference_ddg(rec, fwd, lengths).tolist()
    assert_stages_equal(rec, fwd, lengths)


def test_zero_length_arcs():
    rec = make_bag(GROUPS, [CHILD_A, CHILD_B], [(2, 4, 10), (4, 2, 12)])
    fwd = [clique([[0, 0, 0.1], [0, 0, 0.2], [0.1, 0, 0]]),
           clique([[0, 0], [0, 0]])]
    lengths = {10: 0, 12: 0.0}
    ddg = L._ddg_relax(L._ddg_matrix(rec, fwd, lengths))
    assert ddg.tolist() == reference_ddg(rec, fwd, lengths).tolist()
    # 2 -> 4 -> 2 over zero S_X arcs, 0 -> 2 over zero clique arcs
    assert ddg[2, 4] == ddg[4, 2] == ddg[0, 2] == 0
    assert_stages_equal(rec, fwd, lengths)


def test_unreachable_part_stays_inf():
    # nothing enters part 2 (face 102): its clique column is inf and no
    # S_X arc or zero link reaches it
    rec = make_bag(GROUPS, [CHILD_A, CHILD_B], [(2, 4, 10)])
    fwd = [clique([[0, INF, 0.3], [0.1, 0, 0.2], [0.7, INF, 0]]),
           clique([[0, 1 / 3], [0.2, 0]])]
    lengths = {10: 0.1}
    ddg = L._ddg_relax(L._ddg_matrix(rec, fwd, lengths))
    assert ddg.tolist() == reference_ddg(rec, fwd, lengths).tolist()
    assert all(ddg[p, 2] == INF for p in range(5) if p != 2)
    fd, _, _, _ = assert_stages_equal(rec, fwd, lengths)
    # empty groups (faces 101 and 104) are inf off the diagonal
    assert fd[0, 1] == INF and fd[4, 0] == INF and fd[1, 1] == 0


def _random_ddg(rng, sizes, values):
    """A hand-built DDG over children of the given part counts, one F_X
    face per part, random cliques and S_X arcs."""
    parts = []
    start = 0
    for size in sizes:
        parts.append(list(range(start, start + size)))
        start += size
    sx = []
    lengths = {}
    for i in range(3 * start):
        p, q = rng.randrange(start), rng.randrange(start)
        sx.append((p, q, 2 * i))
        lengths[2 * i] = rng.choice(values)
    rec = make_bag([1] * start, parts, sx)
    fwd = []
    for size in sizes:
        m = np.array([[rng.choice(values + (INF,)) for _ in range(size)]
                      for _ in range(size)])
        np.fill_diagonal(m, 0.0)
        fwd.append(m)
    return rec, fwd, lengths


@pytest.mark.parametrize("block_elems", [1, 50, 1 << 19])
def test_blocked_sources_match_reference(monkeypatch, block_elems):
    """A DDG larger than one source block (down to one source per
    block) relaxes to the same matrix."""
    monkeypatch.setattr(L, "_DDG_BLOCK_ELEMS", block_elems)
    rng = random.Random(block_elems)
    rec, fwd, lengths = _random_ddg(rng, [9, 7, 11],
                                    (0, 0.1, 0.2, 1 / 3, 0.7, 1, 3))
    ddg = L._ddg_relax(L._ddg_matrix(rec, fwd, lengths))
    assert ddg.tolist() == reference_ddg(rec, fwd, lengths).tolist()
    assert_stages_equal(rec, fwd, lengths)


def test_blocked_engine_labels_match_legacy(monkeypatch):
    """End to end with one source per block: the engine labels stay
    equal to the legacy backend's."""
    monkeypatch.setattr(L, "_DDG_BLOCK_ELEMS", 1)
    g = random_planar(45, seed=3)
    rng = random.Random(5)
    lengths = {d: rng.randint(0, 9) for d in g.darts()}
    bdd = build_bdd(g, leaf_size=10)
    eng = DualDistanceLabeling(bdd, lengths, backend="engine")
    leg = DualDistanceLabeling(bdd, lengths)
    assert eng._labels == leg._labels


def _raise_site(fn):
    try:
        fn()
    except NegativeCycleError as e:
        return str(e), e.where
    return None


def test_negative_sx_arc_cycle_raises_at_ddg_site():
    # S_X 3 -> 0 (-0.7) closes a negative cycle with the clique arc
    # 0 -> 3 (0.2)
    rec = make_bag(GROUPS, [CHILD_A, CHILD_B], [(3, 0, 10)], bag_id=9)
    fwd = [clique([[0, 0.1, 0.2], [0.3, 0, 0.1], [0.7, 0.2, 0]]),
           clique([[0, 1], [1, 0]])]
    lengths = {10: -0.7}
    got = _raise_site(lambda: L._ddg_stage_np(rec, fwd, lengths))
    assert got == ("negative cycle crossing F_X of bag 9", ("ddg", 9))
    assert got == _raise_site(
        lambda: reference_stage(rec, fwd, lengths))


def test_negative_sx_arc_without_cycle_matches_reference():
    rec = make_bag(GROUPS, [CHILD_A, CHILD_B], [(3, 0, 10), (2, 4, 12)])
    fwd = [clique([[0, 2.0, 0.9], [0.3, 0, 0.1], [0.7, 0.9, 0]]),
           clique([[0, 1], [1, 0]])]
    lengths = {10: -0.7, 12: -1 / 3}
    assert_stages_equal(rec, fwd, lengths)

