"""Tests for the embedded planar graph substrate."""

import copy
import pickle

import pytest

from repro.errors import EmbeddingError
from repro.planar import PlanarGraph, SubgraphView, rev
from repro.planar.graph import VersionedList
from repro.planar.generators import (
    cylinder,
    grid,
    ladder,
    outerplanar_fan,
    path,
    random_planar,
    triangulated_disk,
    wheel,
)


def triangle():
    """Hand-built triangle used to pin down orientation conventions."""
    edges = [(0, 1), (1, 2), (2, 0)]
    rotations = [
        [5, 0],  # at 0: dart to 2 (rev of e2), dart to 1
        [2, 1],  # at 1: dart to 2, dart to 0
        [4, 3],  # at 2: dart to 0, dart to 1
    ]
    return PlanarGraph(3, edges, rotations)


class TestDartArithmetic:
    def test_rev_involution(self):
        g = triangle()
        for d in g.darts():
            assert rev(rev(d)) == d
            assert g.tail(d) == g.head(rev(d))

    def test_tail_head(self):
        g = triangle()
        assert g.tail(0) == 0 and g.head(0) == 1
        assert g.tail(1) == 1 and g.head(1) == 0

    def test_degree_and_neighbors(self):
        g = triangle()
        assert all(g.degree(v) == 2 for v in range(3))
        assert sorted(g.neighbors(0)) == [1, 2]


class TestFaces:
    def test_triangle_faces(self):
        g = triangle()
        assert g.num_faces() == 2
        orbits = {frozenset(f) for f in g.faces}
        assert frozenset({0, 2, 4}) in orbits
        assert frozenset({1, 3, 5}) in orbits

    def test_each_dart_in_exactly_one_face(self):
        g = grid(4, 5)
        seen = {}
        for fid, f in enumerate(g.faces):
            for d in f:
                assert d not in seen
                seen[d] = fid
        assert len(seen) == g.num_darts

    def test_face_lengths_sum_to_darts(self):
        for g in (grid(3, 7), wheel(9), outerplanar_fan(8)):
            assert sum(len(f) for f in g.faces) == g.num_darts

    def test_grid_face_count(self):
        g = grid(4, 6)
        # (rows-1)*(cols-1) internal faces + outer face
        assert g.num_faces() == 3 * 5 + 1

    def test_tree_has_single_face(self):
        g = path(7)
        assert g.num_faces() == 1
        assert len(g.faces[0]) == g.num_darts

    def test_corner_face_bijection(self):
        g = grid(3, 4)
        # corners of face f == length of f's dart cycle
        from collections import Counter

        corner_counts = Counter()
        for v in range(g.n):
            for i in range(g.degree(v)):
                corner_counts[g.corner_face(v, i)] += 1
        for fid, f in enumerate(g.faces):
            assert corner_counts[fid] == len(f)


class TestEuler:
    @pytest.mark.parametrize("maker", [
        lambda: grid(2, 2),
        lambda: grid(5, 9),
        lambda: cylinder(4, 8),
        lambda: wheel(12),
        lambda: outerplanar_fan(10),
        lambda: ladder(15),
        lambda: path(9),
    ])
    def test_euler_formula(self, maker):
        g = maker()
        assert g.check_euler()

    def test_bad_rotation_rejected(self):
        # Swapping two darts in a degree-4 rotation changes the genus:
        # the rotation system stays valid but Euler's formula fails.
        g = wheel(4)
        rotations = [list(r) for r in g.rotations]
        hub = 4
        rotations[hub][0], rotations[hub][1] = \
            rotations[hub][1], rotations[hub][0]
        bad = PlanarGraph(g.n, g.edges, rotations)
        with pytest.raises(EmbeddingError):
            bad.check_euler()

    def test_dart_missing_rejected(self):
        with pytest.raises(EmbeddingError):
            PlanarGraph(3, [(0, 1), (1, 2), (2, 0)], [[5, 0], [2, 1], [4]])

    def test_wrong_tail_rejected(self):
        with pytest.raises(EmbeddingError):
            PlanarGraph(3, [(0, 1), (1, 2), (2, 0)], [[5, 1], [2, 0], [4, 3]])


class TestTraversals:
    def test_bfs_distances_grid(self):
        g = grid(4, 4)
        dist, parent = g.bfs(0)
        assert dist[0] == 0
        assert dist[15] == 6  # manhattan distance corner to corner
        assert parent[0] == -1
        for v in range(1, 16):
            assert g.head(parent[v]) == v

    def test_diameter(self):
        assert grid(3, 3).diameter() == 4
        assert wheel(20).diameter() == 2
        assert ladder(10).diameter() == 10

    def test_connected_components(self):
        g = grid(2, 3)
        assert g.is_connected()

    def test_eccentricity(self):
        g = grid(3, 3)
        assert g.eccentricity(4) == 2  # center of 3x3
        assert g.eccentricity(0) == 4


class TestGenerators:
    def test_cylinder_wraps(self):
        g = cylinder(3, 6)
        assert g.n == 18
        assert g.check_euler()
        # every vertex in middle row has degree 4
        assert g.degree(6 + 2) == 4

    def test_random_planar(self):
        g = random_planar(40, seed=1)
        assert g.n == 40
        assert g.is_connected()
        assert g.check_euler()

    def test_random_planar_sparsified(self):
        g = random_planar(40, seed=2, keep=0.7)
        assert g.is_connected()
        assert g.check_euler()

    def test_triangulated_disk(self):
        g = triangulated_disk(4)
        assert g.is_connected()
        assert g.check_euler()

    def test_randomize_weights(self):
        from repro.planar.generators import randomize_weights

        g = randomize_weights(grid(3, 3), low=2, high=9, seed=7)
        assert all(2 <= w <= 9 for w in g.weights)
        assert g.capacities == g.weights


class TestSubgraphView:
    def test_view_faces_of_full_graph_match(self):
        g = grid(3, 4)
        view = SubgraphView(g, range(g.m))
        assert len(view.faces) == g.num_faces()

    def test_view_restricted_edges(self):
        g = grid(3, 3)
        # keep only the outer boundary cycle
        boundary = []
        for eid, (u, v) in enumerate(g.edges):
            ru, cu = divmod(u, 3)
            rv, cv = divmod(v, 3)
            if (ru in (0, 2) and rv in (0, 2) and ru == rv) or \
               (cu in (0, 2) and cv in (0, 2) and cu == cv):
                boundary.append(eid)
        view = SubgraphView(g, boundary)
        assert view.is_connected()
        assert len(view.faces) == 2  # inside and outside of the 8-cycle

    def test_view_bfs(self):
        g = grid(4, 4)
        view = SubgraphView(g, range(g.m))
        dist, parent = view.bfs(0)
        assert dist[15] == 6

    def test_full_face_stays_intact_in_view(self):
        # Dropping edges NOT on a face leaves that face's dart orbit
        # unchanged (the property Section 5.1 relies on).
        g = grid(3, 3)
        target_face = None
        for fid, f in enumerate(g.faces):
            if len(f) == 4:
                target_face = fid
                break
        face_edges = {d >> 1 for d in g.faces[target_face]}
        keep = set(face_edges)
        # add a connecting path of other edges
        for eid in range(g.m):
            keep.add(eid)
        keep = sorted(keep - {next(iter(
            eid for eid in range(g.m)
            if eid not in face_edges and _edge_not_adjacent_to_face(
                g, eid, target_face)))})
        view = SubgraphView(g, keep)
        orbits = {frozenset(f) for f in view.faces}
        assert frozenset(g.faces[target_face]) in orbits

    def test_components(self):
        g = grid(1, 6)  # path with 5 edges
        view = SubgraphView(g, [0, 1, 3, 4])
        comps = view.connected_edge_components()
        assert sorted(map(tuple, comps)) == [(0, 1), (3, 4)]


# every in-place mutator of a VersionedList, as (name, call)
MUTATORS = {
    "setitem": lambda v: v.__setitem__(0, 9),
    "setitem_slice": lambda v: v.__setitem__(slice(0, 2), [7, 8]),
    "delitem": lambda v: v.__delitem__(0),
    "delitem_slice": lambda v: v.__delitem__(slice(0, 2)),
    "iadd": lambda v: v.__iadd__([4]),
    "imul": lambda v: v.__imul__(2),
    "append": lambda v: v.append(4),
    "extend": lambda v: v.extend([4, 5]),
    "insert": lambda v: v.insert(0, 4),
    "pop": lambda v: v.pop(),
    "remove": lambda v: v.remove(2),
    "clear": lambda v: v.clear(),
    "sort": lambda v: v.sort(reverse=True),
    "reverse": lambda v: v.reverse(),
}


class TestVersionedWeights:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_every_mutator_bumps_version(self, mutator):
        v = VersionedList([3, 1, 2], version=5)
        expected = [3, 1, 2]
        MUTATORS[mutator](expected)
        MUTATORS[mutator](v)
        assert v == expected
        assert v.version == 6

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_graph_weights_mutators_bump_version(self, mutator):
        g = PlanarGraph(3, [(0, 1), (1, 2), (2, 0)],
                        [[5, 0], [2, 1], [4, 3]], weights=[3, 1, 2])
        assert g.weights.version == 0
        MUTATORS[mutator](g.weights)
        assert g.weights.version == 1
        assert g.capacities.version == 0

    def test_augmented_item_assignment_bumps(self):
        g = grid(2, 3)
        g.weights[0] += 1
        g.capacities[1] *= 2
        assert g.weights.version == 1 and g.capacities.version == 1

    def test_failed_mutation_keeps_version(self):
        v = VersionedList([1, 2])
        with pytest.raises(ValueError):
            v.remove(5)
        with pytest.raises(IndexError):
            VersionedList().pop()
        assert v.version == 0

    def test_reads_are_plain_list_reads(self):
        g = grid(2, 3)
        assert g.weights == [1] * g.m
        assert type(g.weights[1:3]) is list
        assert g.weights.version == 0

    def test_assignment_copies_and_continues_version(self):
        g = grid(2, 3)
        g.weights[0] = 5
        alias = g.weights
        new = [2] * g.m
        g.weights = new
        assert isinstance(g.weights, VersionedList)
        assert g.weights.version == alias.version + 1
        # the assigned value is copied: neither the old alias nor the
        # caller's list shares storage with the graph any more
        assert g.weights is not new and g.weights is not alias
        alias[1] = 99
        new[2] = 99
        assert g.weights == [2] * g.m

    def test_capacities_default_to_a_copy_of_weights(self):
        g = PlanarGraph(3, [(0, 1), (1, 2), (2, 0)],
                        [[5, 0], [2, 1], [4, 3]], weights=[4, 5, 6])
        assert g.capacities == [4, 5, 6]
        g.weights[0] = 1
        assert g.capacities == [4, 5, 6]
        assert g.capacities.version == 0

    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_version_survives_pickle_and_copy(self, clone):
        v = VersionedList([1, 2.5], version=41)
        w = clone(v)
        assert type(w) is VersionedList
        assert w == v and w.version == 41
        assert type(w[1]) is float

    def test_graph_pickle_keeps_versions(self):
        g = grid(2, 3)
        g.weights[0] = 3
        g.capacities = list(g.capacities)
        h = pickle.loads(pickle.dumps(g))
        assert (h.weights.version, h.capacities.version) == (1, 1)
        assert h.weights == g.weights
        h.weights[1] = 2
        assert h.weights.version == 2


    def test_graph_pickle_restores_every_attribute_but_the_token(self):
        from repro._artifacts import topo_token

        g = grid(3, 4)
        g.weights[0] = 3
        assert g.faces and g.face_of
        token = topo_token(g)
        h = pickle.loads(pickle.dumps(g))
        want = {k: v for k, v in vars(g).items()
                if k != "_artifact_topo_token"}
        assert want["_faces"] is not None and want["_face_of"] is not None
        assert vars(h) == want
        assert type(h.weights) is VersionedList
        assert h.weights.version == g.weights.version == 1
        assert topo_token(h) != token


def _edge_not_adjacent_to_face(g, eid, fid):
    return g.face_of[2 * eid] != fid and g.face_of[2 * eid + 1] != fid
