"""Tests for exact maximum st-flow (Theorem 1.2)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import RoundLedger
from repro.core import (
    PlanarMaxFlow,
    flow_value_networkx,
    max_st_flow,
    validate_flow,
)
from repro.core.flow_utils import undirected_st_path_darts
from repro.errors import InfeasibleFlowError
from repro.planar.generators import (
    cylinder,
    grid,
    random_planar,
    randomize_weights,
    wheel,
)


class TestExactValue:
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_directed(self, seed):
        g = randomize_weights(grid(4, 5), seed=seed,
                              directed_capacities=True)
        ref = flow_value_networkx(g, 0, g.n - 1, directed=True)
        res = max_st_flow(g, 0, g.n - 1, directed=True, leaf_size=12)
        assert res.value == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_random_planar_directed(self, seed):
        g = randomize_weights(random_planar(35, seed=seed), seed=seed + 7,
                              directed_capacities=True)
        rng = random.Random(seed)
        s, t = rng.sample(range(g.n), 2)
        ref = flow_value_networkx(g, s, t, directed=True)
        res = max_st_flow(g, s, t, directed=True, leaf_size=14)
        assert res.value == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_undirected(self, seed):
        g = randomize_weights(cylinder(3, 7), seed=seed)
        ref = flow_value_networkx(g, 0, g.n - 1, directed=False)
        res = max_st_flow(g, 0, g.n - 1, directed=False, leaf_size=12)
        assert res.value == ref

    def test_zero_flow_when_no_directed_path(self):
        # orient all edges away from t: nothing can reach it
        g = grid(3, 3)
        # grid edges are oriented toward increasing ids; flow INTO vertex
        # 0 is impossible
        res = max_st_flow(g, 8, 0, directed=True, leaf_size=10)
        assert res.value == 0

    def test_small_wheel(self):
        g = randomize_weights(wheel(7), seed=3, directed_capacities=True)
        ref = flow_value_networkx(g, 0, 3, directed=True)
        res = max_st_flow(g, 0, 3, directed=True)
        assert res.value == ref


class TestAssignment:
    def test_assignment_feasible_and_conserving(self):
        g = randomize_weights(grid(4, 4), seed=9, directed_capacities=True)
        res = max_st_flow(g, 0, 15, directed=True, leaf_size=10,
                          validate=False)
        validate_flow(g, 0, 15, res.flow, res.value, directed=True)

    def test_assignment_undirected(self):
        g = randomize_weights(grid(4, 4), seed=2)
        res = max_st_flow(g, 0, 15, directed=False, leaf_size=10,
                          validate=False)
        validate_flow(g, 0, 15, res.flow, res.value, directed=False)

    def test_integral_value(self):
        g = randomize_weights(grid(3, 5), seed=1, directed_capacities=True)
        res = max_st_flow(g, 0, 14, directed=True)
        assert res.value == int(res.value)


class TestSolverReuse:
    def test_solver_multiple_pairs(self):
        g = randomize_weights(grid(4, 4), seed=5, directed_capacities=True)
        solver = PlanarMaxFlow(g, directed=True, leaf_size=10)
        for (s, t) in [(0, 15), (3, 12), (5, 10)]:
            ref = flow_value_networkx(g, s, t, directed=True)
            assert solver.solve(s, t).value == ref

    def test_rejects_equal_endpoints(self):
        g = grid(3, 3)
        with pytest.raises(InfeasibleFlowError):
            max_st_flow(g, 4, 4)

    def test_probe_count_logarithmic(self):
        import math

        g = randomize_weights(grid(4, 4), seed=8, directed_capacities=True)
        res = max_st_flow(g, 0, 15, directed=True, leaf_size=10)
        assert res.probes <= math.ceil(
            math.log2(sum(g.capacities) + 2)) + 3


def _within_log_bracket(probes, bracket):
    return probes <= math.ceil(math.log2(bracket + 1)) + 1


class TestTrivialCutBracket:
    """The λ search runs over [0, min(out_cap(s), in_cap(t))]; both
    backends run the same search, so value, flow and probes agree."""

    @pytest.mark.parametrize("backend", ["legacy", "engine"])
    def test_trivial_cut_is_min_cut(self, backend):
        g = grid(3, 4)
        caps = [50] * g.m
        for d in g.out_darts(0):
            caps[d >> 1] = 3
        g = g.copy(capacities=caps)
        solver = PlanarMaxFlow(g, directed=True, backend=backend)
        bracket = solver.trivial_cut_bound(0, g.n - 1)
        res = solver.solve(0, g.n - 1)
        assert bracket == 6
        assert res.value == bracket == flow_value_networkx(g, 0, g.n - 1)
        assert _within_log_bracket(res.probes, bracket)

    @pytest.mark.parametrize("backend", ["legacy", "engine"])
    def test_source_without_out_capacity(self, backend):
        # grid edges point toward increasing ids: nothing leaves vertex 8
        g = randomize_weights(grid(3, 3), seed=4, directed_capacities=True)
        solver = PlanarMaxFlow(g, directed=True, backend=backend)
        assert solver.trivial_cut_bound(8, 0) == 0
        res = solver.solve(8, 0)
        assert res.value == 0
        assert res.probes == 1

    def test_undirected(self):
        g = randomize_weights(cylinder(3, 6), seed=5)
        s, t = 0, g.n - 1
        results = {}
        for backend in ("legacy", "engine"):
            solver = PlanarMaxFlow(g, directed=False, backend=backend)
            bracket = solver.trivial_cut_bound(s, t)
            assert bracket == min(sum(g.capacities[d >> 1]
                                      for d in g.out_darts(v))
                                  for v in (s, t))
            results[backend] = solver.solve(s, t)
            assert _within_log_bracket(results[backend].probes, bracket)
        assert results["legacy"] == results["engine"]
        assert results["engine"].value == flow_value_networkx(
            g, s, t, directed=False)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_probes_within_bracket_log(self, seed, directed):
        rng = random.Random(seed)
        g = randomize_weights(
            random_planar(12 + seed % 10, seed=seed % 25, keep=0.85),
            seed=seed, directed_capacities=directed)
        s, t = rng.sample(range(g.n), 2)
        ref = flow_value_networkx(g, s, t, directed=directed)
        results = {}
        for backend in ("legacy", "engine"):
            solver = PlanarMaxFlow(g, directed=directed, leaf_size=10,
                                   backend=backend)
            bracket = solver.trivial_cut_bound(s, t)
            res = solver.solve(s, t)
            assert res.value == ref <= bracket
            assert _within_log_bracket(res.probes, bracket)
            results[backend] = res
        assert results["engine"] == results["legacy"]


class TestValidateFlow:
    def test_saturated_integer_flow_above_2_53(self):
        c = 2 ** 55 + 1
        g = grid(1, 2)
        g = g.copy(capacities=[c] * g.m)
        assert validate_flow(g, 0, 1, {0: c}, c)

    def test_integer_flow_one_over_capacity_rejected(self):
        c = 2 ** 55 + 1
        g = grid(1, 2)
        g = g.copy(capacities=[c] * g.m)
        with pytest.raises(InfeasibleFlowError, match="outside"):
            validate_flow(g, 0, 1, {0: c + 1}, c + 1)

    def test_float_flow_keeps_tolerance(self):
        g = grid(1, 2)
        g = g.copy(capacities=[5] * g.m)
        assert validate_flow(g, 0, 1, {0: 5 + 1e-9}, 5)
        with pytest.raises(InfeasibleFlowError):
            validate_flow(g, 0, 1, {0: 5.1}, 5.1)


class TestRounds:
    def test_ledger_records_probes_and_labels(self):
        led = RoundLedger()
        g = randomize_weights(grid(4, 4), seed=0, directed_capacities=True)
        max_st_flow(g, 0, 15, directed=True, leaf_size=10, ledger=led)
        phases = led.by_phase()
        assert any(k.startswith("labeling/") for k in phases)
        assert any(k.startswith("maxflow/") for k in phases)

    def test_path_darts_form_st_path(self):
        g = grid(4, 4)
        darts = undirected_st_path_darts(g, 0, 15)
        assert g.tail(darts[0]) == 0
        assert g.head(darts[-1]) == 15
        for a, b in zip(darts, darts[1:]):
            assert g.head(a) == g.tail(b)


class TestPropertyBased:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_flows_match_networkx(self, seed):
        rng = random.Random(seed)
        g = randomize_weights(
            random_planar(20 + seed % 20, seed=seed % 30, keep=0.9),
            seed=seed, directed_capacities=True)
        s, t = rng.sample(range(g.n), 2)
        ref = flow_value_networkx(g, s, t, directed=True)
        res = max_st_flow(g, s, t, directed=True,
                          leaf_size=10 + seed % 8)
        assert res.value == ref
        validate_flow(g, s, t, res.flow, res.value, directed=True)
