import numpy as np
import pytest

from weakpathlab.core_paths import (
    DiscretePath,
    PathMode,
    TimeGrid,
    eval_path,
    make_uniform_grid,
    refine_grid,
    restrict,
    sup_norm,
    vertical_bump,
)
from weakpathlab.errors import InvalidArgumentError, OutOfRangeError


def path(values, T=None, mode=PathMode.LINEAR):
    values = np.asarray(values, dtype=float)
    grid = make_uniform_grid(T if T is not None else 1.0, values.size - 1)
    return DiscretePath(grid, values, mode)


class TestMakeUniformGrid:
    def test_quarters(self):
        g = make_uniform_grid(1.0, 4)
        assert np.allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.mesh == 0.25

    def test_single_step(self):
        g = make_uniform_grid(1.0, 1)
        assert list(g.nodes) == [0.0, 1.0]
        assert g.mesh == 1.0

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_uniform_grid(0.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_uniform_grid(1.0, 0)

    def test_mesh_is_computed_max_gap(self):
        g = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
        assert g.mesh == 0.6


class TestRefineGrid:
    def test_nodes_preserved_bitwise(self):
        g = make_uniform_grid(1.0, 5)
        fine = refine_grid(g, 8)
        assert fine.n_intervals == 40
        idx = fine.indices_of_subgrid(g)
        assert np.array_equal(fine.nodes[idx], g.nodes)
        assert fine.is_refinement_of(g)

    def test_non_nested_detected(self):
        a = make_uniform_grid(1.0, 3)
        b = make_uniform_grid(1.0, 4)
        assert not b.is_refinement_of(a)
        with pytest.raises(InvalidArgumentError):
            b.indices_of_subgrid(a)


class TestEvalPath:
    def test_linear_midpoint(self):
        assert eval_path(path([0.0, 1.0]), 0.5) == 0.5

    def test_cadlag_left_value(self):
        assert eval_path(path([0.0, 1.0], mode=PathMode.CADLAG_STEP), 0.5) == 0.0

    @pytest.mark.parametrize("mode", [PathMode.LINEAR, PathMode.CADLAG_STEP])
    def test_node_values_exact(self, mode):
        rng = np.random.default_rng(0)
        p = path(rng.standard_normal(9), mode=mode)
        for k, t in enumerate(p.grid.nodes):
            assert eval_path(p, t) == p.values[k]

    def test_out_of_range(self):
        p = path([0.0, 1.0])
        with pytest.raises(OutOfRangeError):
            eval_path(p, 1.5)
        with pytest.raises(OutOfRangeError):
            eval_path(p, -0.1)

    def test_vectorized(self):
        p = path([0.0, 2.0, 0.0])
        out = eval_path(p, np.array([0.25, 0.5, 0.75]))
        assert np.allclose(out, [1.0, 2.0, 1.0])


class TestRestrict:
    def test_full_restriction_is_identity(self):
        p = path([1.0, 2.0, 3.0])
        q = restrict(p, 1.0)
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.grid.nodes, p.grid.nodes)

    def test_restrict_to_zero(self):
        p = path([1.0, 2.0, 3.0])
        q = restrict(p, 0.0)
        assert q.grid.nodes.size == 1 and q.values[0] == 1.0

    def test_non_node_rejected(self):
        p = path([0.0, 1.0, 2.0, 3.0, 4.0])  # nodes multiples of 0.25
        with pytest.raises(InvalidArgumentError):
            restrict(p, 0.3)

    def test_idempotent(self):
        p = path(np.arange(9.0))
        q = restrict(p, 0.5)
        r = restrict(q, 0.5)
        assert np.array_equal(q.values, r.values)


class TestSupNorm:
    def test_zero_path(self):
        assert sup_norm(path([0.0, 0.0, 0.0])) == 0.0

    def test_magnitude(self):
        assert sup_norm(path([1.0, -3.0, 2.0])) == 3.0

    def test_prefix_monotone(self):
        rng = np.random.default_rng(1)
        p = path(rng.standard_normal(17))
        for t in p.grid.nodes:
            assert sup_norm(restrict(p, t)) <= sup_norm(p)

    def test_matches_nodewise_eval(self):
        rng = np.random.default_rng(2)
        p = path(rng.standard_normal(9))
        nodewise = max(abs(eval_path(p, t)) for t in p.grid.nodes)
        assert sup_norm(p) == nodewise


class TestVerticalBump:
    def test_zero_bump_equal_as_cadlag(self):
        p = path([1.0, 2.0])
        q = vertical_bump(p, 0.0)
        assert q.mode is PathMode.CADLAG_STEP
        assert np.array_equal(q.values, p.values)

    def test_last_value_incremented(self):
        q = vertical_bump(path([1.0, 2.0]), 0.5)
        assert list(q.values) == [1.0, 2.5]

    def test_inverse(self):
        p = path([1.0, 2.0, -1.0])
        q = vertical_bump(vertical_bump(p, 0.7), -0.7)
        assert np.allclose(q.values, p.values)

    def test_only_final_time_changes(self):
        p = path([1.0, 2.0, -1.0, 0.5], mode=PathMode.CADLAG_STEP)
        q = vertical_bump(p, 3.0)
        ts = np.linspace(0.0, 1.0, 41)[:-1]  # strictly below the final node
        before_last = ts[ts < p.grid.nodes[-1]]
        assert np.array_equal(eval_path(p, before_last), eval_path(q, before_last))
        assert eval_path(q, 1.0) == eval_path(p, 1.0) + 3.0


class TestValidation:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([0.1, 1.0]))

    def test_grid_strictly_increasing(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_value_count_must_match(self):
        g = make_uniform_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError):
            DiscretePath(g, np.zeros(4))

    def test_values_must_be_finite(self):
        g = make_uniform_grid(1.0, 1)
        with pytest.raises(InvalidArgumentError):
            DiscretePath(g, np.array([0.0, np.inf]))

    def test_immutability(self):
        p = path([0.0, 1.0])
        with pytest.raises(ValueError):
            p.values[0] = 5.0
        with pytest.raises(ValueError):
            p.grid.nodes[0] = 5.0
