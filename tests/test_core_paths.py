import numpy as np
import pytest

from weakpathlab.core_paths import (
    DiscretePath,
    TimeGrid,
    interpolate_values,
    make_uniform_grid,
    refine_grid,
    sup_norm,
)
from weakpathlab.errors import InvalidArgumentError


def path(values, T=None):
    values = np.asarray(values, dtype=float)
    grid = make_uniform_grid(T if T is not None else 1.0, values.size - 1)
    return DiscretePath(grid, values)


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


def at(p, t):
    """Path ``p`` read at times ``t``."""
    return interpolate_values(p.grid.nodes, p.values, t)


class TestInterpolateValues:
    def test_linear_midpoint(self):
        assert at(path([0.0, 1.0]), 0.5) == 0.5

    def test_node_values_exact(self):
        rng = np.random.default_rng(0)
        p = path(rng.standard_normal(9))
        assert np.array_equal(at(p, p.grid.nodes), p.values)

    def test_vectorized(self):
        p = path([0.0, 2.0, 0.0])
        out = at(p, np.array([0.25, 0.5, 0.75]))
        assert np.allclose(out, [1.0, 2.0, 1.0])

    def test_batch_rows_match_np_interp(self):
        rng = np.random.default_rng(3)
        nodes = make_uniform_grid(1.0, 8).nodes
        rows = rng.standard_normal((4, 9))
        t = np.sort(rng.uniform(0.0, 1.0, 11))
        want = [np.interp(t, nodes, r) for r in rows]
        assert np.allclose(interpolate_values(nodes, rows, t), want, rtol=1e-15, atol=1e-15)


class TestSupNorm:
    def test_zero_path(self):
        assert sup_norm(path([0.0, 0.0, 0.0])) == 0.0

    def test_magnitude(self):
        assert sup_norm(path([1.0, -3.0, 2.0])) == 3.0

    def test_prefix_monotone(self):
        rng = np.random.default_rng(1)
        p = path(rng.standard_normal(17))
        for i in range(p.grid.nodes.size):
            prefix = DiscretePath(TimeGrid(p.grid.nodes[: i + 1]), p.values[: i + 1])
            assert sup_norm(prefix) <= sup_norm(p)

    def test_matches_nodewise_eval(self):
        rng = np.random.default_rng(2)
        p = path(rng.standard_normal(9))
        t = np.linspace(0.0, 1.0, 65)
        assert sup_norm(p) == np.abs(at(p, t)).max()


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
