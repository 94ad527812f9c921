import numpy as np
import pytest

from mixedsde import GridResourceError, TimeGrid, refine_dyadic
from mixedsde.grid import MAX_STEPS, _integer


def test_nodes_uniform_and_exact():
    g = TimeGrid(1.0, 4)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.delta == 0.25
    assert g.nodes[0] == 0.0 and g.nodes[-1] == g.horizon


def test_refinement_contains_coarse_nodes_bit_for_bit():
    g = TimeGrid(0.7, 12)  # horizon with no exact binary representation of T/n
    for m in (1, 2, 5):
        fine = refine_dyadic(g, m)
        assert np.array_equal(fine.nodes[:: 1 << m], g.nodes)


def test_refine_composition():
    g = TimeGrid(1.0, 4)
    twice = refine_dyadic(refine_dyadic(g, 1), 1)
    once = refine_dyadic(g, 2)
    assert twice == once
    assert np.array_equal(twice.nodes, once.nodes)


def test_refine_rejects_m_zero():
    with pytest.raises(ValueError):
        refine_dyadic(TimeGrid(1.0, 4), 0)
    with pytest.raises(ValueError, match="must be an integer, got True"):
        refine_dyadic(TimeGrid(1.0, 4), True)


def test_refine_resource_error():
    with pytest.raises(GridResourceError):
        refine_dyadic(TimeGrid(1.0, MAX_STEPS // 2 + 1), 1)
    assert refine_dyadic(TimeGrid(1.0, 1), 24).n == MAX_STEPS
    for m in (25, 10**9):  # refused before the shift, which at 10**9 would build a 125 MB integer
        with pytest.raises(ValueError, match=f"refinement exponent m={m} exceeds 24"):
            refine_dyadic(TimeGrid(1.0, 1), m)


def test_floor_property():
    g = TimeGrid(1.0, 4)
    fine = refine_dyadic(g, 3)
    rng = np.random.default_rng(0)
    for u in rng.uniform(0.0, 1.0, 200):
        k = fine.floor_index(u)
        assert fine.nodes[k] <= u < fine.nodes[k] + fine.delta


def test_floor_index_at_nodes():
    g = TimeGrid(1.0, 8)
    for k, t in enumerate(g.nodes):
        assert g.floor_index(t) == k
    # one ulp below a node is the node before it; T is node n, also where n*T/n rounds above T (0.9, 89)
    for g in (g, TimeGrid(0.3, 12), TimeGrid(0.7, 64), TimeGrid(0.9, 89)):
        assert g.floor_index(g.nodes[:-1]).tolist() == list(range(g.n))
        assert g.floor_index(np.nextafter(g.nodes[1:-1], -np.inf)).tolist() == list(range(g.n - 1))
        assert g.floor_index(g.horizon) == g.n


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, -0.1, 1.1])
def test_floor_index_rejects_times_outside_the_horizon(u):
    g = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match=r"time must lie in \[0.0, 1.0\], got"):
        g.floor_index(u)
    with pytest.raises(ValueError, match=r"time must lie in \[0.0, 1.0\], got"):
        g.floor_index(np.array([0.5, u]))


def test_invalid_grids():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError, match="step count must be an integer, got True"):
        TimeGrid(1.0, True)
    # past Python's 4300-digit str limit the messages state the bit length
    with pytest.raises(GridResourceError, match="n=<a 16610-bit integer> exceeds MAX_STEPS"):
        TimeGrid(1.0, 10**5000)
    with pytest.raises(ValueError, match="paths=<a 16610-bit integer> exceeds 5"):
        _integer("paths", 10**5000, high=5)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 8).refinement_stride(TimeGrid(1.0, 12))


def test_node_index_resolves_and_rejects():
    g = TimeGrid(1.0, 8)
    assert g.node_index(g.nodes[3]) == 3
    with pytest.raises(ValueError):
        g.node_index(0.3)
    for u in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="is not a node of this grid"):
            g.node_index(u)


@pytest.mark.parametrize("horizon", [True, "1", None])
def test_horizon_must_be_a_number(horizon):
    with pytest.raises(ValueError, match=rf"horizon must be a number, got {horizon!r}"):
        TimeGrid(horizon, 4)


def test_python_and_numpy_numbers_are_horizons():
    assert TimeGrid(1, 4) == TimeGrid(np.float64(1.0), 4) == TimeGrid(np.int64(1), 4) == TimeGrid(1.0, 4)
