"""Kernel backends: bit-identity, fallback, resolution, serialization.

The ``kernels`` namespace promises that every backend computes the
same thing — only the clock changes.  This suite holds the backends to
that promise at two levels: per-kernel (randomized array inputs
through each method, compared elementwise against the pure-Python
reference) and per-model (full NaSch / multilane trajectories under a
shared seed, and the channel's link rows over a backend's ring
trajectory against per-link reference loops).  Around the identity
core sit the plumbing tests: the removed ``numba`` and ``cjit`` names
warning once and resolving like ``auto`` (from a scenario file, a CA
``state_dict`` and a pickle too), case-insensitive registry
resolution, singleton caching, and pickling backends by name across a
journal boundary.
"""

import pickle
import warnings

import numpy as np
import pytest

import repro.kernels as kernels_pkg
from helpers import (
    REF_CELL,
    assert_rows_match_reference,
    assert_table_matches_reference,
    reference_channel,
)
from repro.ca.multilane import MultiLaneRoad
from repro.ca.nasch import Boundary, NagelSchreckenberg
from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.vector import VectorBackend
from repro.util.units import CELL_LENGTH_M


#: The built-in backends, plus the removed ``cjit`` name: it resolves
#: like ``auto``, and a saved artifact naming it must still compute
#: exactly what the reference does.
BACKEND_NAMES = ("python", "vector", "cjit")
REFERENCE = resolve_backend("python")


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return resolve_backend(request.param)


# -- per-kernel randomized equivalence ----------------------------------------


def _random_lane(rng, n, num_cells, v_max):
    pos = np.sort(rng.choice(num_cells, size=n, replace=False)).astype(
        np.int64
    )
    vel = rng.integers(0, v_max + 1, size=n).astype(np.int64)
    return pos, vel


@pytest.mark.parametrize("seed", range(5))
def test_nasch_step_matches_reference(backend, seed):
    rng = np.random.default_rng(seed)
    n, num_cells, v_max, p = 40, 200, 5, 0.3
    pos0, vel0 = _random_lane(rng, n, num_cells, v_max)
    draws = rng.random(n)

    states = []
    for impl in (REFERENCE, backend):
        pos, vel = pos0.copy(), vel0.copy()
        gaps = np.empty(n, dtype=np.int64)
        wrapped = np.empty(n, dtype=bool)
        bad = impl.nasch_step(
            pos, vel, gaps, wrapped, draws, True, p, v_max, num_cells
        )
        states.append((bad, pos, vel, gaps, wrapped))

    (bad_ref, *ref), (bad_obs, *obs) = states
    assert bad_obs == bad_ref == -1
    for ref_arr, obs_arr in zip(ref, obs):
        np.testing.assert_array_equal(obs_arr, ref_arr)


def test_nasch_step_single_vehicle_and_wrap(backend):
    """n=1 uses the full-ring gap, and wrap flags match the reference."""
    pos = np.array([198], dtype=np.int64)
    vel = np.array([3], dtype=np.int64)
    gaps = np.empty(1, dtype=np.int64)
    wrapped = np.empty(1, dtype=bool)
    draws = np.empty(0, dtype=np.float64)
    bad = backend.nasch_step(pos, vel, gaps, wrapped, draws, False, 0.0,
                             5, 200)
    assert bad == -1
    assert pos.tolist() == [2] and vel.tolist() == [4]
    assert gaps.tolist() == [199] and wrapped.tolist() == [True]


@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_cyclic_gaps_matches_reference(backend, n):
    rng = np.random.default_rng(n)
    num_cells = 60
    pos = np.sort(rng.choice(num_cells, size=n, replace=False)).astype(
        np.int64
    )
    np.testing.assert_array_equal(
        backend.cyclic_gaps(pos, num_cells),
        REFERENCE.cyclic_gaps(pos, num_cells),
    )


# -- link rows over a backend's trajectory -----------------------------------

#: Ring length in CA cells; laid out as a circle this spans ten grid
#: cells across, so rows really are culled.
RING_CELLS = 1000


def _ring_inputs(backend, seed):
    """A NaSch ring run under ``backend``, laid out as a circle about
    the origin (negative coordinates, every sixth vehicle snapped onto
    a cell edge), and a shuffled strict subset of its vehicles in
    registration order."""
    rng = np.random.default_rng(seed)
    start = np.sort(rng.choice(RING_CELLS, size=50, replace=False))
    model = NagelSchreckenberg(
        RING_CELLS, positions=start, p=0.3, rng=rng, kernels=backend
    )
    for _ in range(20):
        model.step()
    angle = 2.0 * np.pi * model.positions / RING_CELLS
    radius = RING_CELLS * CELL_LENGTH_M / (2.0 * np.pi)
    positions = radius * np.column_stack((np.cos(angle), np.sin(angle)))
    positions[::6] = np.round(positions[::6] / REF_CELL) * REF_CELL
    ids = rng.permutation(len(positions))[: rng.integers(1, len(positions))]
    return positions, ids


@pytest.mark.parametrize("seed", range(5))
def test_row_select_matches_reference(backend, seed):
    """Grid rows with two transmit powers over the backend's trajectory
    select and deliver what the per-link reference loops do."""
    positions, ids = _ring_inputs(backend, seed)
    channel = reference_channel(positions, ids, "grid", "mixed")
    assert_rows_match_reference(positions, ids, channel, "grid")


@pytest.mark.parametrize("seed", range(5))
def test_row_distances_and_filter_match_reference(backend, seed):
    positions, ids = _ring_inputs(backend, 100 + seed)
    channel = reference_channel(positions, ids, "grid", "mixed")
    assert_table_matches_reference(
        positions, ids, channel, "mixed", np.random.default_rng(100 + seed)
    )


# -- full-model trajectory identity -------------------------------------------


def _nasch_trajectory(kernels, steps=60):
    model = NagelSchreckenberg(
        num_cells=120, num_vehicles=30, p=0.3, v_max=5,
        boundary=Boundary.PERIODIC, rng=np.random.default_rng(7),
        kernels=kernels,
    )
    frames = []
    for _ in range(steps):
        model.step()
        frames.append(
            (model.positions.tolist(), model.velocities.tolist())
        )
    return frames


def _multilane_trajectory(kernels, steps=60):
    road = MultiLaneRoad(
        num_cells=100, num_lanes=2, vehicles_per_lane=[20, 15],
        p=0.25, v_max=5, p_change=0.8,
        rng=np.random.default_rng(13), kernels=kernels,
    )
    frames = []
    for _ in range(steps):
        road.step()
        frames.append(
            [
                (road.lane_positions(k).tolist(),
                 road.lane_ids(k).tolist())
                for k in range(road.num_lanes)
            ]
        )
    return frames


def test_nasch_trajectory_identical_across_backends(backend):
    assert _nasch_trajectory(backend) == _nasch_trajectory("python")


def test_multilane_trajectory_identical_across_backends(backend):
    assert _multilane_trajectory(backend) == _multilane_trajectory("python")


# -- resolution, fallback, caching --------------------------------------------


#: Names of removed backends that saved artifacts may still carry.
REMOVED_NAMES = ("numba", "cjit")


@pytest.fixture
def fresh_backends(monkeypatch):
    """Clear the backend caches so removed names resolve (and warn)
    afresh."""
    monkeypatch.setattr(kernels_pkg, "_BACKENDS", {})
    monkeypatch.setattr(kernels_pkg, "_WARNED", set())
    yield


def test_missing_numba_warns_once_and_falls_back(fresh_backends):
    """Removed backends' names stay accepted (saved scenarios load) and
    resolve like ``auto``."""
    for name in REMOVED_NAMES:
        with pytest.warns(RuntimeWarning, match=f"'{name}'.*falling back.*'auto'"):
            backend = resolve_backend(name)
        assert backend is resolve_backend("auto")
        # Second resolution: cached, silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = resolve_backend(name)
        assert again is backend


def test_missing_numba_fallback_is_bit_identical(fresh_backends):
    for name in REMOVED_NAMES:
        with pytest.warns(RuntimeWarning):
            fallen = resolve_backend(name)
        assert _nasch_trajectory(fallen) == _nasch_trajectory("python")


def test_auto_is_vector():
    assert isinstance(resolve_backend("auto"), VectorBackend)
    assert resolve_backend("auto").name == "vector"


def test_removed_cjit_state_dict_loads(fresh_backends):
    """A CA checkpoint written under ``kernels="cjit"`` restores onto
    ``auto`` and continues the same trajectory."""
    model = NagelSchreckenberg(
        num_cells=80, num_vehicles=20, p=0.3,
        rng=np.random.default_rng(5), kernels="python",
    )
    model.step()
    state = dict(model.state_dict(), kernels="cjit")
    with pytest.warns(RuntimeWarning, match="'cjit'"):
        restored = NagelSchreckenberg.from_state(state)
    assert restored.kernels is resolve_backend("auto")
    for _ in range(20):
        model.step()
        restored.step()
    assert restored.positions.tolist() == model.positions.tolist()
    assert restored.velocities.tolist() == model.velocities.tolist()


def test_removed_name_warning_points_at_the_caller(fresh_backends):
    """The warning names the first frame outside the package — here,
    this test — not the resolver that happened to read the old name."""
    for load in (
        lambda: resolve_backend("cjit"),
        lambda: NagelSchreckenberg(
            num_cells=20, num_vehicles=5, p=0.0,
            rng=np.random.default_rng(0), kernels="numba",
        ),
    ):
        with pytest.warns(RuntimeWarning) as caught:
            load()
        assert caught[0].filename == __file__

def test_removed_cjit_scenario_file_keeps_its_fingerprint(tmp_path):
    """A saved ``kernels="cjit"`` scenario loads unchanged, so journals
    fingerprinted from it still resume."""
    from repro.core.config import Scenario
    from repro.core.journal import campaign_fingerprint

    scenario = Scenario(kernels="cjit")
    path = str(tmp_path / "cjit.json")
    scenario.save(path)
    loaded = Scenario.load(path)
    assert loaded.kernels == "cjit"
    assert campaign_fingerprint(s=loaded.to_dict()) == campaign_fingerprint(
        s=scenario.to_dict()
    )


class _PickledCjit:
    """Stands in for a backend pickled before ``cjit`` was removed."""

    def __reduce__(self):
        from repro.kernels.base import _restore_backend

        return (_restore_backend, ("cjit",))


def test_removed_cjit_pickle_loads_with_one_warning(fresh_backends):
    payload = pickle.dumps(_PickledCjit())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = pickle.loads(payload)
        second = pickle.loads(payload)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert first is second is resolve_backend("auto")


def test_resolve_backend_normalizes_case_and_caches():
    assert resolve_backend("PYTHON") is resolve_backend("python")
    assert resolve_backend("Vector").name == "vector"


def test_resolve_backend_passes_instances_through():
    mine = VectorBackend()
    assert resolve_backend(mine) is mine


def test_unknown_backend_name_rejected():
    from repro.util.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown kernel backend"):
        resolve_backend("fortran")


# -- serialization ------------------------------------------------------------


def test_backends_pickle_by_name(backend):
    clone = pickle.loads(pickle.dumps(backend))
    assert isinstance(clone, KernelBackend)
    assert clone.name == backend.name
    assert clone is resolve_backend(backend.name)


def test_model_with_compiled_backend_pickles():
    """Journals pickle whole models; the backend must cross by name."""
    model = NagelSchreckenberg(
        num_cells=50, num_vehicles=10, p=0.2,
        rng=np.random.default_rng(3), kernels="auto",
    )
    model.step()
    clone = pickle.loads(pickle.dumps(model))
    assert clone.positions.tolist() == model.positions.tolist()
    clone.step()
    model.step()
    assert clone.positions.tolist() == model.positions.tolist()
