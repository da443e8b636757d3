"""DAG and trace analytics: the wave kernels against the loop oracles.

The level-synchronous NumPy kernels behind ``TaskDAG.critical_path``,
``topological_order``, ``width_profile`` and the composite-process idle
merge of ``Trace`` must reproduce the per-task loops in
:mod:`tests.oracles.dag_loops` bit for bit.  The cases the kernels could
get wrong by accident are generated on purpose: ids that are not
topologically numbered, duplicate edges, isolated and zero-cost tasks,
the empty DAG and a single task.  The cache contract of
``critical_path`` (read-only, computed once per DAG) is checked too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flusim import ClusterConfig, schedule_metrics, simulate
from repro.flusim.trace import Trace
from repro.pipeline.stages import TaskGraphStage
from repro.taskgraph import TaskDAG
from repro.taskgraph.task import TaskArrays
from tests.oracles.dag_loops import (
    critical_path_ref,
    process_active_intervals_ref,
    process_idle_time_ref,
    topological_order_ref,
    total_process_idle_fraction_ref,
    width_profile_ref,
)


def make_dag(costs, edges) -> TaskDAG:
    n = len(costs)
    tasks = TaskArrays(
        subiteration=np.zeros(n, dtype=np.int32),
        phase_tau=np.zeros(n, dtype=np.int32),
        obj_type=np.zeros(n, dtype=np.int8),
        locality=np.zeros(n, dtype=np.int8),
        domain=np.zeros(n, dtype=np.int32),
        process=np.zeros(n, dtype=np.int32),
        num_objects=np.ones(n, dtype=np.int64),
        cost=np.asarray(costs, dtype=np.float64) + 0.0,  # no -0.0
    )
    return TaskDAG(tasks=tasks, edges=np.asarray(edges, dtype=np.int64))


@st.composite
def relabelled_dags(draw, max_tasks: int = 30) -> TaskDAG:
    """A random DAG whose ids are randomly permuted (so ``pred < succ``
    no longer holds), with duplicate edges, isolated tasks and zero
    costs all reachable."""
    n = draw(st.integers(min_value=0, max_value=max_tasks))
    cost = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=1, max_value=9).map(float),
    )
    costs = draw(st.lists(cost, min_size=n, max_size=n))
    pairs = []
    if n >= 2:
        pair = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda uv: uv[0] != uv[1])
        pairs = draw(st.lists(pair, max_size=4 * n))
        if pairs and draw(st.booleans()):
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
    edges = np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return make_dag(costs, perm[edges] if n else edges)


def assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestWaveKernelDifferential:
    @given(relabelled_dags())
    @settings(max_examples=200, deadline=None)
    def test_critical_path_bit_identical(self, dag):
        cp, bl = dag.critical_path()
        cp_ref, bl_ref = critical_path_ref(dag)
        assert cp == cp_ref and type(cp) is float
        assert_bit_equal(bl, bl_ref)

    @given(relabelled_dags())
    @settings(max_examples=200, deadline=None)
    def test_width_profile_bit_identical(self, dag):
        assert_bit_equal(dag.width_profile(), width_profile_ref(dag))

    @given(relabelled_dags())
    @settings(max_examples=200, deadline=None)
    def test_topological_order_is_edge_respecting_permutation(self, dag):
        order = dag.topological_order()
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(dag.num_tasks))
        pos = np.empty(dag.num_tasks, dtype=np.int64)
        pos[order] = np.arange(dag.num_tasks)
        assert np.all(pos[dag.edges[:, 0]] < pos[dag.edges[:, 1]])
        assert len(topological_order_ref(dag)) == dag.num_tasks

    def test_empty_dag(self):
        dag = make_dag([], np.empty((0, 2)))
        assert dag.critical_path()[0] == 0.0
        assert len(dag.critical_path()[1]) == 0
        assert len(dag.topological_order()) == 0
        assert_bit_equal(dag.width_profile(), width_profile_ref(dag))

    def test_single_task(self):
        dag = make_dag([3.5], np.empty((0, 2)))
        cp, bl = dag.critical_path()
        assert cp == 3.5
        assert_bit_equal(bl, np.array([3.5]))
        assert_bit_equal(dag.width_profile(), np.array([1]))
        assert_bit_equal(dag.topological_order(), np.array([0]))

    def test_real_task_graph(self, cube_dag_mc):
        cp, bl = cube_dag_mc.critical_path()
        cp_ref, bl_ref = critical_path_ref(cube_dag_mc)
        assert cp == cp_ref
        assert_bit_equal(bl, bl_ref)
        assert_bit_equal(
            cube_dag_mc.width_profile(), width_profile_ref(cube_dag_mc)
        )


class TestCycles:
    CYCLIC = {
        # An acyclic chain 0→1→2 with a 2-cycle 3⇄4 hanging off it.
        "two_cycle_off_acyclic_part": (
            5,
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 3]],
        ),
        # Every task has a successor: no sink at all.
        "no_sink": (3, [[0, 1], [1, 2], [2, 0]]),
    }

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    @pytest.mark.parametrize(
        "call",
        [
            lambda d: d.topological_order(),
            lambda d: d.critical_path(),
            lambda d: d.width_profile(),
            lambda d: d.validate(),
        ],
        ids=[
            "topological_order", "critical_path", "width_profile", "validate"
        ],
    )
    def test_cycle_raises(self, name, call):
        n, edges = self.CYCLIC[name]
        dag = make_dag(np.ones(n), edges)
        with pytest.raises(ValueError, match="task graph contains a cycle"):
            call(dag)


class TestCriticalPathCache:
    def test_read_only_and_same_objects(self, cube_dag_sc):
        first = cube_dag_sc.critical_path()
        second = cube_dag_sc.critical_path()
        assert first is second
        assert first[1] is second[1]
        assert not first[1].flags.writeable
        with pytest.raises(ValueError):
            first[1][0] = 0.0

    def test_cp_simulation_and_metrics_peel_once(
        self, cube_dag_sc, monkeypatch
    ):
        dag = TaskDAG(tasks=cube_dag_sc.tasks, edges=cube_dag_sc.edges)
        calls = []
        real = TaskDAG._waves

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(TaskDAG, "_waves", spy)
        trace = simulate(dag, ClusterConfig(4, 2), scheduler="cp")
        metrics = [schedule_metrics(dag, trace) for _ in range(4)]
        assert len(calls) == 1 and calls[0] is dag
        assert len({m.critical_path for m in metrics}) == 1

    def test_dag_rebuilt_from_stored_arrays_has_own_cache(self, cube_dag_sc):
        cp, bl = cube_dag_sc.critical_path()
        arrays, meta = TaskGraphStage.pack(cube_dag_sc)
        stored = {k: np.array(v) for k, v in arrays.items()}
        rebuilt = TaskGraphStage.unpack(stored, meta, None, None, None)
        cp2, bl2 = rebuilt.critical_path()
        assert bl2 is not bl
        assert cp2 == cp
        assert_bit_equal(bl2, np.asarray(bl))
        assert_bit_equal(bl2, critical_path_ref(rebuilt)[1])


@st.composite
def random_traces(draw) -> Trace:
    """Traces with nested intervals, zero-duration tasks, processes that
    run nothing, and gaps of exactly 1e-12 and just above."""
    nproc = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=0, max_value=40))
    proc = np.array(
        draw(st.lists(st.integers(0, nproc - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0])
    start = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
    dur = st.one_of(
        st.just(0.0),
        grid,
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    end = start + np.array(draw(st.lists(dur, min_size=n, max_size=n)))
    # Move some starts to exactly 1e-12 (merged) or just past it (new
    # interval) after another task's end.
    for i in range(n):
        j = draw(st.integers(0, n - 1))
        gap = draw(st.sampled_from([None, 1e-12, 1.5e-12, 0.0]))
        if gap is not None and i != j:
            width = end[i] - start[i]
            start[i] = end[j] + gap
            end[i] = start[i] + width
    return Trace(
        process=proc,
        worker=np.zeros(n, dtype=np.int32),
        start=start.astype(np.float64),
        end=end.astype(np.float64),
        num_processes=nproc,
        cores_per_process=1,
    )


class TestIdleMerge:
    @given(random_traces())
    @settings(max_examples=300, deadline=None)
    def test_idle_times_bit_identical(self, trace):
        want = np.array(
            [
                process_idle_time_ref(trace, p)
                for p in range(trace.num_processes)
            ],
            dtype=np.float64,
        )
        assert_bit_equal(trace.process_idle_times(), want)
        for p in range(trace.num_processes):
            assert trace.process_idle_time(p) == want[p]
            got_iv = trace.process_active_intervals(p)
            want_iv = process_active_intervals_ref(trace, p)
            assert got_iv.shape == want_iv.shape
            assert np.array_equal(got_iv, want_iv.reshape(-1, 2))
        assert (
            trace.total_process_idle_fraction()
            == total_process_idle_fraction_ref(trace)
        )

    def test_gap_of_exactly_epsilon_merges(self):
        trace = Trace(
            process=np.zeros(3, dtype=np.int32),
            worker=np.zeros(3, dtype=np.int32),
            start=np.array([0.0, 1.0 + 1e-12, 3.0]),
            end=np.array([1.0, 2.0, 3.0]),
            num_processes=2,
            cores_per_process=1,
        )
        ivals = trace.process_active_intervals(0)
        assert np.array_equal(
            ivals, process_active_intervals_ref(trace, 0)
        )
        assert len(ivals) == 2  # the zero-duration task stands alone
        assert trace.process_idle_times()[1] == trace.makespan

    def test_simulated_schedule(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 2), scheduler="cp")
        assert (
            trace.total_process_idle_fraction()
            == total_process_idle_fraction_ref(trace)
        )
