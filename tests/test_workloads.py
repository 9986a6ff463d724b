import pytest

from drhwsim.model import DRHW, validate
from drhwsim.workloads import (PRESETS, GenParams, gen_task, gen_workload,
                               preset_pocketgl, preset_table1)


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_min=0)
    with pytest.raises(ValueError):
        GenParams(n_min=5, n_max=3)
    with pytest.raises(ValueError):
        GenParams(edge_density=1.5)
    with pytest.raises(ValueError):
        GenParams(exec_low=5.0, exec_high=1.0)
    with pytest.raises(ValueError):
        GenParams(slots=0)
    # A path of n_max subtasks at exec_high must not overflow.
    with pytest.raises(ValueError, match="bad exec range"):
        GenParams(n_min=3, n_max=4, exec_high=1e308)
    GenParams(n_min=3, n_max=4, exec_high=1e307)


def test_gen_task_always_valid():
    params = GenParams(n_min=3, n_max=10, scenarios=2, drhw_fraction=0.8)
    for seed in range(30):
        task = gen_task(params, seed)
        assert len(task.scenarios) == 2
        for sc in task.scenarios:
            assert validate(sc) == []
            n = len(sc.graph.subtasks)
            assert 3 <= n <= 10


def test_gen_task_deterministic():
    params = GenParams(n_min=4, n_max=6)
    assert gen_task(params, 7) == gen_task(params, 7)
    assert gen_task(params, 7) != gen_task(params, 8)


def test_gen_task_respects_exec_range():
    params = GenParams(n_min=5, n_max=5, exec_low=2.0, exec_high=3.0)
    task = gen_task(params, 1)
    for sc in task.scenarios:
        for s in sc.graph.subtasks:
            assert 2.0 <= s.exec_time <= 3.0


def test_gen_workload_shape():
    w = gen_workload(GenParams(n_min=3, n_max=5), n_tasks=3, seed=0)
    assert len(w.tasks) == 3
    assert w.feasible_combinations is None
    assert len({t.id for t in w.tasks}) == 3


def test_presets_registered():
    assert set(PRESETS) == {"table1", "pocketgl"}


def test_table1_aggregates():
    w = preset_table1(0)
    ideals = {t.id: {sc.id: sc.index.ideal for sc in t.scenarios}
              for t in w.tasks}
    assert ideals["pattern_rec"] == {"main": 94.0}
    assert ideals["jpeg_dec"] == {"main": 81.0}
    assert ideals["parallel_jpeg"] == {"main": 57.0}
    assert set(ideals["mpeg_enc"]) == {"I", "P", "B"}
    assert all(v == 33.0 for v in ideals["mpeg_enc"].values())
    for t in w.tasks:
        for sc in t.scenarios:
            assert validate(sc) == []


def test_pocketgl_shape_and_mean():
    w = preset_pocketgl(0)
    counts = {t.id: len(t.scenarios) for t in w.tasks}
    assert counts == {"t1": 7, "t2": 7, "t3": 6, "t4": 10, "t5": 4, "t6": 6}
    sizes = {t.id: len(t.scenarios[0].graph.subtasks) for t in w.tasks}
    assert sizes == {"t1": 2, "t2": 2, "t3": 1, "t4": 2, "t5": 1, "t6": 2}
    execs = [s.exec_time for t in w.tasks for sc in t.scenarios
             for s in sc.graph.subtasks]
    assert abs(sum(execs) / len(execs) - 5.7) < 1e-9
    assert all(0.2 <= e <= 30.0 for e in execs)
    assert len(w.feasible_combinations) == 20
    assert len(set(w.feasible_combinations)) == 20
    for combo in w.feasible_combinations:
        assert [tid for tid, _ in combo] == [t.id for t in w.tasks]
    for t in w.tasks:
        for sc in t.scenarios:
            assert validate(sc) == []
            assert all(s.target == DRHW for s in sc.graph.subtasks)


def test_pocketgl_deterministic():
    assert preset_pocketgl(0) == preset_pocketgl(0)


def test_gen_task_drhw_fraction_zero_means_isp_only():
    task = gen_task(GenParams(n_min=4, n_max=4, drhw_fraction=0.0), 2)
    for sc in task.scenarios:
        assert sc.index.drhw == ()
