"""The package's records: ``repr``, equality, hashing and ``_replace``.

The pinned ``repr`` strings are those of the same instances when the
records were dataclasses; every record kept that text, its equality and
its hashability.
"""

import itertools

import pytest

from drhwsim.design_time import DesignTimeEntry, ScheduleStore
from drhwsim.engine import PenaltyReport, TimedSchedule
from drhwsim.errors import DrhwError
from drhwsim.model import (DRHW, ISP, FrozenRecord, Subtask, SubtaskGraph,
                           Task, Workload, make_scenario)
from drhwsim.runtime import InstanceResult, RuntimeDecision
from drhwsim.sim import Metrics, SimConfig
from drhwsim.workloads import GenParams


def records():
    """One instance of every record class, built afresh on each call."""
    sub = Subtask(1, 2.5, DRHW, "A")
    graph = SubtaskGraph((sub, Subtask(2, 1.0, ISP, "ISP0")), ((1, 2),))
    scn = make_scenario("s", graph.subtasks, graph.edges,
                        {"A": [1], "ISP0": [2]})
    task = Task("t", (scn,))
    ts = TimedSchedule(7.5, ((1, "A", 4.0, 6.5), (2, "ISP0", 6.5, 7.5)),
                       ((1, "A", 0.0, 4.0),))
    entry = DesignTimeEntry("t", "s", (1,), (1,), (), (1,),
                            {1: 3.5, 2: 1.0}, 4.0)
    dec = RuntimeDecision({1: 0}, frozenset({1}), ((1, 0, 0.0, 4.0),),
                          {"A": 0}, (("t", 1, 1, 4.0, 8.0),))
    return [
        sub, graph, scn, task, Workload((task,), ((("t", "s"),),)), ts,
        PenaltyReport(4.0, frozenset({1}), (1,), ts, 3), entry,
        ScheduleStore(4.0, {("t", "s"): entry}), dec,
        InstanceResult("t", "s", 0.0, 7.5, ts, 4.0, dec, 8.0),
        SimConfig((4, 5), iterations=10),
        Metrics("Hybrid", 1.0, 2.0, 3, 1, 4, 0), GenParams(),
    ]


SUB = "Subtask(id=1, exec_time=2.5, target='DRHW', slot='A')"
GRAPH = (f"SubtaskGraph(subtasks=({SUB}, Subtask(id=2, exec_time=1.0, "
         "target='ISP', slot='ISP0')), edges=((1, 2),))")
SCN = f"Scenario(id='s', graph={GRAPH}, schedule=(('A', (1,)), ('ISP0', (2,))))"
TASK = f"Task(id='t', scenarios=({SCN},))"
TS = ("TimedSchedule(makespan=7.5, execs=((1, 'A', 4.0, 6.5), "
      "(2, 'ISP0', 6.5, 7.5)), loads=((1, 'A', 0.0, 4.0),))")
ENTRY = ("DesignTimeEntry(task_id='t', scenario_id='s', critical=(1,), "
         "extraction_order=(1,), loads=(), noreuse_order=(1,), "
         "weights={1: 3.5, 2: 1.0}, penalty_noreuse=4.0)")
DEC = ("RuntimeDecision(reused={1: 0}, cancelled=frozenset({1}), "
       "init_loads=((1, 0, 0.0, 4.0),), bindings={'A': 0}, "
       "prefetched=(('t', 1, 1, 4.0, 8.0),), cancelled_loads=())")
PINNED_REPRS = [
    SUB, GRAPH, SCN, TASK,
    f"Workload(tasks=({TASK},), feasible_combinations=((('t', 's'),),))",
    TS,
    f"PenaltyReport(penalty=4.0, delayed=frozenset({{1}}), order=(1,), "
    f"schedule={TS}, nodes=3)",
    ENTRY,
    f"ScheduleStore(latency=4.0, entries={{('t', 's'): {ENTRY}}})",
    DEC,
    f"InstanceResult(task_id='t', scenario_id='s', start=0.0, end=7.5, "
    f"relative={TS}, offset=4.0, decision={DEC}, ctrl_free=8.0)",
    "SimConfig(tiles=(4, 5), iterations=10, seed=0, modes=('NoPrefetch', "
    "'DesignTimePrefetch', 'RuntimeHeuristic', 'RuntimeInterTask', "
    "'Hybrid'), trace=False, all_tasks=False)",
    "Metrics(mode='Hybrid', ideal_total=1.0, actual_total=2.0, "
    "drhw_instances=3, reused_instances=1, loads_issued=4, loads_cancelled=0)",
    "GenParams(n_min=4, n_max=10, exec_low=1.0, exec_high=10.0, "
    "edge_density=0.3, drhw_fraction=1.0, slots=3, scenarios=1)",
]
# The records that were mutable dataclasses, and so unhashable.
MUTABLE = (DesignTimeEntry, ScheduleStore, RuntimeDecision, InstanceResult)


def test_every_record_keeps_its_repr():
    assert [repr(r) for r in records()] == PINNED_REPRS


@pytest.mark.parametrize("a,b", zip(records(), records()),
                         ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(a, b):
    assert a is not b and a == b and not a != b
    assert a._replace() == a
    if isinstance(a, MUTABLE):
        assert not isinstance(a, FrozenRecord)
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], getattr(b, b._fields[0]))


def test_records_of_different_types_never_compare_equal():
    # Three records whose fields hold the same values, ((), ()).
    same_values = [SubtaskGraph((), ()), Task((), ()), Workload((), ())]
    for a, b in itertools.combinations(records() + same_values, 2):
        assert a != b and b != a
    for r in same_values:
        assert r != ((), ()) and ((), ()) != r
    assert SubtaskGraph((), ()) != SubtaskGraph((), ((1, 2),))


def test_replace_validates_as_the_constructor_does():
    with pytest.raises(DrhwError, match="at least one tile count"):
        SimConfig(tiles=(4, 5))._replace(tiles=())
    with pytest.raises(ValueError, match="bad subtask count range"):
        GenParams()._replace(n_min=0)
    with pytest.raises(TypeError):
        Metrics("Hybrid")._replace(no_such_field=1)
    assert SimConfig(tiles=(4,))._replace(seed=3) == SimConfig((4,), seed=3)
