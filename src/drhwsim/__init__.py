"""Configuration-prefetch scheduling simulator for reconfigurable hardware."""

__version__ = "0.1.0"

from .model import (DRHW, ISP, Scenario, Subtask, SubtaskGraph, Task,
                    Workload, load_workload, make_scenario, save_workload,
                    validate)
from .engine import (PenaltyReport, TimedSchedule, compute_penalty,
                     place_loads, schedule_list_heuristic,
                     schedule_no_prefetch, schedule_optimal_bb)
from .design_time import (DesignTimeEntry, ScheduleStore, build_store,
                          extract_critical_subtasks, load_store, save_store)
from .runtime import (HYBRID, MODES, ResidencyMap, RuntimeDecision,
                      execute_task_instance, intertask_prefetch, reuse_scan)
from .sim import (Metrics, SimConfig, hidden_pct, overhead_pct,
                  run_simulation, select_iteration)
from .workloads import (GenParams, gen_task, gen_workload, preset_pocketgl,
                        preset_table1)
