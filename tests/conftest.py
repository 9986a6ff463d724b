import pytest

from drhwsim.design_time import build_store
from drhwsim.model import Subtask, Task, Workload, make_scenario

R = 4.0

# One (criterion, verdict, detail) triple per acceptance test; printed as a
# summary block after the run.
acceptance_verdicts = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for n, verdict, detail in sorted(acceptance_verdicts):
        terminalreporter.write_line(f"CRITERION {n} {verdict}: {detail}")


def chain4_scenario():
    """Four-subtask chain, 10 ms each, alternating virtual tiles A and B."""
    subs = [Subtask(1, 10.0, "DRHW", "A"), Subtask(2, 10.0, "DRHW", "B"),
            Subtask(3, 10.0, "DRHW", "A"), Subtask(4, 10.0, "DRHW", "B")]
    return make_scenario("s0", subs, [(1, 2), (2, 3), (3, 4)],
                         {"A": [1, 3], "B": [2, 4]})


@pytest.fixture
def chain4():
    return chain4_scenario()


@pytest.fixture
def chain4_workload():
    return Workload((Task("chain4", (chain4_scenario(),)),))


@pytest.fixture
def chain4_store(chain4_workload):
    return build_store(chain4_workload, R)


@pytest.fixture
def chain4_entry(chain4_store):
    return chain4_store.entry("chain4", "s0")
