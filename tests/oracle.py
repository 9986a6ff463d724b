"""The test oracle of the exact load-order search: every permutation."""

import itertools

from drhwsim.engine import place_loads
from drhwsim.errors import OrderError, SearchLimitExceeded
from drhwsim.model import TIME_TOL

ORACLE_LIMIT = 8


def brute_force_oracle(scenario, load_set, R):
    """Exhaustive minimum over the permutations of ``load_set``, taken in
    sorted order, as (order, schedule); a later order wins only if it is
    shorter by more than ``TIME_TOL``.  It shares the timing rule of
    ``place_loads``, which its own tests check against one forward pass."""
    ls = frozenset(load_set)
    if len(ls) > ORACLE_LIMIT:
        raise SearchLimitExceeded(
            f"{len(ls)} loads exceed the oracle guard of {ORACLE_LIMIT}")
    best = None
    for perm in itertools.permutations(sorted(ls)):
        try:
            ts = place_loads(scenario, ls, perm, R)
        except OrderError:
            continue
        if best is None or ts.makespan < best[1].makespan - TIME_TOL:
            best = perm, ts
    if best is None:
        raise OrderError("no feasible load order exists (invalid scenario?)")
    return best
