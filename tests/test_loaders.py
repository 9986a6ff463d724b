"""Fuzz property: a loader either loads a document or raises its own error.

Any JSON value, and any mutation of a valid workload or store document,
must come back from ``workload_from_dict`` / ``store_from_dict`` as a
value or as ``WorkloadFormatError`` / ``StoreFormatError``; no other
exception may escape, and the CLI turns the error into exit code 2.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drhwsim.cli import main
from drhwsim.design_time import build_store, store_from_dict, store_to_dict
from drhwsim.errors import StoreFormatError, WorkloadFormatError
from drhwsim.model import workload_from_dict, workload_to_dict
from drhwsim.workloads import preset_table1

TABLE1 = preset_table1(0)
WORKLOAD_DOC = workload_to_dict(TABLE1)
STORE_DOC = store_to_dict(build_store(TABLE1, 4.0))

# Values a hand-edited document is likely to hold, next to arbitrary ones.
EDGE_VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 1.5, 10 ** 400, float("nan"), float("inf"),
    "", "1", "1.5", "nan", "drhw-workload/1", "drhw-store/2", [], {}, [1],
    [1, 2, 3]])
JSON_VALUES = st.recursive(
    EDGE_VALUES | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutations(draw, doc):
    """``doc`` with one to three nodes replaced by a JSON value or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        if draw(st.booleans()):
            parent[key] = copy.deepcopy(draw(JSON_VALUES))
        else:
            del parent[key]
    return doc


def _loads_or_raises(loader, error, doc):
    try:
        loader(doc)
    except error:
        pass


@settings(max_examples=150, deadline=None)
@given(doc=JSON_VALUES | mutations(WORKLOAD_DOC))
def test_workload_loader_raises_only_its_error(doc):
    _loads_or_raises(workload_from_dict, WorkloadFormatError, doc)


@settings(max_examples=150, deadline=None)
@given(doc=JSON_VALUES | mutations(STORE_DOC))
def test_store_loader_raises_only_its_error(doc):
    _loads_or_raises(store_from_dict, StoreFormatError, doc)


@settings(max_examples=25, deadline=None)
@given(doc=mutations(WORKLOAD_DOC))
def test_cli_exits_2_on_a_malformed_workload(doc):
    try:
        workload_from_dict(doc)
    except WorkloadFormatError:
        pass
    else:
        assume(False)       # still a valid workload
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        path = os.path.join(tmp, "w.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["analyze", path, "--out", os.path.join(tmp, "s.json")]) == 2
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
