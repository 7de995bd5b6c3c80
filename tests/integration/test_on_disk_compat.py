"""On-disk state written while the max-flow solver, the engine and the
flow zero-tolerance were selectable still loads.

Sweep checkpoints, simulator journals, experiment-suite journals and the
serve write-ahead journal and cache snapshot are guarded by fingerprints
that once hashed the configured solver name, engine and ``zero_tol``.
They now hash the fixed ``"dinic"``, ``"columnar"`` and ``0.0`` in their
place; the values pinned here are what each fingerprint was for the same
input when those were the default choices, so state written then resumes
instead of being refused as foreign.  A corpus record that needs a value
the engine no longer offers is refused with a typed error.
"""

import pytest

from repro.analysis import sweep_fingerprint
from repro.engine import EngineContext, EngineSpec
from repro.exceptions import CorpusError
from repro.experiments.registry import _suite_fingerprint
from repro.graphs import ring
from repro.io import graph_to_dict
from repro.numeric import EXACT, FLOAT
from repro.oracle import FailureRecord, backend_to_dict, replay_record
from repro.serve import durability_fingerprint
from repro.sim import resolve_scenario, scenario_fingerprint


def test_fingerprints_match_the_selectable_solver_values():
    g = ring([1.0, 2.0, 3.0, 4.0])
    cells = [(g, v) for v in g.vertices()]
    assert sweep_fingerprint(cells, 12, EngineSpec()) == "ead3ebd6d79cd00d"
    exact = EngineSpec(backend=EXACT, cache_size=0)
    assert sweep_fingerprint(cells, 12, exact) == "c9063f58f9b993e1"
    assert scenario_fingerprint(
        resolve_scenario("EXP-S1"), EngineSpec()) == "86ff0293292c6acf"
    assert _suite_fingerprint(0, "smoke", EngineContext()) == "ab52313ed6d56272"
    assert durability_fingerprint(EngineSpec()) == (
        '{"backend":"float","durability_format":1,"engine":"columnar",'
        '"protocol":"repro-serve/1","solver":"dinic","zero_tol":0.0}')


def test_record_naming_a_removed_solver_is_refused_typed():
    rec = FailureRecord(
        kind="decomposition",
        problems=("recorded under push-relabel",),
        context={"solver": "push_relabel", "backend": backend_to_dict(FLOAT),
                 "zero_tol": 0.0, "level": "cheap"},
        payload={"graph": graph_to_dict(ring([1.0, 2.0, 3.0]))},
    )
    with pytest.raises(CorpusError, match="push_relabel"):
        replay_record(rec)


def test_record_needing_another_zero_tol_is_refused_typed():
    rec = FailureRecord(
        kind="decomposition",
        problems=("recorded at a positive flow tolerance",),
        context={"solver": "dinic", "backend": backend_to_dict(FLOAT),
                 "zero_tol": 1e-9, "level": "cheap"},
        payload={"graph": graph_to_dict(ring([1.0, 2.0, 3.0]))},
    )
    with pytest.raises(CorpusError, match="zero_tol"):
        replay_record(rec)
