"""Golden behaviour oracle: sha256 digests of seeded paper artefacts.

Each artefact is a reduced-scale, seeded run of a paper table or figure,
of the chaos matrix, of the flight-recorder soak, or of one traced
search. Its output is encoded canonically and hashed; the digests are
committed in ``digests.json`` next to this file. A refactor that claims
"no observable change" must leave every digest as it is; a change that
moves one re-baselines it with a reason line in CHANGES.md::

    PYTHONPATH=src python -m tests.golden            # check, name drifts
    PYTHONPATH=src python -m tests.golden --update   # re-baseline

``tests/golden/test_golden.py`` runs the same check in tier-1, one test
per artefact, so a failure names the artefact that drifted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
from pathlib import Path
from typing import Any, Callable, Dict

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The canonical search of the single-search artefacts (the
#: ``repro obs`` default query, on 12 nodes at seed 7).
OBS_QUERY = "flu symptoms treatment"
OBS_NODES = 12
OBS_SEED = 7


def _plain(value: Any) -> Any:
    """Reduce a result to JSON types: dataclasses become dicts, tuples
    lists and mapping keys strings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical(value: Any) -> bytes:
    """The bytes an artefact is hashed from. Text (an already canonical
    report) is hashed as is; anything else is encoded as sorted-key
    JSON, whose floats are exact (``repr``) round-trips."""
    if isinstance(value, str):
        return value.encode("utf-8")
    return json.dumps(_plain(value), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# -- artefacts ---------------------------------------------------------


def _table1():
    from repro.experiments import table1_properties
    return table1_properties.run(num_users=20, mean_queries=20,
                                 sample_size=40)


def _table2():
    from repro.experiments import table2_categorizer
    return table2_categorizer.run(30, 30, max_queries=300)


def _fig5():
    from repro.experiments import fig5_reidentification
    return fig5_reidentification.run(30, 30, max_queries=200)


def _fig6():
    from repro.experiments import fig6_accuracy
    return fig6_accuracy.run(30, 30, max_queries=60)


def _fig7():
    from repro.experiments import fig7_adaptive_k
    return fig7_adaptive_k.run(30, 30, max_queries=300)


def _fig8a():
    from repro.experiments import fig8a_latency
    return fig8a_latency.run(num_queries=15)


def _fig8b():
    from repro.experiments import fig8b_k_latency
    return fig8b_k_latency.run(k_values=(0, 3, 7), num_queries=12,
                               num_nodes=12, num_users=30)


def _fig8c():
    from repro.experiments import fig8c_throughput
    return fig8c_throughput.run(rates=(5000, 40000), duration=0.2)


def _fig8d():
    from repro.experiments import fig8d_ratelimit
    return fig8d_ratelimit.run(num_users=20, duration_minutes=20,
                               num_cyclosa_nodes=20)


def _chaos():
    from repro.faults import chaos
    return chaos.report_json(chaos.run_matrix())


@functools.lru_cache(maxsize=None)
def monitor_report() -> Dict[str, Any]:
    """The default ``repro monitor`` soak, run once per process from a
    clean obs state. The ``monitor`` artefact hashes it and
    ``tests/experiments/test_monitor.py`` checks its SLO verdict, so
    callers must not mutate it."""
    from repro import obs
    from repro.experiments import monitor

    obs.disable(reset=True)
    try:
        return monitor.run_scenario()
    finally:
        obs.disable(reset=True)


def _monitor():
    from repro.experiments import monitor
    return monitor.report_json(monitor_report())


@functools.lru_cache(maxsize=None)
def _obs_run() -> Dict[str, str]:
    """One ``repro obs --format jsonl`` trace, then the metrics
    snapshot of the same run (built once per process)."""
    from repro import obs
    from repro.cli import _cmd_obs

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _cmd_obs(OBS_QUERY, OBS_NODES, OBS_SEED, "jsonl")
    return {"trace": out.getvalue(),
            "metrics": obs.prometheus_snapshot(obs.get_registry())}


def _obs_trace():
    return _obs_run()["trace"]


def _obs_metrics():
    return _obs_run()["metrics"]


def _wire():
    """The wiretap fingerprint of one canonical search, drained so the
    fake legs' responses are on it too."""
    from repro.core.client import CyclosaNetwork
    from repro.net.trace import MessageTrace
    from repro.obs.audit import wire_fingerprint

    deployment = CyclosaNetwork.create(num_nodes=OBS_NODES, seed=OBS_SEED)
    with MessageTrace(deployment.network) as tap:
        result = deployment.node(0).search(OBS_QUERY)
        deployment.run(60.0)
    return {"status": result.status, "k": result.k,
            "hits": result.documents, "wire": wire_fingerprint(tap)}


#: name -> builder. Each builder runs on a fresh, disabled obs state.
ARTEFACTS: Dict[str, Callable[[], Any]] = {
    "table1": _table1,
    "table2": _table2,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "fig8c": _fig8c,
    "fig8d": _fig8d,
    "chaos": _chaos,
    "monitor": _monitor,
    "obs_trace": _obs_trace,
    "obs_metrics": _obs_metrics,
    "wire_fingerprint": _wire,
}


def digest(name: str) -> str:
    """Build artefact *name* from a clean obs state and hash it."""
    from repro import obs

    obs.disable(reset=True)
    try:
        value = ARTEFACTS[name]()
    finally:
        obs.disable(reset=True)
    return hashlib.sha256(canonical(value)).hexdigest()


def load() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def save(digests: Dict[str, str]) -> None:
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                            + "\n")
