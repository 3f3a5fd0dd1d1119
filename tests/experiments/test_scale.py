"""The churn+chaos scale scenario (``repro scale``), pinned.

The expected counts and node-stats digests were recorded from the
space-partitioned kernel the scenario first ran on; the single-heap
port reproduces them exactly. A change to the actor shim, the link
delays, the per-actor RNGs or the horizon shows up here as drift.
"""

import hashlib
import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import shard_scale

#: seed -> (report counts, sha256 of the sorted node-stats JSON [:16])
PINNED = {
    0: ({"events": 13_619, "messages_sent": 10_432, "departed": 1,
         "dropped_to_departed": 1, "completed_rounds": 1_561,
         "ok_rounds": 1_342, "partial_rounds": 219, "failed_rounds": 0,
         "chaos_dropped": 273}, "f9ca3af3ebd636b0"),
    1: ({"events": 13_550, "messages_sent": 10_402, "departed": 1,
         "dropped_to_departed": 7, "completed_rounds": 1_554,
         "ok_rounds": 1_303, "partial_rounds": 250, "failed_rounds": 1,
         "chaos_dropped": 286}, "6d4dc5766671ed26"),
}


def _node_stats_digest(report):
    encoded = json.dumps(report["node_stats"], sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_counts_and_node_stats(seed):
    counts, digest = PINNED[seed]
    report = shard_scale.run(num_nodes=300, duration=6.0, seed=seed,
                             collect_node_stats=True)
    assert {key: report[key] for key in counts} == counts
    assert _node_stats_digest(report) == digest
    assert report["events_per_sec"] > 0


def test_seed_actually_changes_the_run():
    first = shard_scale.run(num_nodes=60, duration=3.0, seed=0,
                            collect_node_stats=True)
    second = shard_scale.run(num_nodes=60, duration=3.0, seed=1,
                             collect_node_stats=True)
    assert first["node_stats"] != second["node_stats"]


def test_departed_nodes_stop_and_drop_traffic():
    # Half the overlay crashes in [1, 2) s; a first round starts in
    # [0, 1) and rounds repeat every second, so a churned node runs at
    # most two rounds while a survivor runs all four.
    report = shard_scale.run(num_nodes=80, duration=4.0, seed=2,
                             churn_fraction=0.5, churn_start=1.0,
                             churn_window=1.0, collect_node_stats=True)
    stats = report["node_stats"].values()
    churned = [node for node in stats if node["was_churned"]]
    survivors = [node for node in stats if not node["was_churned"]]
    assert report["departed"] == len(churned) > 0
    assert report["dropped_to_departed"] > 0
    assert max(node["queries"] for node in churned) <= 2
    assert min(node["queries"] for node in survivors) == 4


def test_report_json_identical_for_identical_arguments():
    kwargs = dict(num_nodes=120, duration=3.0, seed=5,
                  collect_node_stats=True)
    first = shard_scale.report_json(shard_scale.run(**kwargs))
    second = shard_scale.report_json(shard_scale.run(**kwargs))
    assert first == second
    assert "wall_seconds" not in first


def test_scenario_rejects_unknown_knobs():
    with pytest.raises(TypeError):
        shard_scale.run(num_nodes=10, duration=0.5, bogus_knob=1)


@pytest.mark.parametrize("kwargs", [dict(num_nodes=1, duration=1.0),
                                    dict(num_nodes=10, duration=0.0)])
def test_degenerate_runs_rejected(kwargs):
    with pytest.raises(ValueError):
        shard_scale.run(**kwargs)


def test_cli_scale_json(capsys):
    assert cli_main(["scale", "--nodes", "40", "--duration", "2",
                     "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"]["num_nodes"] == 40
    assert report["events"] > 0
