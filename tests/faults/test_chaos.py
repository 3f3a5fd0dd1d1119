"""Tests for repro.faults.chaos: the fault-matrix harness, its two
invariants, the byte-identical report guarantee, and the chaos gate:
every cell of the seeded matrix must end each search, keep relay legs
disjoint and meet its recorded success-rate floor (§VI-b)."""

import pytest

from repro.faults import chaos

pytestmark = pytest.mark.chaos

#: Matrix scale for tests: small but large enough that faults fire.
SCALE = dict(num_nodes=6, num_queries=2, seed=11)

#: Recorded success-rate floor per cell for the gate workload
#: (:func:`gate_report`). The matrix cells at this seed all complete at
#: 1.0 today (except the always-captcha storm cell, whose point is
#: *terminal* failure); the floors leave one-query headroom so a
#: legitimately unlucky future workload tweak fails loudly only when
#: recovery actually regressed. Simulated time, so machine-independent.
FLOORS = {
    "baseline": 1.0,
    "drop-forward": 0.75,
    "drop-response": 0.75,
    "slow-relays": 0.75,
    "duplicate-storm": 0.75,
    "corrupt-forward": 0.75,
    "crash-after-receive": 0.75,
    "attest-deny": 0.75,
    "ratelimit-storm": 0.0,
    "replica-crash": 0.75,
    "combo": 0.5,
}


@pytest.fixture(scope="module")
def gate_report():
    """The gate workload: the whole default matrix on 8 nodes, 4
    queries per cell, seeded deployment and fault plans."""
    return chaos.run_matrix(chaos.matrix_cells(None, plan_seed=3),
                            num_nodes=8, num_queries=4, seed=11)


class TestMatrixShape:
    def test_default_matrix_covers_every_fault_family(self):
        names = [cell.name for cell in chaos.default_matrix()]
        assert names[0] == "baseline"
        for expected in ("drop-forward", "slow-relays", "duplicate-storm",
                         "corrupt-forward", "crash-after-receive",
                         "attest-deny", "ratelimit-storm", "replica-crash",
                         "combo"):
            assert expected in names

    def test_matrix_cells_filters_in_matrix_order(self):
        cells = chaos.matrix_cells(["combo", "baseline"])
        assert [c.name for c in cells] == ["baseline", "combo"]

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            chaos.matrix_cells(["no-such-cell"])


class TestRunCell:
    def test_baseline_cell_succeeds_cleanly(self):
        row = chaos.run_cell(chaos.matrix_cells(["baseline"])[0], **SCALE)
        assert row["success_rate"] == 1.0
        assert row["hung_searches"] == 0
        assert row["disjointness_violations"] == 0
        assert row["faults_injected"] == {}

    def test_faulted_cell_terminates_every_search(self):
        row = chaos.run_cell(
            chaos.matrix_cells(["combo"], plan_seed=3)[0], **SCALE)
        # Faults actually fired, yet nothing hung and no real-query
        # retry ever reused a fake-leg relay (the §VI-b invariants).
        assert row["faults_injected"]
        assert sum(row["statuses"].values()) == row["queries"]
        assert row["hung_searches"] == 0
        assert row["disjointness_violations"] == 0

    def test_ratelimit_storm_fails_terminally_not_hangs(self):
        row = chaos.run_cell(
            chaos.matrix_cells(["ratelimit-storm"])[0], **SCALE)
        assert row["statuses"] == {"captcha": row["queries"]}
        assert row["hung_searches"] == 0


class TestDeterminism:
    def test_report_json_byte_identical_across_runs(self):
        def run():
            return chaos.report_json(chaos.run_matrix(
                chaos.matrix_cells(["baseline", "drop-forward", "combo"],
                                   plan_seed=3), **SCALE))

        assert run() == run()


class TestGate:
    @pytest.mark.parametrize(
        "name", [cell.name for cell in chaos.default_matrix()])
    def test_cell_holds_the_invariants_and_its_floor(self, gate_report,
                                                     name):
        row = next(r for r in gate_report["cells"] if r["cell"] == name)
        assert row["hung_searches"] == 0, \
            "a protected search never reached a terminal status"
        assert row["disjointness_violations"] == 0, \
            "a real-query retry reused a fake-leg relay"
        assert name in FLOORS, f"no recorded floor for {name!r}"
        assert row["success_rate"] >= FLOORS[name], (
            f"success rate {row['success_rate']:.2f} fell below the "
            f"recorded floor {FLOORS[name]:.2f}")

    def test_every_floor_names_a_cell(self, gate_report):
        cells = {row["cell"] for row in gate_report["cells"]}
        assert sorted(set(FLOORS) - cells) == [], "stale floors"
