"""Smoke test of the benchmark at a small size: ``pytest bench/``.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Each
workload runs untraced and traced in separate subprocesses, well under
a minute together.
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: Budget seconds per run: every replay shrinks to the minimum of 16
#: searches.
SMALL = "0.2"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", SMALL, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        completed = _run(ROOT, workload, trace)
        assert completed.returncode == 0, (completed.stdout[-3000:]
                                           + completed.stderr[-3000:])
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {entry["name"]: entry["unit"] for entry in SPEC[key]}
        emitted = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
        assert emitted == expected
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_tampered_hits_fail_the_run(monkeypatch, capsys):
    from bench import run as run_script
    from bench import workloads

    measure = workloads.EngineMissWorkload.measure

    def tampered(self, system, inputs):
        outcome = measure(self, system, inputs)
        record = next(record for record in outcome.records
                      if record is not None and record["status"] == "ok")
        record["urls"] = record["urls"][1:] + ["https://tampered.example/"]
        return outcome

    monkeypatch.setattr(workloads.EngineMissWorkload, "measure", tampered)
    code = run_script.main(["--workload", "engine-miss", "--seed", "1",
                            "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_work_left_on_another_thread_fails_the_run(monkeypatch, capsys):
    from bench import run as run_script
    from bench import workloads

    measure = workloads.EngineMissWorkload.measure
    release = threading.Event()

    def threaded(self, system, inputs):
        threading.Thread(target=release.wait).start()
        return measure(self, system, inputs)

    monkeypatch.setattr(workloads.EngineMissWorkload, "measure", threaded)
    try:
        code = run_script.main(["--workload", "engine-miss", "--seed", "1",
                                "--seconds", "0.1", "--trace", "0"])
    finally:
        release.set()
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 0


def test_layer_split_check_sees_time_the_tracer_hides(monkeypatch):
    # Unattributed time is timed, not derived from the total, so time
    # spent between an outermost call's end and the tracer's return
    # fails the check. A clock that advances on every reading makes
    # that time a third of the phase.
    from bench import layers
    from bench import run as run_script

    assert run_script._import_program()
    ticks = itertools.count()
    monkeypatch.setattr(layers, "now", lambda: next(ticks) * 1e-3)
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        tokenize = importlib.import_module("repro.text.tokenize")
        with tracer.phase() as phase:
            for _ in range(10):
                tokenize.tokenize("flu symptoms")
    finally:
        tracer.uninstall()
    assert phase.calls["text"] == 10
    with pytest.raises(RuntimeError, match="miss the traced total"):
        phase.check()


def test_speedometer_takes_its_probes_out_and_ignores_late_ticks():
    from bench import speed

    meter = speed.Speedometer()
    with meter:
        start = speed.now()
        while speed.now() - start < 0.3:
            pass
        end = speed.now()
    count, probed = meter._between(start, end)
    assert count >= 10
    assert meter.unprobed(start, end) == pytest.approx(end - start - probed)
    # A tick that fell due as the meter stopped neither probes nor ends
    # the process.
    signal.raise_signal(signal.SIGPROF)
    assert meter._between(start, speed.now())[0] == count


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    completed = _run(tmp_path, "search", 0)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
