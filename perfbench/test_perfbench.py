"""Tests for the benchmark itself, at a tiny size.

Run from the repository root: python -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import ROOT, WORKLOADS, generate, use_checkout

use_checkout()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], n_train=4, n_held=3, max_iterations=2,
                               f1_floor=0.0)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    wl = tiny(name)
    generate(wl, 7, tmp_path / "a")
    generate(wl, 7, tmp_path / "b")
    generate(wl, 8, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f
    assert (tmp_path / "a" / "raw.txt").read_bytes() != (tmp_path / "c" / "raw.txt").read_bytes()


def test_longtail_lengths_are_long_tailed(tmp_path):
    stats = generate(WORKLOADS["longtail"], 1, tmp_path).stats
    assert stats["train"]["pad_ratio"] >= 10
    assert stats["held_out"]["pad_ratio"] >= 10


@pytest.mark.parametrize("name,trace", [("uniform", False), ("punctuate-rich", False),
                                        ("punctuate-rich", True)])
def test_every_metric_is_reported_with_its_unit(tmp_path, capsys, name, trace):
    result = run.run(tiny(name), 3, 0, trace, tmp_path)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_punctuate_output_fails_its_check():
    plain = ["天地玄黃宇宙洪荒", "日月盈昃"]
    gold = ["OOOMOOOM", "OOOM"]
    good = "天地玄黃，宇宙洪荒，\n日月盈昃，\n"
    assert run.check_punctuated(good, plain, gold, 0.9) == (None, 1.0)
    for corrupted in (
        "天地玄黃，宇宙洪荒，\n",              # line dropped
        "天地玄黃，宇宙洪，\n日月盈昃，\n",     # character dropped
        "天地玄黃，宇宙洪荒，\n日月盈昃，\n\n",  # line added
        "天地玄黃宇宙洪荒\n日月盈昃\n",         # marks lost: F1 below the floor
    ):
        error, _ = run.check_punctuated(corrupted, plain, gold, 0.9)
        assert error is not None, corrupted


def test_corrupted_punctuate_output_is_counted_failed(tmp_path):
    wl = tiny("uniform")
    inp = generate(wl, 3, tmp_path / "inputs")
    real = run.in_process_invoker(None)

    def corrupting(stage, argv):
        outcome = real(stage, argv)
        if stage == "punctuate":
            out = tmp_path / "punctuated.txt"
            out.write_text(out.read_text(encoding="utf-8")[1:], encoding="utf-8")
        return outcome

    ledger = run.Ledger()
    assert run.pipeline(corrupting, run.commands(wl, inp, tmp_path), wl, inp, tmp_path,
                        ledger) is None
    assert ledger.attempted == 3
    assert len(ledger.failures) == 1 and ledger.failures[0].startswith("punctuate")


def test_exits_nonzero_without_a_result_outside_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_job_runs_without_the_package(tmp_path):
    # Its cost must not depend on gujiseg, so it must not need it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(run.CALIBRATE)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
