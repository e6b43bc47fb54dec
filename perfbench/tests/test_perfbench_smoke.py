"""Smoke test: every workload, untraced and traced, at the TINY model config.

Run from the repository root with ``python -m pytest perfbench/tests``.
Nothing here asserts on a timing.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

from concept_parse import autodiff, evaluation  # noqa: E402
from helpers import TINY  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.Scale(
    model=TINY, setup_reps=2, min_passes=2,
    train_per_domain=12, round_steps=2, tf_passes=1, min_steps=2,
    decode_per_domain=12, decode_train_steps=2, decode_setup_reps=2,
    decode_utterances=2)

NAMES = ("train", "decode")


def run(name, trace, out_dir):
    return workloads.run(name, seed=3, seconds=0.0, trace=trace, out_dir=out_dir,
                         program="smoke", scale=SMOKE)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_then_traced_agree(name, tmp_path):
    plain = run(name, False, tmp_path)
    assert plain["correct"], plain["checks"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m for m, _ in workloads.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run(name, True, tmp_path)
    # the stored outputs of the untraced run are compared with the traced ones
    assert traced["checks"]["repeats_across_runs"]
    assert traced["outputs"] == plain["outputs"]
    assert traced["correct"], traced["checks"]
    assert list(traced["metrics"]) == [m for m, _ in tracing.LAYER_METRICS]
    assert (tmp_path / f"trace-{name}.json").is_file()


def test_layer_metrics_follow_the_workload(tmp_path):
    train = {k: m["value"] for k, m in run("train", True, tmp_path)["metrics"].items()}
    decode = {k: m["value"] for k, m in run("decode", True, tmp_path)["metrics"].items()}
    assert train["autodiff.nodes_per_step"] > 0
    assert train["autodiff.backward.ms"] > 0
    assert train["model.decode_step.calls"] == 0
    assert decode["autodiff.backward.ms"] == 0
    assert decode["autodiff.adam_step.ms"] == 0
    assert decode["decoding.steps_per_utt"] >= 1
    assert decode["data.prepare_ms"] > 0


def test_tracer_restores_the_package(tmp_path):
    originals = (autodiff.gelu, autodiff.backward, evaluation.beam_decode,
                 evaluation.evaluate_domain)
    run("decode", True, tmp_path)
    assert (autodiff.gelu, autodiff.backward, evaluation.beam_decode,
            evaluation.evaluate_domain) == originals


def test_changed_outputs_fail_the_cross_run_check(tmp_path):
    record = {"outputs": {"loss": "0x1p+0"}}
    assert workloads.check_against_stored(tmp_path, "train", 1, "a", record)
    assert workloads.check_against_stored(tmp_path, "train", 1, "a", record)
    changed = {"outputs": {"loss": "0x1.8p+0"}}
    assert not workloads.check_against_stored(tmp_path, "train", 1, "a", changed)
    # another program: its first run sets the reference
    assert workloads.check_against_stored(tmp_path, "train", 1, "b", changed)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
