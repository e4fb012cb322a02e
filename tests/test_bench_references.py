"""The benchmark's own reference checks hold on a few of its inputs: a change
that moves the outputs of `frame`, `sweep` or `train` fails here, not only in
the benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import spade.pipeline as pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/workloads.py, loaded by path, and the references of reference.json."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    refs = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert refs["inputs"] == module.reference_inputs()
    return module, refs


@pytest.fixture(scope="module")
def desk_model(bench, tmp_path_factory):
    W, _ = bench
    return W.desk_model_checkpoint(tmp_path_factory.mktemp("bench") / "model.spw1")


@pytest.mark.parametrize("i", range(4))
def test_pool_frame_matches_its_reference(i, bench, desk_model, tmp_path):
    W, refs = bench
    d = str(tmp_path / "frame")
    W.write_frame(W.pool_frame(i), d)
    result = W.run_frame_files(desk_model, d)
    assert W.frame_mismatch(result, refs["frame"]["frames"][i], W.RTOL["frame"]) is None


def test_sweep_of_config_seed_0_matches_its_reference(bench, desk_model):
    W, refs = bench
    got = W.sweep_reference(pipeline.sweep(desk_model, pipeline.RunConfig(seed=0), W.sweep_spec()))
    ref = refs["sweep"]["0"]
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert W._cell_matches(g, r, W.RTOL["sweep"]), (g, r)


def test_train_losses_of_config_seed_0_match_their_reference(bench):
    W, refs = bench
    _, train_log = pipeline.train(W.train_config(0), quiet=True)
    got, ref = W.train_reference(train_log), refs["train"]["0"]
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert all(W.close(a, b, W.RTOL["train"]) for a, b in zip(g, r)), (got, ref)
