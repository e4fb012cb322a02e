"""The benchmark's tracer finds every hook point it wraps: a function, op or
module class it times that is moved or renamed fails here, not only in the
traced benchmark run."""

import importlib.util
from pathlib import Path

import spade.pipeline  # also imports synth and sensors, which the tracer patches too
from spade.nn import TransformerBlock, attention, layers, tensor

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_hook_point_and_uninstalls():
    tracer = load_spans().Tracer()
    try:
        tracer.install(spade)  # raises AttributeError naming a hook point that is gone
        assert tracer.active
    finally:
        tracer.uninstall()
    assert not tracer.active
    assert layers.conv2d is tensor.conv2d
    assert attention.softmax is tensor.softmax
    assert "__call__" not in vars(TransformerBlock)
