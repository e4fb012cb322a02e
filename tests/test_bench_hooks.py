"""The benchmark's tracer finds every hook point it wraps: a function, op or
module class it times that is moved or renamed fails here, not only in the
traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import spade.pipeline  # also imports synth and sensors, which the tracer patches too
from spade.nn import Tensor, TransformerBlock, attention, layers, no_grad, tensor

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


def test_tracer_counts_each_recorded_op_and_times_its_backward():
    # the tracer counts tape nodes by wrapping Tensor._make and times an op's
    # backward by wrapping the rule its output's _backward holds
    tracer = load_spans().Tracer()
    x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
    try:
        tracer.install(spade)
        out = layers.conv2d(x, w, padding=1)
        assert tracer.counts["nn.tape.nodes"] == 1
        out.sum().backward()
        assert tracer.calls["nn.op.conv2d.bwd"] == 1
        nodes = tracer.counts["nn.tape.nodes"]
        with no_grad():
            layers.conv2d(x, w, padding=1)
        assert tracer.counts["nn.tape.nodes"] == nodes
        assert tracer.calls["nn.op.conv2d.fwd"] == 2 and tracer.calls["nn.op.conv2d.bwd"] == 1
    finally:
        tracer.uninstall()
