"""Property tests: whatever bytes the file readers get, they either return a
value or raise FormatError, never another exception; whatever JSON value the
config reader gets, it returns a config or raises ConfigError; whatever finite
inputs the alignment fits and the scale-map densification get, they return
finite values or raise SpadeError; whatever single fault a pred/gt raster pair
has, `spade eval` and `spade report` exit with its documented code, and so
does `spade densify` for a faulty scale map or guide; the byte-budget walk
covers its items once, in slices that fit; a sparse point set keeps its rows
or names the first one at fault, and its CSV round trip is exact."""

import csv
import dataclasses
import json
import math
import re
import struct
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import manifest_arrays
from spade.alignment import align_global, align_with_laser, fit_scale_only, fit_scale_shift, laser_scale
from spade.config import from_json
from spade.densify import JBUParams, jbu_densify, sparse_scale_map
from spade import core
from spade.core import (
    DepthRaster,
    LaserRig,
    ScaleMap,
    Space,
    SparsePointSet,
    budget_slices,
    read_points,
    read_raster,
    write_points,
    write_raster,
)
from spade.cli import main
from spade.errors import ConfigError, DomainError, FormatError, SpadeError
from spade.nn import load_checkpoint
from spade.pipeline import RunConfig, SpadeModel, SweepSpec, run_frame
from spade.sensors import PATTERN_KINDS, PatternSpec, sample_pattern
from spade.synth import LAYOUTS, OracleSpec, SceneSpec, SynthSpec, generate_scene, oracle_relative

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# manifests near the valid form, so that many reach the buffer checks
tensor_entries = st.fixed_dictionaries(
    {"name": st.text(max_size=4), "shape": st.lists(st.integers(-2, 3), max_size=3)}
) | json_values
manifests = json_values | st.fixed_dictionaries(
    {"tensors": st.lists(tensor_entries, max_size=3)}, optional={"meta": json_values}
)


def load_into_manifest_shapes(path):
    return load_checkpoint(path, manifest_arrays(path))


def read_or_reject(reader, path, data: bytes):
    path.write_bytes(data)
    try:
        reader(path)
    except FormatError:
        pass


@pytest.mark.parametrize(
    "reader", [read_raster, read_points, pytest.param(load_into_manifest_shapes, id="load_checkpoint")]
)
@FUZZ
@given(data=st.binary(max_size=64))
def test_any_bytes_give_only_format_error(tmp_path, reader, data):
    read_or_reject(reader, tmp_path / "f", data)


@FUZZ
@given(manifest=manifests, payload=st.binary(max_size=48))
def test_spw1_any_manifest_gives_only_format_error(tmp_path, manifest, payload):
    mbytes = json.dumps(manifest).encode()
    read_or_reject(load_into_manifest_shapes, tmp_path / "c.spw1", b"SPW1" + struct.pack("<I", len(mbytes)) + mbytes + payload)


@FUZZ
@given(data=st.data(), width=st.integers(1, 3), height=st.integers(1, 3), tag=st.integers(0, 3))
def test_fdr1_any_payload_gives_only_format_error(tmp_path, data, width, height, tag):
    n = width * height
    values = data.draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
    mask = data.draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=n, max_size=n))
    cut = data.draw(st.integers(0, 2))  # sometimes drop trailing bytes
    raw = struct.pack("<4sIIB", b"FDR1", width, height, tag)
    raw += np.array(values, dtype="<f4").tobytes() + bytes(mask)
    read_or_reject(read_raster, tmp_path / "r.fdr1", raw[: len(raw) - cut])


fields = (
    st.integers(-3, 3).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(alphabet='0123456789-+.e"n \x00\xff\r\n', max_size=4)
)


@FUZZ
@given(rows=st.lists(st.lists(fields, max_size=4), max_size=4))
def test_points_any_rows_give_only_format_error(tmp_path, rows):
    body = "".join(",".join(row) + "\n" for row in rows)
    read_or_reject(read_points, tmp_path / "p.csv", ("u,v,depth_m\n" + body).encode("utf-8"))


def first_point_fault(rows):
    """The DomainError message of the first row at fault, row by row: a depth
    that is not finite and positive, or a pixel an earlier row holds."""
    seen = set()
    for u, v, d in rows:
        if not (d > 0 and math.isfinite(d)):
            return f"point at (u={u}, v={v}) has depth {d}"
        if (u, v) in seen:
            return f"duplicate point pixel (u={u}, v={v})"
        seen.add((u, v))
    return None


point_rows = st.lists(
    st.tuples(
        st.integers(-2, 3),
        st.integers(-2, 3),
        st.sampled_from([-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]) | st.floats(0.01, 100.0),
    ),
    max_size=8,
)


@FUZZ
@given(rows=point_rows)
def test_point_set_keeps_its_rows_or_names_the_first_at_fault(tmp_path, rows):
    fault = first_point_fault(rows)
    try:
        pts = SparsePointSet(rows)
    except DomainError as e:
        assert str(e) == fault
        return
    assert fault is None and list(pts) == rows and len(pts) == len(rows)
    assert (pts.u.dtype, pts.v_row.dtype, pts.depth_m.dtype) == (np.int64, np.int64, np.float64)
    path = tmp_path / "p.csv"
    write_points(pts, path)
    written = path.read_bytes()
    back = read_points(path)
    assert list(back) == rows
    write_points(back, path)
    assert path.read_bytes() == written


# values of each field's annotated type near its valid range, including
# integers too large for a float, or else any JSON value
NEAR = {
    int: st.integers(-1, 64),
    float: st.floats(-1.0, 16.0) | st.integers(-1, 8) | st.integers(2**1024, 2**1100),
    str: st.sampled_from(PATTERN_KINDS + LAYOUTS),
    type(None): st.none(),
}


def near(hint):
    if dataclasses.is_dataclass(hint):
        typed = near_valid(hint)
    elif typing.get_origin(hint) is tuple:
        typed = st.lists(near(typing.get_args(hint)[0]), max_size=5)
    elif typing.get_args(hint):  # X | None
        typed = st.one_of(*map(near, typing.get_args(hint)))
    else:
        typed = NEAR[hint]
    return typed | json_values


def near_valid(cls):
    """Objects over the field names of `cls`, each with a value near its type."""
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries({}, optional={name: near(hint) for name, hint in hints.items()})


@pytest.mark.parametrize("cls", [RunConfig, SweepSpec, PatternSpec, SynthSpec], ids=lambda c: c.__name__)
@FUZZ
@given(data=st.data())
def test_config_reader_gives_config_or_config_error(cls, data):
    payload = data.draw(json_values | near_valid(cls))
    try:
        config = from_json(cls, payload)
    except ConfigError:
        return
    assert isinstance(config, cls)


def near_fields(cls, prefix=""):
    """{"field" or "outer.field": values near its type} for each field of
    `cls`, with the fields of nested configs flattened."""
    fields = {}
    for name, hint in typing.get_type_hints(cls).items():
        nested = [a for a in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(a)]
        if nested:
            fields.update(near_fields(nested[0], f"{prefix}{name}."))
        else:
            fields[prefix + name] = near(hint)
    return fields


def with_fields(base, fields, data):
    """A copy of the JSON object `base` with one or two of `fields` drawn."""
    payload = json.loads(json.dumps(base))
    for key in data.draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=2, unique=True)):
        *outer, name = key.split(".")
        target = payload.setdefault(outer[0], {}) if outer else payload
        target[name] = data.draw(fields[key], label=key)
    return payload


# a small valid pattern or scene spec, and values near the valid range for
# one or two of its fields: every spec the reader accepts must sample (or
# build) a small scene, or be rejected with ConfigError
@pytest.fixture(scope="module")
def small_scene():
    gt, guide = generate_scene(SceneSpec(height=16, width=24, seed=1))
    return gt, guide, DepthRaster(guide.values[:8], guide.valid[:8], guide.space)


@FUZZ
@given(data=st.data())
def test_accepted_pattern_samples_a_small_scene(small_scene, data):
    gt, guide, short_guide = small_scene
    payload = with_fields({"count": 20}, near_fields(PatternSpec), data)
    guide = data.draw(st.sampled_from([None, guide, short_guide]))
    try:
        spec = from_json(PatternSpec, payload)
        pts = sample_pattern(gt, spec, laser=LaserRig(20.0, 12.0, 0.1), guide=guide)
    except ConfigError:
        return
    assert all(0 <= u < gt.shape[1] and 0 <= v < gt.shape[0] for u, v, _ in pts)


@FUZZ
@given(data=st.data())
def test_accepted_synth_spec_generates_a_small_scene(data):
    payload = with_fields({"scene": {"height": 16, "width": 24}, "oracle": {}}, near_fields(SynthSpec), data)
    try:
        spec = from_json(SynthSpec, payload)
    except ConfigError:
        return
    if spec.scene.height > 64 or spec.scene.width > 96:
        return
    gt, guide = generate_scene(spec.scene)
    assert gt.shape == guide.shape == (spec.scene.height, spec.scene.width)
    if spec.oracle is not None:
        assert oracle_relative(gt, spec.oracle).shape == gt.shape


# a small valid run config, and values near the valid range for each field
# that shapes the model or the frame: every config the reader accepts must
# build a model that runs a frame, or be rejected with ConfigError
SMALL_RUN = {
    "input_hw": [32, 32],
    "pyramid_channels": [4, 4, 4, 4],
    "network": {
        "widths": [8, 8, 8, 8],
        "heads": 2,
        "grid_downsamples": [2, 2, 1, 1],
        "decoder_width": 8,
        "embed_channels": 4,
        "fused_channels": 4,
    },
}


def four(values):
    return st.lists(values, min_size=4, max_size=4)


odd_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e-200, 1e200])
NEAR_RUN = {
    "input_hw": st.sampled_from([[32, 64], [0, 32], [48, 32]]),
    "pyramid_channels": four(st.integers(-1, 6)) | st.lists(st.integers(1, 4), max_size=5),
    "seed": st.integers(-2, 3),
    "jbu.window_radius": st.integers(-1, 3),
    "jbu.sigma_spatial": st.floats(-1.0, 4.0) | odd_floats,
    "jbu.sigma_range": st.floats(-1.0, 1.0) | odd_floats,
    "network.widths": four(st.sampled_from([-2, 0, 2, 3, 4, 6])) | st.lists(st.just(4), max_size=5),
    "network.conv_counts": four(st.integers(-1, 2)),
    "network.trans_counts": four(st.integers(-1, 2)),
    "network.strides": four(st.integers(0, 5)),
    "network.grid_downsamples": four(st.integers(0, 3)),
    "network.heads": st.integers(-1, 4),
    "network.offset_range": st.floats(-1.0, 8.0) | odd_floats,
    "network.mlp_ratio": st.integers(-1, 3),
    "network.decoder_width": st.integers(-1, 8),
    "network.embed_channels": st.integers(-1, 4),
    "network.fused_channels": st.integers(-1, 4),
}


@pytest.fixture(scope="module")
def small_frames():
    frames = {}
    for h, w in ((32, 32), (32, 64)):
        gt, guide = generate_scene(SceneSpec(height=h, width=w, seed=1))
        pts = sample_pattern(gt, PatternSpec(count=20, seed=2), guide=guide)
        frames[(h, w)] = (oracle_relative(gt, OracleSpec(seed=3)), guide, pts)
    return frames


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_accepted_run_config_builds_and_runs_a_frame(small_frames, data):
    payload = with_fields(SMALL_RUN, NEAR_RUN, data)
    try:
        cfg = from_json(RunConfig, payload)
        model = SpadeModel(cfg)
        result = run_frame(model, *small_frames[cfg.input_hw])
    except ConfigError:
        return
    assert result.eps_hat.shape == cfg.input_hw


# inputs to the alignment fits: ordinary values, so that many fits succeed,
# with up to two of them replaced by any finite value, the float64 extremes included
ordinary = st.floats(-2.0, 2.0)
ordinary_positive = st.floats(0.05, 20.0)
any_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, 5e-324, 1e-300, 1e300, -1e300])
any_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    [5e-324, 1e-300, 1e308]
)
positive = ordinary_positive | any_positive


def mostly(data, typical, extreme, n):
    values = data.draw(st.lists(typical, min_size=n, max_size=n))
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        values[i] = data.draw(extreme)
    return values


def finite_or_spade_error(fit, *args):
    """fit(*args), or None if it raises SpadeError; any numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fit(*args)
        except SpadeError:
            return None


@FUZZ
@given(data=st.data(), n=st.integers(1, 4))
def test_fits_return_finite_values_or_raise(data, n):
    z, v = mostly(data, ordinary, any_finite, n), mostly(data, ordinary_positive, any_positive, n)
    for fit in (fit_scale_shift, fit_scale_only):
        out = finite_or_spade_error(fit, z, v)
        assert out is None or np.all(np.isfinite(out)), (fit.__name__, out)
    z1, z2 = mostly(data, ordinary_positive, any_positive, 2)
    u1, u2 = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
    rig = LaserRig(fx=data.draw(positive), cx=data.draw(ordinary | any_finite), baseline_m=data.draw(positive))
    s = finite_or_spade_error(laser_scale, (u1, z1), (u2, z2), rig)
    assert s is None or np.isfinite(s)


@FUZZ
@given(data=st.data())
def test_alignment_is_finite_or_raises(data):
    h, w = 3, 4
    values = np.array(mostly(data, ordinary, any_finite, h * w)).reshape(h, w)
    valid = np.array(data.draw(st.lists(st.sampled_from([True, True, False]), min_size=h * w, max_size=h * w)))
    valid = valid.reshape(h, w)
    z = DepthRaster(values, valid, Space.AFFINE)
    pixel = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    pixels = data.draw(st.lists(pixel, min_size=1, max_size=5, unique=True))
    depths = mostly(data, ordinary_positive, any_positive, len(pixels))
    pts = SparsePointSet([(u, v, d) for (u, v), d in zip(pixels, depths)])
    fx, cx = data.draw(positive), data.draw(ordinary | any_finite)
    results = [finite_or_spade_error(align_global, z, pts)]
    if len(pts) >= 2:
        laser_pair = SparsePointSet(list(pts)[:2])
        rig = LaserRig(fx=fx, cx=cx, baseline_m=data.draw(positive))
        results.append(finite_or_spade_error(align_with_laser, z, laser_pair, rig))
    for result in results:
        if result is not None:
            aligned, fit = result
            assert np.all(np.isfinite([fit.s, fit.t, fit.residual_rms])), fit
            assert aligned.space is Space.INVERSE

    # the fallback: a joint fit with s <= 0 ends in a scale-only fit or an error
    usable = [(u, v, d) for u, v, d in pts if valid[v, u]]
    z_samples, v = [values[v, u] for u, v, _ in usable], [1 / d for _, _, d in usable]
    joint = finite_or_spade_error(fit_scale_shift, z_samples, v)
    if joint is not None and joint[0] <= 0 and results[0] is not None:
        assert results[0][1].mode == "scale_only"


def pixel_of(message):
    u, v = re.search(r"pixel \(u=(\d+), v=(\d+)\)", message).groups()
    return int(v), int(u)


def jbu_terms(eps, z, params, y, x):
    """weight * factor of each known pixel in the JBU window of (y, x), and the weights,
    in Python floats (which overflow to inf without a warning)."""
    r = params.window_radius
    terms, weights = [], []
    for qy, qx in zip(*np.nonzero(eps.known & z.valid)):
        if abs(qy - y) <= r and abs(qx - x) <= r:
            dz = float(z.values[y, x]) - float(z.values[qy, qx])
            wgt = math.exp(-((qy - y) ** 2 + (qx - x) ** 2) * (0.5 / params.sigma_spatial**2))
            wgt *= math.exp(-(dz * dz) * (0.5 / params.sigma_range**2))
            terms.append(wgt * float(eps.values[qy, qx]))
            weights.append(wgt)
    return terms, weights


def exact_sum(terms):
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def inverse_raster(data, h=4, w=4):
    """Ordinary inverse depths with up to two extreme ones; invalid pixels hold anything."""
    values = np.array(mostly(data, ordinary_positive, any_positive, h * w)).reshape(h, w)
    valid = np.array(data.draw(st.lists(st.sampled_from([True, True, True, False]), min_size=h * w, max_size=h * w)))
    valid = valid.reshape(h, w)
    values[~valid] = data.draw(st.floats())
    return DepthRaster(values, valid, Space.INVERSE)


@FUZZ
@given(data=st.data())
def test_sparse_scale_map_is_finite_and_positive_or_raises(data):
    z = inverse_raster(data)
    pixel = st.tuples(st.integers(0, z.shape[1] - 1), st.integers(0, z.shape[0] - 1))
    pixels = data.draw(st.lists(pixel, min_size=1, max_size=6, unique=True))
    depths = mostly(data, ordinary_positive, any_positive, len(pixels))
    pts = SparsePointSet([(u, v, d) for (u, v), d in zip(pixels, depths)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eps = sparse_scale_map(pts, z)
        except SpadeError as e:
            y, x = pixel_of(str(e))
            if str(e).startswith("aligned map is not positive"):
                assert not z.valid[y, x]
            else:
                assert str(e).startswith("correction factor"), e
                depth = next(d for u, v, d in pts if (v, u) == (y, x))
                assert not 0.0 < (1.0 / depth) / float(z.values[y, x]) < math.inf, e
            return
    known = eps.values[eps.known]
    assert len(known) == len(pts) and np.all(np.isfinite(known)) and np.all(known > 0)


@FUZZ
@given(data=st.data())
def test_jbu_is_finite_and_positive_or_raises(data):
    z = inverse_raster(data)
    known = np.array(data.draw(st.lists(st.booleans(), min_size=z.values.size, max_size=z.values.size)))
    known = known.reshape(z.shape)
    factors = np.array(mostly(data, ordinary_positive, any_positive, z.values.size)).reshape(z.shape)
    eps = ScaleMap(np.where(known, factors, 0.0), known)
    # sigmas whose square is near either end of the normal float64 range
    sigma_s = st.floats(0.3, 5.0) | st.sampled_from([1.5e-154, 1e154])
    sigma_r = st.floats(0.01, 1.0) | st.sampled_from([1.5e-154, 1e154])
    params = JBUParams(data.draw(st.integers(1, 3)), data.draw(sigma_s), data.draw(sigma_r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dense = jbu_densify(eps, z, params)
        except SpadeError as e:
            assert str(e).startswith("JBU weighted mean"), e
            terms, weights = jbu_terms(eps, z, params, *pixel_of(str(e)))
            if "overflowed" in str(e):
                assert exact_sum(terms) > 1e308, e
            else:
                assert "underflowed to 0" in str(e) and exact_sum(terms) / math.fsum(weights) < 1e-300, e
            return
    filled = dense.values[dense.filled]
    assert np.all(np.isfinite(filled)) and np.all(filled > 0)


@FUZZ
@given(
    n=st.integers(0, 300),
    item_bytes=st.integers(0, 3 * core.BYTE_BUDGET) | st.integers(1, 400).map(lambda k: core.BYTE_BUDGET // k),
)
def test_budget_slices_cover_the_items_once_in_slices_that_fit(n, item_bytes):
    slices = budget_slices(n, item_bytes)
    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(n))
    sizes = [s.stop - s.start for s in slices]
    assert all(size >= 1 for size in sizes)
    assert all(size * item_bytes <= core.BYTE_BUDGET for size in sizes if size > 1)
    # each slice but the last holds as many items as fit
    assert all((size + 1) * item_bytes > core.BYTE_BUDGET for size in sizes[:-1])
    assert bool(slices) == (n > 0)


# ---------------------------------------------------------------------------
# `spade densify` over a small scene with one mutated input: it exits 0, 2, 3
# or 4, and only exit 0 writes a raster, finite and positive on its mask
# ---------------------------------------------------------------------------

DENSIFY_MUTATIONS = (
    "none", "holes", "empty_mask", "all_known", "map_shape", "guide_shape", "map_space", "guide_space", "invalid_guide"
)


def write_densify_inputs(root, data):
    """A scale map and its aligned guide, 5x7, one of them carrying one mutation."""
    shape = (5, 7)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    known = rng.random(shape) < 0.3
    known[2, 3] = True
    factors = np.where(known, rng.uniform(0.5, 2.0, shape), 0.0)
    scale_map = DepthRaster(factors, known, Space.AFFINE)
    guide = DepthRaster(rng.uniform(0.2, 1.5, shape), np.ones(shape, bool), Space.INVERSE)
    mutation = data.draw(st.sampled_from(DENSIFY_MUTATIONS), label="mutation")
    if mutation == "holes":  # unknown pixels hold NaN, not 0
        scale_map = DepthRaster(np.where(known, factors, np.nan), known, Space.AFFINE)
    elif mutation == "empty_mask":
        scale_map = DepthRaster(factors, np.zeros(shape, bool), Space.AFFINE)
    elif mutation == "all_known":
        scale_map = DepthRaster(rng.uniform(0.5, 2.0, shape), np.ones(shape, bool), Space.AFFINE)
    elif mutation in ("map_shape", "guide_shape"):
        other = (shape[0] + 1, shape[1] - 2)
        if mutation == "map_shape":
            scale_map = DepthRaster(np.ones(other), np.ones(other, bool), Space.AFFINE)
        else:
            guide = DepthRaster(np.full(other, 0.5), np.ones(other, bool), Space.INVERSE)
    elif mutation == "map_space":
        scale_map = DepthRaster(factors, known, data.draw(st.sampled_from([Space.METRIC, Space.INVERSE])))
    elif mutation == "guide_space":
        guide = DepthRaster(guide.values, guide.valid, data.draw(st.sampled_from([Space.METRIC, Space.AFFINE])))
    elif mutation == "invalid_guide":
        valid = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="valid share")
        guide = DepthRaster(np.where(valid, guide.values, np.nan), valid, Space.INVERSE)
    write_raster(scale_map, root / "map.fdr1")
    write_raster(guide, root / "guide.fdr1")
    return max(shape)


@FUZZ
@given(data=st.data())
def test_densify_writes_a_positive_map_or_refuses(tmp_path, capsys, data):
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    extent = write_densify_inputs(root, data)
    out = root / "dense.fdr1"
    # the sigmas of test_jbu_is_finite_and_positive_or_raises, near either end of float64
    sigma_s = data.draw(st.floats(0.3, 5.0) | st.sampled_from([1.5e-154, 1e154]), label="sigma_s")
    sigma_r = data.draw(st.floats(0.01, 1.0) | st.sampled_from([1.5e-154, 1e154]), label="sigma_r")
    argv = ["densify", "--scale-map", root / "map.fdr1", "--guide", root / "guide.fdr1", "--out", out]
    argv += ["--radius", data.draw(st.integers(1, extent + 3), label="radius"), "--sigma-s", sigma_s, "--sigma-r", sigma_r]
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return
    dense = read_raster(out)
    values = dense.values[dense.valid]
    assert values.size and np.all(np.isfinite(values)) and np.all(values > 0)


# ---------------------------------------------------------------------------
# `spade eval` and `spade report` over a pred/gt directory pair with one
# mutated raster: each exits 0, 2, 3 or 4, and only exit 0 writes a file
# ---------------------------------------------------------------------------

PAIR_MUTATIONS = ("truncate", "garble", "shape", "space", "all_invalid", "low_cap")


def write_pair_dirs(root, data):
    """pred/ and gt/ holding frames a and b; b's raster on one side carries one mutation."""
    shape = (4, 6)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    rasters = {}
    for name in ("a", "b"):
        gt = rng.uniform(0.5, 5.0, shape)
        rasters[name] = {
            "pred": DepthRaster(gt * rng.uniform(0.8, 1.2, shape), np.ones(shape, bool), Space.METRIC),
            "gt": DepthRaster(gt, rng.random(shape) < 0.8, Space.METRIC),
        }
    mutation = data.draw(st.sampled_from(PAIR_MUTATIONS), label="mutation")
    side = data.draw(st.sampled_from(("pred", "gt")), label="side")
    r = rasters["b"][side]
    if mutation == "shape":
        rasters["b"][side] = DepthRaster(np.full((4, 5), 2.0), np.ones((4, 5), bool), Space.METRIC)
    elif mutation == "space":
        rasters["b"][side] = DepthRaster(r.values, r.valid, data.draw(st.sampled_from([Space.INVERSE, Space.AFFINE])))
    elif mutation == "all_invalid":
        rasters["b"][side] = DepthRaster(r.values, np.zeros(shape, bool), Space.METRIC)
    for name, sides in rasters.items():
        for s, raster in sides.items():
            (root / s).mkdir(exist_ok=True)
            write_raster(raster, root / s / f"{name}.fdr1")
    path = root / side / "b.fdr1"
    raw = bytearray(path.read_bytes())
    if mutation == "truncate":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    elif mutation == "garble":
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(raw))
    return mutation, path


def expected_exit(root):
    """4 if a raster does not read, else 3 for a pair in two spaces, 2 for two shapes, else 0."""
    pairs = []
    for name in ("a", "b"):
        try:
            pairs.append((read_raster(root / "pred" / f"{name}.fdr1"), read_raster(root / "gt" / f"{name}.fdr1")))
        except FormatError:
            return 4
    if any(pred.space is not Space.METRIC or gt.space is not Space.METRIC for pred, gt in pairs):
        return 3
    return 2 if any(pred.shape != gt.shape for pred, gt in pairs) else 0


def finite_numbers(value):
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@FUZZ
@given(data=st.data(), command=st.sampled_from(["eval", "report"]))
def test_eval_and_report_score_or_refuse_every_mutated_pair(tmp_path, capsys, data, command):
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    mutation, path = write_pair_dirs(root, data)
    out = root / ("eval.json" if command == "eval" else "rep")
    argv = [command, "--pred", root / "pred", "--gt", root / "gt"]
    if command == "eval":
        argv += ["--cap", 0.1 if mutation == "low_cap" else 10.0, "--out", out]
    else:
        argv += ["--out-dir", out]
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == expected_exit(root), (code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        if code == 4:
            assert str(path) in err, err
        return
    if command == "eval":
        report = json.loads(out.read_text())
        assert finite_numbers(report)
        assert len(report["frames"]) + len(report["skipped"]) == 2
        assert report["frames"] or mutation == "low_cap"
    else:
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [row[0] for row in rows] == ["a", "b"]
        cells = [v for row in rows if row[1] != "skipped" for v in row[1:]]
        assert all(math.isfinite(float(v)) for v in cells)
