import ast
from pathlib import Path

import numpy as np
import pytest

import spade
from spade.core import (
    DepthRaster,
    ScaleMap,
    Space,
    SparsePointSet,
    bilinear_taps,
    from_inverse,
    read_points,
    read_raster,
    to_inverse,
    write_points,
    write_raster,
)
from spade.errors import DomainError, FormatError, ShapeError


def metric(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return DepthRaster(values, valid, Space.METRIC)


class TestDepthRaster:
    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            DepthRaster(np.ones((2, 3)), np.ones((3, 2), dtype=bool), Space.METRIC)

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(DomainError, match=r"u=1, v=0"):
            metric([[1.0, -2.0]])

    def test_invalid_pixels_unchecked(self):
        r = metric([[1.0, -2.0]], valid=[[True, False]])
        assert r.valid.tolist() == [[True, False]]

    def test_affine_allows_negative(self):
        r = DepthRaster([[-1.0, 2.0]], np.ones((1, 2), bool), Space.AFFINE)
        assert r.values[0, 0] == -1.0

    def test_immutable(self):
        r = metric([[1.0]])
        with pytest.raises(ValueError):
            r.values[0, 0] = 2.0


class TestInverseConversions:
    def test_reciprocal_identity(self):
        r = metric([[2.0, 4.0]])
        inv = to_inverse(r)
        assert inv.space is Space.INVERSE
        assert inv.values.tolist() == [[0.5, 0.25]]

    def test_fixed_point(self):
        assert to_inverse(metric([[1.0]])).values[0, 0] == 1.0

    def test_mean_prior_depth(self):
        # 1/2.37 computed independently below
        got = to_inverse(metric([[2.37]])).values[0, 0]
        assert got == pytest.approx(1.0 / 2.37, abs=0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.1, 10.0, size=(13, 17))
        r = metric(vals)
        back = from_inverse(to_inverse(r))
        assert np.max(np.abs(back.values - vals)) <= 1e-12

    def test_mask_preserved(self):
        valid = np.array([[True, False], [False, True]])
        r = metric([[2.0, 0.0], [0.0, 5.0]], valid=valid)
        inv = to_inverse(r)
        assert np.array_equal(inv.valid, valid)
        assert inv.values[0, 1] == 0.0  # invalid pixel never touched by the reciprocal

    def test_wrong_space(self):
        with pytest.raises(DomainError):
            to_inverse(to_inverse(metric([[2.0]])))
        with pytest.raises(DomainError):
            from_inverse(metric([[2.0]]))


class TestRasterIO:
    def test_round_trip_bytes(self, tmp_path):
        vals = np.array([[1.5, 2.25, 3.0], [0.5, 4.0, 8.0]], dtype=np.float64)
        valid = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
        r = DepthRaster(vals, valid, Space.METRIC)
        p1, p2 = tmp_path / "a.fdr1", tmp_path / "b.fdr1"
        write_raster(r, p1)
        r2 = read_raster(p1)
        write_raster(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert r2 == r
        assert r2.space is Space.METRIC

    def test_paper_resolution_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 9.5, size=(336, 448)).astype(np.float32).astype(np.float64)
        r = DepthRaster(vals, rng.random((336, 448)) < 0.9, Space.INVERSE)
        write_raster(r, tmp_path / "r.fdr1")
        assert read_raster(tmp_path / "r.fdr1") == r

    @pytest.mark.parametrize("value, space", [(1e39, Space.INVERSE), (-1e39, Space.AFFINE), (1e-50, Space.METRIC)])
    def test_write_refuses_values_float32_cannot_hold(self, tmp_path, value, space):
        r = DepthRaster([[1.0, value]], [[True, True]], space)
        with pytest.raises(DomainError, match=r"valid pixel \(u=1, v=0\) after rounding to float32"):
            write_raster(r, tmp_path / "r.fdr1")
        assert not (tmp_path / "r.fdr1").exists()
        # the same value at an invalid pixel is not checked, here or by read_raster
        write_raster(DepthRaster([[1.0, value]], [[True, False]], space), tmp_path / "r.fdr1")
        assert read_raster(tmp_path / "r.fdr1").valid.tolist() == [[True, False]]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.fdr1"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_raster(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.fdr1"
        write_raster(metric([[1.0, 2.0]]), p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError, match="size mismatch"):
            read_raster(p)

    def test_dimension_overflow(self, tmp_path):
        import struct

        p = tmp_path / "d.fdr1"
        p.write_bytes(struct.pack("<4sIIB", b"FDR1", 2**31, 2**31, 0))
        with pytest.raises(FormatError, match="overflow"):
            read_raster(p)

    def test_fault_names_the_file(self, tmp_path):
        p = tmp_path / "t.fdr1"
        write_raster(metric([[1.0, 2.0]]), p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError) as err:
            read_raster(p)
        assert str(err.value) == f"{p}: payload size mismatch: expected 23 bytes, file has 20 (at byte offset 20)"


class TestSparsePoints:
    def test_duplicate_pixel_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            SparsePointSet([(1, 2, 3.0), (1, 2, 4.0)])

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(DomainError):
            SparsePointSet([(0, 0, 0.0)])

    def test_bounds_check(self):
        pts = SparsePointSet([(5, 0, 1.0)])
        with pytest.raises(DomainError, match="outside"):
            pts.check_bounds(metric(np.ones((2, 2))))

    def test_csv_round_trip(self, tmp_path):
        pts = SparsePointSet([(0, 1, 2.5), (3, 4, 1.125), (7, 2, 0.875)])
        p = tmp_path / "pts.csv"
        write_points(pts, p)
        text = p.read_text()
        assert text.startswith("u,v,depth_m\n")
        assert "\r" not in text
        assert list(read_points(p)) == list(pts)

    def test_arrays_are_typed_and_read_only(self):
        pts = SparsePointSet([(2, 1, 2.0), (0, 3, 4)])
        assert pts.u.tolist() == [2, 0] and pts.v_row.tolist() == [1, 3] and pts.depth_m.tolist() == [2.0, 4.0]
        assert (pts.u.dtype, pts.v_row.dtype, pts.depth_m.dtype) == (np.int64, np.int64, np.float64)
        for a in (pts.u, pts.v_row, pts.depth_m):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert list(SparsePointSet()) == [] and len(SparsePointSet([])) == 0

    def test_at_reads_a_raster_at_the_points_in_order(self):
        pts = SparsePointSet([(2, 1, 2.0), (0, 0, 4.0), (1, 1, 1.0)])
        grid = np.arange(6.0).reshape(2, 3)
        assert pts.at(grid).tolist() == [5.0, 0.0, 4.0]

    def test_subset_keeps_the_selected_rows_unchecked(self, monkeypatch):
        pts = SparsePointSet([(2, 1, 2.0), (0, 0, 4.0), (1, 1, 1.0)])
        monkeypatch.setattr(SparsePointSet, "_check", lambda self: pytest.fail("a subset was checked again"))
        assert list(pts.subset(np.array([True, False, True]))) == [(2, 1, 2.0), (1, 1, 1.0)]
        assert list(pts.subset(np.array([2, 0]))) == [(1, 1, 1.0), (2, 1, 2.0)]
        assert len(pts.subset(np.zeros(3, dtype=bool))) == 0

    @pytest.mark.parametrize("row, first", [((-1, 0), "(u=-1, v=0)"), ((0, 2), "(u=0, v=2)"), ((3, 1), "(u=3, v=1)")])
    def test_bounds_check_names_the_first_point_outside(self, row, first):
        pts = SparsePointSet([(1, 1, 1.0), (*row, 1.0), (9, 9, 1.0)])
        with pytest.raises(DomainError) as err:
            pts.check_bounds(metric(np.ones((2, 3))))
        assert str(err.value) == f"point {first} outside raster 3x2"
        SparsePointSet([(0, 0, 1.0), (2, 1, 1.0)]).check_bounds(metric(np.ones((2, 3))))

    def test_coordinate_past_int64_is_refused_by_row(self, tmp_path):
        with pytest.raises(DomainError, match=r"^point at \(u=0, v=9223372036854775808\) lies outside the int64 pixel range$"):
            SparsePointSet([(1, 1, 1.0), (0, 2**63, 1.0)])
        p = tmp_path / "far.csv"
        p.write_text(f"u,v,depth_m\n{-(2**70)},0,1.0\n")
        with pytest.raises(FormatError, match="lies outside the int64 pixel range"):
            read_points(p)

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(FormatError, match="header"):
            read_points(p)

    @pytest.mark.parametrize(
        "data, tail",
        [(b"", "empty points file (at byte offset 0)"), (b"u,v,depth_m\n1,2\n", "line 2: expected 3 fields, got 2"),
         (b"u,v,depth_m\n\xff,1,2\n", "unreadable points file: 'utf-8' codec")],
        ids=["empty", "short-line", "not-utf8"],
    )
    def test_csv_fault_names_the_file(self, tmp_path, data, tail):
        p = tmp_path / "pts.csv"
        p.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read_points(p)
        assert str(err.value).startswith(f"{p}: {tail}")

    def test_csv_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"u,v,depth_m\n1,2,3.0\n\xff\xfe,1,2\n")
        with pytest.raises(FormatError, match="utf-8"):
            read_points(p)

    @pytest.mark.parametrize(
        "body,message",
        [("1,2,-3.0\n", "depth -3.0"), ("1,2,nan\n", "depth nan"), ("1,2,3\n1,2,4\n", "duplicate")],
    )
    def test_csv_out_of_domain_points(self, tmp_path, body, message):
        p = tmp_path / "pts.csv"
        p.write_text("u,v,depth_m\n" + body)
        with pytest.raises(FormatError, match=message):
            read_points(p)

    def test_raster_out_of_domain_value(self, tmp_path):
        p = tmp_path / "nan.fdr1"
        write_raster(metric([[1.0, 2.0]]), p)
        raw = bytearray(p.read_bytes())
        raw[13 + 4 : 13 + 8] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"non-finite value at valid pixel \(u=1, v=0\)"):
            read_raster(p)


class TestScaleMap:
    def test_known_must_be_positive(self):
        with pytest.raises(DomainError):
            ScaleMap([[0.0]], [[True]])

    def test_point_helpers(self):
        pts = SparsePointSet([(2, 1, 2.0), (0, 0, 4.0)])
        assert len(pts) == 2
        assert list(pts) == [(2, 1, 2.0), (0, 0, 4.0)]


class TestBilinearTaps:
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_bitwise_equal_to_the_clip_form(self, size):
        edges = [-3.0, -1e-300, -0.0, 0.0, 0.5, size - 1.0, size - 0.5, size + 2.0, np.inf, -np.inf, np.nan]
        raw = np.array(edges * 3).reshape(3, -1)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to int
            c = np.clip(raw, 0.0, size - 1.0)
            i0 = np.clip(np.floor(c).astype(int), 0, max(size - 2, 0))
            got = bilinear_taps(raw, size)
        want = (i0, np.minimum(i0 + 1, size - 1), c - i0, (raw > 0.0) & (raw < size - 1.0))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def budget_reads(node, scope="<module>"):
    """(scope, line) of every read, import or attribute of BYTE_BUDGET under
    node, a module-level one under "<module>"."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (
        (isinstance(node, ast.Name) and node.id == "BYTE_BUDGET" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "BYTE_BUDGET")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "BYTE_BUDGET" for a in node.names))
        or (isinstance(node, ast.Constant) and node.value == "BYTE_BUDGET")
    ):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from budget_reads(child, scope)


def test_only_budget_slices_reads_the_byte_budget():
    """Every batched temporary takes its block size from `budget_slices`, so
    no kernel grows a formula of its own around BYTE_BUDGET."""
    package = Path(spade.__file__).parent
    readers = {
        (str(path.relative_to(package)), scope, line)
        for path in sorted(package.rglob("*.py"))
        for scope, line in budget_reads(ast.parse(path.read_text(), str(path)))
    }
    assert {(path, scope) for path, scope, _ in readers} == {("core.py", "budget_slices")}, sorted(readers)


POINT_FIELDS = {"u", "v_row", "depth_m"}


def point_field_reads(node, scope="<module>"):
    """(scope, attribute, line) of every attribute named like a point field
    under node, and of every name `Point`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Attribute) and node.attr in POINT_FIELDS:
        yield scope, node.attr, node.lineno
    if isinstance(node, ast.Name) and node.id == "Point":
        yield scope, "Point", node.lineno
    for child in ast.iter_child_nodes(node):
        yield from point_field_reads(child, scope)


def test_only_core_knows_the_point_layout():
    """Outside `spade.core` a point set's arrays are read whole, in the few
    places listed here, and no code builds or reads a single point."""
    package = Path(spade.__file__).parent
    reads = {
        (str(path.relative_to(package)), scope, attr)
        for path in sorted(package.rglob("*.py"))
        if path.name != "core.py"
        for scope, attr, _ in point_field_reads(ast.parse(path.read_text(), str(path)))
    }
    assert reads == {
        ("alignment.py", "align_global", "depth_m"),
        ("alignment.py", "align_with_laser", "u"),
        ("alignment.py", "align_with_laser", "depth_m"),
        ("densify.py", "sparse_scale_map", "depth_m"),
        ("densify.py", "sparse_scale_map", "u"),
        ("densify.py", "sparse_scale_map", "v_row"),
    }, sorted(reads)
