import io
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierpath import pathdata
from fourierpath import (NoiseSpec, PathDataError, PathSamples, add_noise, dft, load_path, p_bar,
                         synth_path)


def _csv(tmp_path, text):
    target = tmp_path / "path.csv"
    target.write_text(text, encoding="utf-8")
    return target


class TestLoadPath:
    def test_parses_plain_records(self, tmp_path):
        ps = load_path(_csv(tmp_path, "0,0\n1,0\n1,1\n"))
        assert ps.n_samples == 3
        assert np.array_equal(ps.points, [[0, 0], [1, 0], [1, 1]])

    def test_skips_single_header_line(self, tmp_path):
        ps = load_path(_csv(tmp_path, "x,y\n0,0\n1,0\n"))
        assert ps.n_samples == 2

    def test_accepts_crlf(self, tmp_path):
        target = tmp_path / "crlf.csv"
        with open(target, "wb") as fh:
            fh.write(b"0,0\r\n1,2\r\n")
        ps = load_path(target)
        assert ps.n_samples == 2
        assert ps.points[1, 1] == 2.0

    def test_byte_order_mark_is_not_part_of_the_first_field(self, tmp_path):
        ps = load_path(_csv(tmp_path, "\ufeff0,0\n1,0\n1,1\n"))
        assert np.array_equal(ps.points, [[0, 0], [1, 0], [1, 1]])
        # before a header it still skips only the header
        ps = load_path(_csv(tmp_path, "\ufeffx,y\n0,0\n1,0\n1,1\n"))
        assert np.array_equal(ps.points, [[0, 0], [1, 0], [1, 1]])

    def test_round_trips_a_written_file(self, tmp_path):
        target = tmp_path / "path.csv"
        pts = synth_path("circle", 758, [1.0])
        with open(target, "w") as fh:
            fh.write("x,y\n")
            for px, py in pts.points:
                fh.write(f"{px:.17g},{py:.17g}\n")
        again = load_path(target)
        assert again.n_samples == 758
        assert np.array_equal(again.points, pts.points)

    def test_malformed_record_reports_line_number(self, tmp_path):
        with pytest.raises(PathDataError, match="line 2"):
            load_path(_csv(tmp_path, "0,0\n1,abc\n"))

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        with pytest.raises(PathDataError, match="line 3"):
            load_path(_csv(tmp_path, "0,0\n1,1\n2,3,4\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(PathDataError, match="line 2"):
            load_path(_csv(tmp_path, "0,0\n1,inf\n"))

    @pytest.mark.parametrize("offset", [6, 20000])
    def test_byte_that_is_not_utf8_is_named_at_its_file_offset(self, tmp_path, offset):
        # 20000 lies past the reader's first 8 KiB chunk, whose decoder counts
        # positions from the start of the chunk, not of the file
        data = bytearray(b"".join(b"%d,%d\n" % (i, i) for i in range(5000)))
        data[offset] = 0xFF
        target = tmp_path / "path.csv"
        target.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError, match="^'utf-8' codec can't decode byte 0xff "
                                                     f"in position {offset}: "):
            load_path(target)

    def test_too_few_points_rejected(self, tmp_path):
        with pytest.raises(PathDataError):
            load_path(_csv(tmp_path, "0,0\n"))


class TestSynthPath:
    def test_circle_quarter_turns(self):
        ps = synth_path("circle", 4, [1.0])
        assert np.allclose(ps.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)

    def test_circle_758_points_sit_on_radius(self):
        ps = synth_path("circle", 758, [1.0])
        assert ps.n_samples == 758
        assert np.max(np.abs(np.hypot(ps.x, ps.y) - 1.0)) < 1e-12

    def test_lissajous_is_closed_and_finite(self):
        ps = synth_path("lissajous", 100, [3, 2])
        assert ps.n_samples == 100
        assert np.all(np.isfinite(ps.points))
        # sample 0 sits at parameter 0 of the generator: (cos 0, sin 0)
        assert ps.points[0] == pytest.approx((1.0, 0.0))

    def test_ellipse_semi_axes(self):
        ps = synth_path("ellipse", 8, [2.0, 0.5])
        assert ps.points[0] == pytest.approx((2.0, 0.0))
        assert ps.points[2] == pytest.approx((0.0, 0.5), abs=1e-15)

    @pytest.mark.parametrize(
        "kind,n,params",
        [
            ("triangle", 8, []),
            ("circle", 1, [1.0]),
            ("circle", 8, [-1.0]),
            ("lissajous", 8, [2.5, 2]),
            ("circle", 8, [1.0, 2.0]),
            ("ellipse", 8, [0.0, 1.0]),
            ("ellipse", 8, [2.0, -1.0]),
        ],
    )
    def test_invalid_requests_rejected(self, kind, n, params):
        with pytest.raises(PathDataError):
            synth_path(kind, n, params)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        ps = synth_path("circle", 16, [2.0])
        out = add_noise(ps, NoiseSpec(0.0, 0.0, 99))
        assert np.array_equal(out.points, ps.points)

    def test_same_seed_bit_identical(self):
        ps = synth_path("lissajous", 32, [3, 2])
        spec = NoiseSpec(0.1, 0.15, 1234)
        a = add_noise(ps, spec)
        b = add_noise(ps, spec)
        assert np.array_equal(a.points, b.points)

    def test_different_seed_differs(self):
        ps = synth_path("circle", 32, [1.0])
        a = add_noise(ps, NoiseSpec(0.1, 0.1, 1))
        b = add_noise(ps, NoiseSpec(0.1, 0.1, 2))
        assert not np.array_equal(a.points, b.points)

    def test_sample_variance_of_unit_noise(self):
        # sample variance of 1e4 standard normals concentrates hard around 1;
        # the [0.9, 1.1] window is a ~7 sigma event, failure odds < 1e-6
        zeros = PathSamples(np.zeros((10_000, 2)))
        out = add_noise(zeros, NoiseSpec(1.0, 1.0, 4242))
        assert 0.9 <= np.var(out.x) <= 1.1
        assert 0.9 <= np.var(out.y) <= 1.1

    def test_noise_is_unbiased_across_seeds(self):
        reps = 10_000
        ps = PathSamples(np.array([[0.5, -1.0], [2.0, 3.0], [-4.0, 0.25], [1.5, 9.0]]))
        sigma = 0.3
        acc = np.zeros_like(ps.points)
        for seed in range(reps):
            acc += add_noise(ps, NoiseSpec(sigma, sigma, seed)).points
        deviation = np.abs(acc / reps - ps.points)
        assert np.max(deviation) < 5 * sigma / np.sqrt(reps)

    def test_negative_sigma_rejected(self):
        with pytest.raises(PathDataError):
            NoiseSpec(-0.1, 0.0, 0)

    @pytest.mark.parametrize("seed", [1.9, "7", True, -1, 2**64])
    def test_seed_that_is_not_an_unsigned_64_bit_integer_is_refused(self, seed):
        with pytest.raises(PathDataError, match="^seed must be an integer"):
            NoiseSpec(0.1, 0.1, seed=seed)

    def test_seed_may_be_a_numpy_integer(self):
        spec = NoiseSpec(0.1, 0.1, seed=np.uint64(2**64 - 1))
        assert add_noise(PathSamples(np.zeros((4, 2))), spec).n_samples == 4


class TestMagnitudeGuardRail:
    def test_coordinate_past_the_rail_names_its_line(self, tmp_path):
        with pytest.raises(PathDataError, match="line 3: coordinates must be finite"):
            load_path(_csv(tmp_path, "0,0\n1,1\n-1e151,0\n"))

    @pytest.mark.parametrize("kind,params", [("circle", [1e151]), ("ellipse", [2.0, 1e200]),
                                             ("lissajous", [3, 2, 1e160])])
    def test_synthetic_parameter_past_the_rail_rejected(self, kind, params):
        with pytest.raises(PathDataError, match="finite"):
            synth_path(kind, 8, params)

    @pytest.mark.parametrize("sigma1,sigma2", [(1.3e154, 0.0), (0.0, 1e151), (np.nan, 0.0)])
    def test_noise_scale_past_the_rail_rejected(self, sigma1, sigma2):
        with pytest.raises(PathDataError, match="finite"):
            NoiseSpec(sigma1, sigma2, 0)

    def test_values_at_the_rail_keep_every_energy_finite(self, tmp_path):
        data = load_path(_csv(tmp_path, "1e150,-1e150\n-1e150,1e150\n1e150,1e150\n"))
        for clean in (data, synth_path("ellipse", 16, [1e150, 1e150])):
            spec = dft(add_noise(clean, NoiseSpec(1e150, 1e150, 3)))
            assert np.isfinite(spec.energy())
            assert np.all(np.isfinite(p_bar(spec, np.arange(1, clean.n_samples + 1),
                                             1e150, 1e150)))


class TestPathSamples:
    def test_requires_two_columns(self):
        with pytest.raises(PathDataError):
            PathSamples(np.zeros((4, 3)))

    def test_rejects_nan(self):
        with pytest.raises(PathDataError):
            PathSamples(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_points_are_read_only(self):
        ps = synth_path("circle", 4, [1.0])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(0.0, 10.0, allow_nan=False),
    seed=st.integers(0, 2**64 - 1),
)
def test_property_noise_deterministic_per_seed(sigma, seed):
    ps = synth_path("circle", 8, [1.0])
    spec = NoiseSpec(sigma, sigma / 2.0, seed)
    assert np.array_equal(add_noise(ps, spec).points, add_noise(ps, spec).points)


def _outcome(path):
    try:
        return load_path(path).points.tobytes()
    except PathDataError as exc:
        return str(exc)


class TestBlockwiseReading:
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 4096])
    @pytest.mark.parametrize("first,later,message", [
        ("3,3,3", "1e151,0", "line 6: expected 'x,y', got 3 field(s)"),
        ("1e151,0", "3,3,3", "line 6: coordinates must be finite and at most 1e+150 "
                             "in magnitude, got '1e151,0'"),
    ])
    def test_first_bad_line_wins_across_blocks(self, tmp_path, monkeypatch, block, first,
                                               later, message):
        monkeypatch.setattr(pathdata, "_BLOCK_ROWS", block)
        text = f"x,y\n0,0\n1,1\n\n2,2\n{first}\n4,4\n{later}\n5,5\n"
        with pytest.raises(PathDataError) as exc:
            load_path(_csv(tmp_path, text))
        assert str(exc.value) == message

    def test_more_records_than_the_sample_limit_are_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pathdata, "_SAMPLE_LIMIT", 5)
        monkeypatch.setattr(pathdata, "_BLOCK_ROWS", 2)
        assert load_path(_csv(tmp_path, "x,y\n" + "1,2\n" * 5)).n_samples == 5
        # refused once the blocks read hold more, before the file is read to
        # its end: the bad line past the limit is never parsed
        with pytest.raises(PathDataError) as exc:
            load_path(_csv(tmp_path, "x,y\n" + "1,2\n" * 7 + "1,2,3\n"))
        assert str(exc.value) == "the file has more than 5 records, the most a path may have"

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.sampled_from(
        ["0,0", " 1.5 , -2 ", "1e150,-1e150", "x,y", "", "  ", "1,2,3", "4", "1,abc",
         "nan,0", "1e151,0", "\x1f3\x1f,4", "1_0,2", "5\x0c6,7", "8,9\r", "﻿1,2"]),
        max_size=12),
        block=st.integers(1, 5))
    def test_outcome_does_not_depend_on_the_block_size(self, lines, block):
        # the parsed points, or the error naming the first bad line, are the
        # same whether the file is read in one block or many
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "path.csv"
            target.write_text("\n".join(lines), encoding="utf-8", newline="")
            whole = _outcome(target)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pathdata, "_BLOCK_ROWS", block)
                assert _outcome(target) == whole

    @settings(max_examples=50, deadline=None)
    @given(points=st.lists(st.tuples(*[st.floats(-1e150, 1e150)] * 2), min_size=2, max_size=40))
    def test_written_table_reads_back_exactly(self, points):
        pts = np.array(points, dtype=np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "path.csv"
            with open(target, "w", newline="\n") as fh:
                pathdata.write_table(fh, "x,y", (pts[:, 0], pts[:, 1]))
            # -0.0 and subnormals included
            assert load_path(target).points.tobytes() == pts.tobytes()


_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e150, -1e150, 1 / 3, -2.5, 1e-5]


def _savetxt(header, table):
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


class TestWriteTable:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(1, 8), edge=st.sampled_from([-1, 0, 1]),
           k_column=st.booleans())
    def test_matches_savetxt_at_the_block_edges(self, data, width, edge, k_column):
        block = 4
        rows = block + edge
        values = st.sampled_from(_SPECIAL) | st.floats(-1e150, 1e150)
        columns = [np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)))
                   for _ in range(width)]
        if k_column:
            columns[0] = np.array(data.draw(st.lists(st.integers(-2**53, 2**53),
                                                     min_size=rows, max_size=rows)))
        header = ",".join(f"c{i}" for i in range(width))
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathdata, "_BLOCK_ROWS", block)
            pathdata.write_table(buf, header, columns)
        assert buf.getvalue() == _savetxt(header, np.column_stack(columns))

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_matches_savetxt_at_the_real_block_size(self, edge):
        rows = pathdata._BLOCK_ROWS + edge
        rng = np.random.default_rng(rows)
        k = np.arange(rows) - rows // 2
        a = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 150, rows)
        a[:len(_SPECIAL)] = _SPECIAL
        buf = io.StringIO()
        pathdata.write_table(buf, "k,a", (k, a))
        assert buf.getvalue() == _savetxt("k,a", np.column_stack((k, a)))

    def test_a_column_of_two_dimensions_is_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            pathdata.write_table(io.StringIO(), "t,x", (np.arange(3.0), np.ones((3, 2))))

    @pytest.mark.parametrize("columns", [(np.arange(3.0), np.ones(4)), (np.ones(600), np.ones(599)),
                                         ()], ids=["short", "short-past-a-block", "none"])
    def test_columns_of_unequal_length_are_refused_before_any_write(self, columns):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="one length"):
            pathdata.write_table(buf, "a,b", columns)
        assert buf.getvalue() == ""

    def test_memory_stays_below_the_size_of_the_table(self):
        # a whole-table stack would need rows * 8 columns * 8 B at once
        rows = 20000
        columns = [np.linspace(-1.0, 1.0, rows) * (c + 1) for c in range(8)]
        with open(os.devnull, "w") as fh:
            tracemalloc.start()
            try:
                pathdata.write_table(fh, ",".join("abcdefgh"), columns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 8 * rows
