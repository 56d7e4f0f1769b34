"""Colormap, scalar-field rendering and PPM tests."""

from __future__ import annotations

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.viz import (
    BLUE_WHITE_RED,
    COLORMAPS,
    Colormap,
    GRAYSCALE,
    TOOTH,
    assemble_tiles,
    normalize,
    render_scalar_field,
    write_ppm,
)
from tests.oracles import read_ppm


class TestColormap:
    def test_endpoints(self):
        assert BLUE_WHITE_RED(np.array(0.0)).tolist() == [0.0, 0.0, 1.0]
        assert BLUE_WHITE_RED(np.array(1.0)).tolist() == [1.0, 0.0, 0.0]
        assert BLUE_WHITE_RED(np.array(0.5)).tolist() == [1.0, 1.0, 1.0]

    def test_clipping(self):
        assert BLUE_WHITE_RED(np.array(-5.0)).tolist() == [0.0, 0.0, 1.0]
        assert BLUE_WHITE_RED(np.array(5.0)).tolist() == [1.0, 0.0, 0.0]

    def test_shape_preserved(self):
        out = GRAYSCALE(np.zeros((4, 6)))
        assert out.shape == (4, 6, 3)

    def test_to_uint8(self):
        rgb = GRAYSCALE.to_uint8(np.array([0.0, 0.5, 1.0]))
        assert rgb.dtype == np.uint8
        assert rgb[0].tolist() == [0, 0, 0]
        assert rgb[2].tolist() == [255, 255, 255]
        assert rgb[1].tolist() == [128, 128, 128]

    def test_registry(self):
        assert set(COLORMAPS) == {"blue_white_red", "grayscale", "tooth"}
        assert COLORMAPS["tooth"] is TOOTH

    def test_bad_control_points(self):
        with pytest.raises(ValueError):
            Colormap("x", ((0.2, (0, 0, 0)), (1.0, (1, 1, 1))))
        with pytest.raises(ValueError):
            Colormap("x", ((0.0, (0, 0, 0)),))

    @given(s=st.floats(0, 1), t=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_grayscale_monotone(self, s, t):
        lo, hi = min(s, t), max(s, t)
        a = GRAYSCALE(np.array(lo))
        b = GRAYSCALE(np.array(hi))
        assert (a <= b + 1e-12).all()

    def test_nan_is_black(self):
        for cmap in COLORMAPS.values():
            rgb = cmap.to_uint8(np.array([np.nan, 0.0, np.nan]))
            assert rgb[[0, 2]].tolist() == [[0, 0, 0]] * 2
            assert np.array_equal(rgb[1], cmap.to_uint8(np.array(0.0)))


def reference_to_uint8(cmap, scalars):
    """``Colormap.__call__`` + ``to_uint8`` as they were before segment tables."""
    s = np.clip(np.asarray(scalars, dtype=np.float64), 0.0, 1.0)
    xs = np.array([v for v, _ in cmap.points])
    channels = np.array([c for _, c in cmap.points])  # (n, 3)
    out = np.empty(s.shape + (3,))
    for ch in range(3):
        out[..., ch] = np.interp(s, xs, channels[:, ch])
    return np.round(out * 255.0).astype(np.uint8)


#: Control-point positions that recur, so drawn maps repeat them (duplicates).
SNAPS = (0.0, 0.25, 0.3, 0.5, 0.55, 1.0)


@st.composite
def colormaps_and_scalars(draw):
    n = draw(st.integers(2, 6))
    # Rounded: points under 1e-308 apart overflow the slope (np.interp gives inf).
    position = st.one_of(st.sampled_from(SNAPS), st.floats(0.0, 1.0).map(lambda v: round(v, 12)))
    xs = [0.0] + sorted(draw(st.lists(position, min_size=n - 2, max_size=n - 2))) + [1.0]
    colour = st.tuples(*[st.floats(0.0, 1.0)] * 3)
    cmap = Colormap("drawn", tuple(zip(xs, draw(st.lists(colour, min_size=n, max_size=n)))))
    special = xs + [0.0, -0.0, 1.0, -0.5, 1.5, -np.inf, np.inf, 0.5 / 255, 1 - 0.5 / 255]
    element = st.one_of(st.sampled_from(special), st.floats(-0.5, 1.5))
    shape = draw(st.sampled_from([(), (0,), (1,), (9,), (3, 5), (0, 4)]))
    return cmap, draw(hnp.arrays(np.float64, shape, elements=element))


@given(case=colormaps_and_scalars())
@settings(max_examples=300, deadline=None)
def test_to_uint8_equals_rounded_interp(case):
    cmap, scalars = case
    rgb = cmap.to_uint8(scalars)
    assert rgb.dtype == np.uint8 and rgb.shape == scalars.shape + (3,)
    assert np.array_equal(rgb, reference_to_uint8(cmap, scalars))
    assert np.array_equal(rgb, np.round(cmap(scalars) * 255.0).astype(np.uint8))


class TestNormalize:
    def test_minmax(self):
        out = normalize(np.array([2.0, 4.0, 6.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_explicit_range(self):
        out = normalize(np.array([0.0, 10.0]), vmin=0, vmax=20)
        assert out.tolist() == [0.0, 0.5]

    def test_constant_field(self):
        assert normalize(np.full(4, 3.0)).tolist() == [0.0] * 4

    def test_symmetric_zero_at_half(self):
        out = normalize(np.array([-2.0, 0.0, 1.0]), symmetric=True)
        assert out[1] == 0.5
        assert out[0] == 0.0
        assert out[2] == pytest.approx(0.75)

    def test_symmetric_all_zero(self):
        assert normalize(np.zeros(3), symmetric=True).tolist() == [0.5] * 3


class TestRenderScalarField:
    def test_vorticity_style(self):
        field = np.array([[-1.0, 0.0, 1.0]])
        img = render_scalar_field(field)
        assert img.shape == (1, 3, 3)
        assert img[0, 0].tolist() == [0, 0, 255]  # negative -> blue
        assert img[0, 1].tolist() == [255, 255, 255]  # zero -> white
        assert img[0, 2].tolist() == [255, 0, 0]  # positive -> red

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_scalar_field(np.zeros((2, 2, 2)))

    # -5 .. 6: the cell at (1, 2) is neither the minimum nor the maximum.
    RAMP = np.arange(12.0).reshape(3, 4) - 5.0

    @pytest.mark.parametrize(
        "value, colour",
        [(np.nan, [0, 0, 0]), (np.inf, [255, 0, 0]), (-np.inf, [0, 0, 255])],
        ids=["nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize("limits", [(None, None), (-6.0, 6.0)], ids=["auto", "fixed"])
    def test_a_non_finite_cell_leaves_the_rest_of_the_frame(self, value, colour, limits):
        field = self.RAMP.copy()
        field[1, 2] = value
        expected = render_scalar_field(self.RAMP, BLUE_WHITE_RED, *limits)
        expected[1, 2] = colour
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(render_scalar_field(field, BLUE_WHITE_RED, *limits), expected)

    def test_a_field_without_finite_cells(self):
        # The range is (0, 0): infinities land on the midpoint, NaN is black.
        field = np.array([[np.nan, np.inf], [-np.inf, np.nan]])
        black, white = [0, 0, 0], [255, 255, 255]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert render_scalar_field(field).tolist() == [[black, white], [white, black]]
            assert normalize(field).tolist()[0][1:] == [0.0]
            assert np.isnan(normalize(field, symmetric=True)[0, 0])

    def test_stays_under_the_memory_ceiling(self):
        # 7.69 MiB with three np.interp passes into an (h, w, 3) float64 array,
        # 5.91 MiB with the segment tables.
        ys, xs = np.mgrid[0:240, 0:600]
        field = np.sin(0.05 * xs) * np.cos(0.07 * ys)
        render_scalar_field(field)
        tracemalloc.start()
        try:
            render_scalar_field(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestAssembleTiles:
    def test_stitch(self):
        a = np.full((2, 3, 3), 10, dtype=np.uint8)
        b = np.full((2, 3, 3), 20, dtype=np.uint8)
        frame = assemble_tiles([((0, 0), a), ((2, 3), b)], (4, 6))
        assert frame[0, 0, 0] == 10
        assert frame[3, 5, 0] == 20
        assert frame[0, 5, 0] == 0

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            assemble_tiles([((3, 0), np.zeros((2, 2, 3), np.uint8))], (4, 4))


class TestPpm:
    def test_roundtrip(self, rng):
        image = rng.integers(0, 255, (13, 17, 3)).astype(np.uint8)
        buf = io.BytesIO()
        n = write_ppm(buf, image)
        assert n == len(buf.getvalue())
        buf.seek(0)
        assert np.array_equal(read_ppm(buf), image)

    def test_file_roundtrip(self, tmp_path, rng):
        image = rng.integers(0, 255, (5, 5, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        assert np.array_equal(read_ppm(path), image)

    def test_comment_in_header(self, rng):
        image = rng.integers(0, 255, (2, 2, 3)).astype(np.uint8)
        blob = b"P6\n# a comment\n2 2\n255\n" + image.tobytes()
        assert np.array_equal(read_ppm(io.BytesIO(blob)), image)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            write_ppm(io.BytesIO(), np.zeros((2, 2, 3), dtype=np.float32))

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            read_ppm(io.BytesIO(b"P5\n2 2\n255\n" + b"\x00" * 4))

    def test_rejects_truncated(self):
        with pytest.raises(ValueError):
            read_ppm(io.BytesIO(b"P6\n4 4\n255\n\x00\x00"))
