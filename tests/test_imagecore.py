"""Image container, resampling, pyramids, and PNM round trips."""

import struct
import sys

import numpy as np
import pytest

from texsynth.imagecore import (
    Image,
    RasterFormatError,
    TooManyScales,
    as_array,
    box_average2,
    build_pyramid,
    channel_sum,
    downsample2,
    quantize,
    read_image,
    serialize_pnm,
    upsample_bilinear,
    write_image,
)


def box_downsample_oracle(a):
    """Blockwise mean over the pixels each 2x2 block actually covers."""
    h, w = a.shape
    out = np.zeros(((h + 1) // 2, (w + 1) // 2))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    return out


def bilinear_oracle(a, th, tw):
    """Pointwise bilinear lookup with half-pixel-centered sample positions."""
    h, w = a.shape
    out = np.zeros((th, tw))
    for ty in range(th):
        sy = min(max((ty + 0.5) * h / th - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for tx in range(tw):
            sx = min(max((tx + 0.5) * w / tw - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = a[y0, x0] * (1 - fx) + a[y0, x1] * fx
            bot = a[y1, x0] * (1 - fx) + a[y1, x1] * fx
            out[ty, tx] = top * (1 - fy) + bot * fy
    return out


class TestImage:
    def test_gray_2d_input_gains_channel_axis(self):
        img = Image(np.zeros((4, 5)))
        assert img.data.shape == (4, 5, 1)
        assert (img.h, img.w, img.c) == (4, 5, 1)

    def test_two_channel_data_rejected(self):
        with pytest.raises(ValueError, match="channel count"):
            Image(np.zeros((4, 4, 2)))

    def test_four_dimensional_data_rejected(self):
        with pytest.raises(ValueError, match=r"2-D or 3-D, got shape \(2, 2, 1, 1\)"):
            Image(np.zeros((2, 2, 1, 1)))

    def test_non_finite_samples_rejected(self):
        arr = np.zeros((3, 3))
        arr[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Image(arr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 4)))

    def test_as_array_unwraps_without_copy(self):
        img = Image(np.ones((2, 2)))
        assert as_array(img) is img.data

    def test_as_array_coerces_to_float64(self):
        out = as_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64


class TestChannelSum:
    """channel_sum against numpy's own reduction over axis 2, byte for byte."""

    # signed zeros, subnormals, values whose sums overflow, and ordinary ones
    EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1.7e308,
                     1.0, -0.1, 3.3e-16, 1e16])

    @pytest.mark.parametrize("channels", range(1, 17))
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 65)])
    def test_bytes_equal_np_sum_and_np_mean(self, shape, channels):
        rng = np.random.default_rng(channels)
        with np.errstate(over="ignore", invalid="ignore"):
            for trial in range(6):
                x = rng.choice(self.EDGE, shape + (channels,))
                if trial % 2:
                    x = x * rng.standard_normal(x.shape)
                z = x + 1j * rng.choice(self.EDGE, x.shape)
                for data in (x, z, x.transpose(1, 0, 2)):
                    assert channel_sum(data).tobytes() == np.sum(data, axis=2).tobytes()
                assert ((channel_sum(x) / channels).tobytes()
                        == np.mean(x, axis=2).tobytes())

    def test_all_negative_zeros_sum_to_positive_zero_as_numpy(self):
        x = np.full((2, 2, 3), -0.0)
        assert np.signbit(np.sum(x, axis=2)).sum() == 0
        assert channel_sum(x).tobytes() == np.sum(x, axis=2).tobytes()


def box_average2_filled(data):
    """box_average2 as it was written first: zero-filled sums and counts."""
    h2 = -(-data.shape[0] // 2)
    w2 = -(-data.shape[1] // 2)
    acc = np.zeros((h2, w2, data.shape[2]))
    cnt = np.zeros((h2, w2, 1))
    for di in (0, 1):
        for dj in (0, 1):
            sub = data[di::2, dj::2]
            acc[: sub.shape[0], : sub.shape[1]] += sub
            cnt[: sub.shape[0], : sub.shape[1]] += 1.0
    return acc / cnt, cnt


@pytest.mark.parametrize("shape", [(6, 8, 3), (5, 7, 2), (7, 6, 1), (1, 9, 2), (8, 1, 3),
                                   (1, 1, 1)])
def test_box_average2_keeps_the_zero_filled_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    for trial in range(4):
        x = rng.choice(TestChannelSum.EDGE[:6], shape)  # signed zeros and subnormals
        if trial % 2:
            x = np.where(rng.random(shape) < 0.5, x, rng.standard_normal(shape))
        want = box_average2_filled(x)
        got = box_average2(x)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestResampling:
    def test_downsample_averages_2x2_blocks(self):
        img = Image(np.arange(16, dtype=float).reshape(4, 4))
        expect = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.array_equal(downsample2(img).data[:, :, 0], expect)

    def test_downsample_odd_edges_average_covered_pixels_only(self):
        rng = np.random.default_rng(7)
        for h, w in ((5, 3), (4, 7), (3, 3), (1, 6)):
            a = rng.random((h, w))
            out = downsample2(Image(a)).data[:, :, 0]
            assert np.allclose(out, box_downsample_oracle(a), atol=1e-14)

    def test_downsample_stays_in_value_hull(self):
        rng = np.random.default_rng(8)
        a = rng.random((9, 11, 3))
        out = downsample2(Image(a)).data
        assert out.min() >= a.min() and out.max() <= a.max()

    def test_upsample_reproduces_constant_images(self):
        img = Image(np.full((3, 4, 3), 0.37))
        assert np.allclose(upsample_bilinear(img, 7, 9).data, 0.37)

    def test_upsample_matches_pointwise_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.random((3, 5))
        out = upsample_bilinear(Image(a), 8, 11).data[:, :, 0]
        assert np.allclose(out, bilinear_oracle(a, 8, 11), atol=1e-13)

    def test_upsample_exact_doubling_matches_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.random((4, 6))
        out = upsample_bilinear(Image(a), 8, 12).data[:, :, 0]
        assert np.allclose(out, bilinear_oracle(a, 8, 12), atol=1e-13)

    def test_upsample_rejects_shrinking(self):
        with pytest.raises(ValueError, match="target dims"):
            upsample_bilinear(Image(np.zeros((4, 4))), 3, 4)


class TestPyramid:
    def test_dims_follow_ceil_halving(self):
        img = Image(np.zeros((37, 22, 3)))
        levels = build_pyramid(img, 1)
        assert [(l.h, l.w) for l in levels] == [(37, 22), (19, 11)]

    def test_levels_are_repeated_downsampling(self):
        rng = np.random.default_rng(11)
        img = Image(rng.random((64, 48, 3)))
        levels = build_pyramid(img, 2)
        assert np.array_equal(levels[1].data, downsample2(img).data)
        assert np.array_equal(levels[2].data, downsample2(levels[1]).data)

    def test_depth_limit_guards_tiny_coarsest_level(self):
        img = Image(np.zeros((64, 64, 3)))
        assert len(build_pyramid(img, 3)) == 4  # coarsest side 8, allowed
        with pytest.raises(TooManyScales):
            build_pyramid(img, 4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(Image(np.zeros((16, 16))), -1)


class TestQuantize:
    def test_rounds_to_integer_grid(self):
        img = Image(np.array([[0.0, 0.5, 1.0]]))
        assert quantize(img, 16).ravel().tolist() == [0, 32768, 65535]
        assert quantize(img, 8).ravel().tolist() == [0, 128, 255]

    def test_clamps_out_of_range(self):
        img = Image(np.array([[-0.5, 1.5]]))
        assert quantize(img, 8).ravel().tolist() == [0, 255]

    def test_rejects_other_depths(self):
        with pytest.raises(ValueError):
            quantize(Image(np.zeros((2, 2))), 12)


class TestPnmIO:
    def test_rgb_16bit_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        img = Image(rng.random((6, 5, 3)))
        path = tmp_path / "t.ppm"
        write_image(img, path, bits=16)
        back = read_image(path)
        assert np.array_equal(back.data, quantize(img, 16) / 65535.0)

    def test_gray_8bit_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        img = Image(rng.random((4, 7)))
        path = tmp_path / "t.pgm"
        write_image(img, path, bits=8)
        back = read_image(path)
        assert back.c == 1
        assert np.array_equal(back.data, quantize(img, 8) / 255.0)

    def test_16bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_image(Image(np.array([[0.5]])), path, bits=16)
        assert path.read_bytes().endswith(b"\x80\x00")

    def test_serialize_matches_file_bytes(self, tmp_path):
        rng = np.random.default_rng(14)
        img = Image(rng.random((3, 3, 3)))
        path = tmp_path / "t.ppm"
        write_image(img, path, bits=16)
        assert path.read_bytes() == serialize_pnm(img, bits=16)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 64, 128, 255]))
        img = read_image(path)
        assert img.data.shape == (2, 2, 1)
        assert np.allclose(img.data.ravel() * 255, [0, 64, 128, 255])

    def test_plain_text_magic_rejected(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(RasterFormatError):
            read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(RasterFormatError, match="truncated"):
            read_image(path)

    def test_garbage_header_token_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 four\n255\n" + bytes(16))
        with pytest.raises(RasterFormatError):
            read_image(path)

    def test_a_comment_may_follow_a_number_directly(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2#c\n2\n255\n" + bytes([0, 64, 128, 255]))
        img = read_image(path)
        assert img.data.shape == (2, 2, 1)
        assert np.allclose(img.data.ravel() * 255, [0, 64, 128, 255])

    @pytest.mark.parametrize("blob, message", [
        (b"P52 2\n255\n" + bytes(4), "not a binary"),  # no separator after the magic
        (b"P5\n2 2\n", "not a binary"),  # the file ends before maxval
        (b"P5\n2 2\n255", "not a binary"),  # the file ends at maxval
        (b"P5\n2 2\n255" + bytes([128, 64, 32, 16]), "not a binary"),  # no gap before the payload
        (b"P5\n0 2\n255\n", "bad dimensions 0x2"),
        (b"P6\n3 0\n255\n", "bad dimensions 3x0"),
    ], ids=["magic-then-digit", "ends-before-maxval", "ends-at-maxval", "maxval-then-payload",
            "zero-width", "zero-height"])
    def test_malformed_header_rejected(self, tmp_path, blob, message):
        path = tmp_path / "t.pgm"
        path.write_bytes(blob)
        with pytest.raises(RasterFormatError, match=message):
            read_image(path)

    def test_zero_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n0\n" + bytes(4))
        with pytest.raises(RasterFormatError, match="maxval"):
            read_image(path)

    @pytest.mark.parametrize("header, payload, named", [
        (b"P5\n2 1\n15\n", bytes([15, 200]), "sample 200 above maxval 15"),
        (b"P6\n1 1\n1000\n", struct.pack(">3H", 1000, 60000, 0), "sample 60000 above maxval 1000"),
    ], ids=["8-bit", "16-bit"])
    def test_a_sample_above_maxval_is_rejected(self, tmp_path, header, payload, named):
        path = tmp_path / "t.pnm"
        path.write_bytes(header + payload)
        with pytest.raises(RasterFormatError) as info:
            read_image(path)
        assert str(info.value) == f"{named} in {path}"

    def test_samples_at_maxval_read_as_1(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n1 1\n1000\n" + struct.pack(">3H", 1000, 0, 500))
        assert read_image(path).data.ravel().tolist() == [1.0, 0.0, 0.5]

    def test_png_read_maps_to_unit_range(self, tmp_path):
        PILImage = pytest.importorskip("PIL.Image")
        arr = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        path = tmp_path / "t.png"
        PILImage.fromarray(arr, mode="L").save(path)
        img = read_image(path)
        assert img.data.shape == (2, 2, 1)
        assert np.allclose(img.data[:, :, 0] * 255, arr)

    def test_png_without_pillow_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(16))
        monkeypatch.setitem(sys.modules, "PIL", None)  # unimportable, installed or not
        with pytest.raises(RasterFormatError) as info:
            read_image(path)
        assert str(info.value) == f"{path}: PNG input requires Pillow"
