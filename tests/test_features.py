import hashlib
import re
import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from bovw import features
from bovw.corpus import Image
from bovw.features import (
    BLOCK_PATCHES,
    DescriptorSet,
    GridParams,
    cache_path,
    dense_grid,
    extract_dense_sift,
    load_descriptor_cache,
    save_descriptor_cache,
)
from bovw.synth import render_texture, textures8_specs

from conftest import describe_patch
from oracles import describe_patches_per_bin, grid_centers, sift_reference


def random_image(width, height, seed=0):
    rng = np.random.default_rng(seed)
    return Image(pixels=rng.integers(0, 256, (height, width)).astype(np.uint8))


class TestGridParams:
    def test_defaults(self):
        p = GridParams()
        assert (p.stride, p.patch_size) == (6, 16)

    @pytest.mark.parametrize("stride,patch", [(0, 16), (6, 15), (6, 2), (-1, 16)])
    def test_invalid(self, stride, patch):
        with pytest.raises(ValueError):
            GridParams(stride=stride, patch_size=patch)


class TestDenseGrid:
    def test_single_fitting_patch(self):
        assert dense_grid(16, 16, GridParams()).tolist() == [[8, 8]]

    def test_two_columns(self):
        kps = dense_grid(22, 16, GridParams())
        assert kps.dtype == np.int32
        assert kps.tolist() == [[8, 8], [14, 8]]

    def test_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            dense_grid(15, 20, GridParams())

    @pytest.mark.parametrize("w,h,stride", [(16, 16, 6), (22, 16, 6), (64, 64, 6),
                                            (33, 47, 4), (100, 31, 9)])
    def test_matches_exhaustive_enumeration(self, w, h, stride):
        params = GridParams(stride=stride, patch_size=16)
        got = [(x, y) for x, y in dense_grid(w, h, params).tolist()]
        assert got == grid_centers(w, h, stride, 16)

    def test_row_major_order(self):
        kps = dense_grid(30, 30, GridParams())
        ys = kps[:, 1].tolist()
        assert ys == sorted(ys)


class TestSiftDescriptor:
    """Descriptors of one patch: an S x S image through extract_dense_sift."""

    def test_constant_patch_is_zero(self):
        assert not describe_patch(np.full((16, 16), 93, np.uint8)).any()

    def test_shape_and_range(self):
        d = describe_patch(random_image(16, 16, 3).pixels)
        assert d.shape == (128,)
        assert d.dtype == np.uint8

    def test_step_edge_single_orientation(self):
        pixels = np.zeros((16, 16), np.uint8)
        pixels[:, 8:] = 255
        d = describe_patch(pixels)
        by_bin = d.reshape(4, 4, 8)
        assert by_bin.sum() > 0
        # gradient points along +x: all mass in orientation bin 0
        assert not by_bin[:, :, 1:].any()
        assert np.array_equal(d, np.array(sift_reference(pixels), dtype=np.uint8))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        patch = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        got = describe_patch(patch)
        want = np.array(sift_reference(patch), dtype=int)
        assert np.abs(got.astype(int) - want).max() <= 1

    @pytest.mark.parametrize("patch_size", [8, 12, 20])
    def test_matches_reference_other_patch_sizes(self, patch_size):
        rng = np.random.default_rng(patch_size)
        patch = rng.integers(0, 256, (patch_size, patch_size)).astype(np.uint8)
        got = describe_patch(patch, GridParams(patch_size=patch_size))
        want = np.array(sift_reference(patch), dtype=int)
        assert np.abs(got.astype(int) - want).max() <= 1

    def test_intensity_shift_invariance(self):
        rng = np.random.default_rng(11)
        patch = rng.integers(0, 200, (16, 16)).astype(np.uint8)
        assert np.array_equal(describe_patch(patch), describe_patch(patch + 50))

    def test_contrast_scaling_within_one(self):
        rng = np.random.default_rng(12)
        patch = rng.integers(0, 128, (16, 16)).astype(np.uint8)
        a = describe_patch(patch).astype(int)
        b = describe_patch(patch * 2).astype(int)
        assert np.abs(a - b).max() <= 1

    def test_rotation_covariance(self):
        # cells rotate with the patch; orientation bins shift by a quarter turn
        rng = np.random.default_rng(13)
        patch = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        d = describe_patch(patch).astype(int).reshape(4, 4, 8)
        rot = describe_patch(np.rot90(patch).copy())
        rot = rot.astype(int).reshape(4, 4, 8)
        expect = np.empty_like(d)
        for ri in range(4):
            for ci in range(4):
                for oi in range(8):
                    expect[ri, ci, oi] = d[ci, 3 - ri, (oi + 2) % 8]
        assert np.abs(rot - expect).max() <= 1


class TestExtractDenseSift:
    def test_single_patch_image(self):
        ds = extract_dense_sift(random_image(16, 16, 1), GridParams())
        assert len(ds) == 1

    def test_deterministic(self):
        img = random_image(50, 40, 2)
        a = extract_dense_sift(img, GridParams())
        b = extract_dense_sift(img, GridParams())
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.keypoints, b.keypoints)

    def test_count_matches_enumeration(self):
        ds = extract_dense_sift(random_image(64, 64, 3), GridParams())
        assert len(ds) == len(grid_centers(64, 64, 6, 16))

    def test_agrees_with_per_keypoint_calls(self):
        img = random_image(40, 34, 4)
        params = GridParams()
        h = params.patch_size // 2
        ds = extract_dense_sift(img, params)
        for (x, y), d in zip(ds.keypoints.tolist(), ds.descriptors):
            crop = img.pixels[y - h : y + h, x - h : x + h]
            assert np.array_equal(d, describe_patch(crop, params))

    def test_bytes_pinned(self):
        # sha256 of keypoints and descriptors over patch sizes and strides;
        # the descriptor cache key carries no algorithm version, so changed
        # bytes would silently make every warm cache stale
        digest = hashlib.sha256()
        for patch in (8, 12, 16, 20):
            for stride in (1, 4, 6, 9):
                rng = np.random.default_rng(patch * 100 + stride)
                pixels = rng.integers(0, 256, (37, 45)).astype(np.uint8)
                pixels[:patch, :patch] = 77  # one flat patch: the all-zero descriptor
                ds = extract_dense_sift(Image(pixels=pixels),
                                        GridParams(stride=stride, patch_size=patch))
                digest.update(ds.keypoints.astype("<i4").tobytes())
                digest.update(ds.descriptors.tobytes())
        assert digest.hexdigest() == (
            "de098d31cddde5d773d00ad49c92a314d1414d43e94802ca096c0f1753b7671c"
        )


class TestBlockedKernel:
    """The blocked, one-product kernel against the per-bin evaluation of the
    whole image at once (tests/oracles.py), byte for byte: the descriptor
    cache key carries no algorithm version."""

    @pytest.fixture(scope="class")
    def texture(self):
        return render_texture(textures8_specs()[4], 256, np.random.default_rng(14)).pixels

    @staticmethod
    def per_bin(pixels, params):
        s = params.patch_size
        windows = sliding_window_view(pixels, (s, s))[:: params.stride, :: params.stride]
        return describe_patches_per_bin(windows.reshape(-1, s, s))

    @pytest.mark.parametrize("patch", [8, 12, 16, 20])
    def test_whole_texture_image(self, texture, patch):
        params = GridParams(patch_size=patch)
        ds = extract_dense_sift(Image(pixels=texture), params)
        if patch == 16:
            assert len(ds) == 1681
        assert np.array_equal(ds.descriptors, self.per_bin(texture, params))

    @pytest.mark.parametrize("patch", [8, 12, 16, 20])
    @pytest.mark.parametrize("count", [1, 255, 256, 257, 513])
    def test_patch_counts_around_the_block_size(self, texture, patch, count):
        # one row of `count` patches at stride 1, cut from the texture tiled sideways
        assert BLOCK_PATCHES == 256
        pixels = np.tile(texture, (1, 3))[:patch, : patch - 1 + count]
        params = GridParams(stride=1, patch_size=patch)
        ds = extract_dense_sift(Image(pixels=pixels), params)
        assert len(ds) == count
        assert np.array_equal(ds.descriptors, self.per_bin(pixels, params))

    def test_step_edges_at_plus_minus_pi_and_signed_zero(self):
        # a bright stripe on a floor of signed zeros: left of it gx > 0, right
        # of it gx < 0, and gy is -0.0 or +0.0, so theta takes -0.0, +0.0,
        # -pi and +pi
        floor = np.where((np.arange(16) // 2) % 2 == 0, 0.0, -0.0)
        patch = np.repeat(floor[:, np.newaxis], 16, axis=1)
        patch[:, 6:10] = 200.0
        padded = np.pad(patch, 1, mode="edge")
        theta = np.arctan2((padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0,
                           (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0)
        assert {np.pi, -np.pi} <= set(theta.ravel().tolist())
        assert np.signbit(theta[theta == 0.0]).any() and not np.signbit(theta[theta == 0.0]).all()
        patches = np.stack([patch, patch[:, ::-1], patch.T, -patch])
        assert np.array_equal(features._describe_patches(patches),
                              describe_patches_per_bin(patches))

        pixels = np.zeros((16, 40), np.uint8)
        pixels[:, :20] = 255  # gx < 0, gy = +0.0: theta = +pi
        params = GridParams(stride=1)
        assert np.array_equal(extract_dense_sift(Image(pixels=pixels), params).descriptors,
                              self.per_bin(pixels, params))


class TestReusedMassArray:
    """Every block of an image refills one orientation-mass array, so no
    block may see the masses an earlier block left in it."""

    @pytest.mark.parametrize("count", [257, 513])
    def test_flat_patch_after_a_textured_block_is_zero(self, count):
        # one row of `count` patches at stride 1; the first patch of each
        # later block is flat, while the first patch of the first is not
        assert BLOCK_PATCHES == 256
        texture = render_texture(textures8_specs()[4], 256, np.random.default_rng(14)).pixels
        pixels = np.tile(texture, (1, 3))[:16, : 15 + count].copy()
        firsts = range(BLOCK_PATCHES, count, BLOCK_PATCHES)
        for first in firsts:
            pixels[:, first : first + 16] = 128
        ds = extract_dense_sift(Image(pixels=pixels), GridParams(stride=1))
        assert ds.descriptors[0].any()
        for first in firsts:
            assert not ds.descriptors[first].any()
        windows = sliding_window_view(pixels, (16, 16))[0]
        assert np.array_equal(ds.descriptors, describe_patches_per_bin(windows))

    def test_prefilled_array_gives_the_fresh_array_bytes(self):
        # the step-edge stack of TestBlockedKernel, through arrays larger than it
        floor = np.where((np.arange(16) // 2) % 2 == 0, 0.0, -0.0)
        patch = np.repeat(floor[:, np.newaxis], 16, axis=1)
        patch[:, 6:10] = 200.0
        patches = np.stack([patch, patch[:, ::-1], patch.T, -patch])
        garbage = np.random.default_rng(2).uniform(-1e3, 1e3, (7, 8, 256))
        fresh = features._describe_patches(patches)
        assert fresh.any()
        assert np.array_equal(features._describe_patches(patches, garbage), fresh)
        assert np.array_equal(fresh, describe_patches_per_bin(patches))


class TestGradientTables:
    def test_every_difference_pair_gives_the_oracle_bytes(self):
        # every (dx, dy) in [-255, 255]^2 at one of 16 pixels of a 12x12
        # patch, 3 apart, so that no two share a neighbour: pixel (r, c)
        # takes dx across its row neighbours and dy across its column ones
        d = np.arange(-255, 256)
        dx, dy = (np.resize(a.ravel(), (-(-a.size // 16), 16)) for a in np.meshgrid(d, d))
        centers = [(r, c) for r in (1, 4, 7, 10) for c in (1, 4, 7, 10)]
        pixels = np.zeros((len(dx), 12, 12), np.int64)
        for i, (r, c) in enumerate(centers):
            pixels[:, r, c - 1] = np.maximum(-dx[:, i], 0)
            pixels[:, r, c + 1] = pixels[:, r, c - 1] + dx[:, i]
            pixels[:, r - 1, c] = np.maximum(-dy[:, i], 0)
            pixels[:, r + 1, c] = pixels[:, r - 1, c] + dy[:, i]
        seen = [(pixels[:, r, c + 1] - pixels[:, r, c - 1]) * 511
                + pixels[:, r + 1, c] - pixels[:, r - 1, c] for r, c in centers]
        assert np.unique(seen).size == 511 * 511
        patches = pixels.astype(np.uint8)
        assert np.array_equal(patches, pixels)
        for start in range(0, len(patches), 2048):
            block = patches[start : start + 2048]
            assert np.array_equal(features._describe_patches(block),
                                  describe_patches_per_bin(block))

    def test_tables_are_read_only(self):
        for table in features.gradient_tables():
            with pytest.raises(ValueError):
                table[0] = 1


class TestDescriptorSet:
    @pytest.mark.parametrize("n", [14, 16])
    def test_count_that_is_not_the_grid_raises(self, n):
        # a 40x28 image holds 5 x 3 points
        with pytest.raises(ValueError, match=f"{n} descriptors for a 40x28 image"):
            DescriptorSet(np.zeros((n, 128), np.uint8), 40, 28, GridParams(), "x.pgm")

    def test_points_are_derived_not_stored(self, tmp_path):
        params = GridParams(stride=5)
        extracted = extract_dense_sift(random_image(41, 30, 7), params)
        save_descriptor_cache(tmp_path / "x.desc", extracted)
        loaded = load_descriptor_cache(tmp_path / "x.desc", params)
        built = DescriptorSet(extracted.descriptors, 41, 30, params, "x.pgm")
        for ds in (extracted, loaded, built):
            assert "keypoints" not in vars(ds)
            assert ds.keypoints.dtype == np.int32
            assert np.array_equal(ds.keypoints, dense_grid(41, 30, params))
            assert len(ds) == len(ds.keypoints) == 6 * 3

    def test_image_smaller_than_a_patch_raises(self):
        with pytest.raises(ValueError, match="image 15x20 smaller than one 16-pixel patch"):
            extract_dense_sift(random_image(15, 20), GridParams())


class TestDescriptorCache:
    def test_round_trip(self, tmp_path):
        params = GridParams()
        ds = extract_dense_sift(random_image(48, 48, 5), params, source="x.pgm")
        path = tmp_path / "x.desc"
        save_descriptor_cache(path, ds)
        back = load_descriptor_cache(path, params, source_image="x.pgm")
        assert np.array_equal(back.keypoints, ds.keypoints)
        assert np.array_equal(back.descriptors, ds.descriptors)
        assert back.source_image == "x.pgm"

    def test_params_mismatch_rejected(self, tmp_path):
        params = GridParams()
        ds = extract_dense_sift(random_image(32, 32, 6), params)
        path = tmp_path / "x.desc"
        save_descriptor_cache(path, ds)
        with pytest.raises(ValueError, match="stride"):
            load_descriptor_cache(path, GridParams(stride=8))

    def test_layout_matches_docstring(self, tmp_path):
        # the documented version-2 layout, built field by field with struct
        params = GridParams(stride=5, patch_size=12)
        descriptors = (np.arange(6 * 128) % 251).astype(np.uint8).reshape(6, 128)
        want = b"BVWD" + struct.pack("<7I", 2, 6, 128, 5, 12, 23, 17) + descriptors.tobytes()
        path = tmp_path / "x.desc"
        # a 23x17 image holds 3 columns x 2 rows
        save_descriptor_cache(path, DescriptorSet(descriptors, 23, 17, params, "x.pgm"))
        assert path.read_bytes() == want
        back = load_descriptor_cache(path, params)
        assert back.keypoints.dtype == np.int32
        assert np.array_equal(back.keypoints, dense_grid(23, 17, params))
        assert np.array_equal(back.descriptors, descriptors)
        assert back.descriptors.flags.c_contiguous and back.descriptors.flags.writeable

    def test_file_size_of_a_256_square_image(self, tmp_path):
        descriptors = np.zeros((1681, 128), np.uint8)
        path = tmp_path / "x.desc"
        save_descriptor_cache(path, DescriptorSet(descriptors, 256, 256, GridParams(), ""))
        assert path.stat().st_size == 32 + 128 * 1681 == 215_200

    @pytest.mark.parametrize("width, height", [(40, 34), (34, 40), (46, 28), (15, 1000),
                                               (0, 0), (2**32 - 1, 28), (40, 2**32 - 1)])
    def test_size_that_disagrees_with_n_raises(self, tmp_path, width, height):
        # a 40x28 image holds 5 x 3 points; none of these sizes does
        params = GridParams()
        header = struct.pack("<6I", 15, 128, 6, 16, width, height)
        path = tmp_path / "x.desc"
        path.write_bytes(b"BVWD" + struct.pack("<I", 2) + header + bytes(15 * 128))
        with pytest.raises(ValueError, match=f"15 descriptors for a {width}x{height} image"):
            load_descriptor_cache(path, params)

    def test_dims_other_than_128_raise(self, tmp_path):
        # a whole 64-dim file of one 16x16 patch: the set's dims check names the file
        path = tmp_path / "x.desc"
        path.write_bytes(b"BVWD" + struct.pack("<7I", 2, 1, 64, 6, 16, 16, 16) + bytes(64))
        with pytest.raises(ValueError, match=re.escape(f"{path}: descriptors must have 128 dims")):
            load_descriptor_cache(path, GridParams())

    def test_version_1_file_raises(self, tmp_path):
        # version 1 stored an (x, y) u32 pair before each descriptor
        path = tmp_path / "x.desc"
        path.write_bytes(b"BVWD" + struct.pack("<5I", 1, 1, 128, 6, 16)
                         + struct.pack("<2I", 8, 8) + bytes(128))
        with pytest.raises(ValueError, match="unsupported descriptor cache version 1"):
            load_descriptor_cache(path, GridParams())

    def test_key_depends_on_params_and_path(self, tmp_path):
        a = cache_path(tmp_path, "im.pgm", GridParams())
        b = cache_path(tmp_path, "im.pgm", GridParams(stride=8))
        c = cache_path(tmp_path, "other.pgm", GridParams())
        assert len({a, b, c}) == 3
