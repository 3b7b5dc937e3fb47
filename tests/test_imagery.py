import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import map_coordinates

from uasnav.errors import ConfigError, CoverageError
from uasnav.grid import GridSpec, LandmarkId, landmark_position
from uasnav.imagery import (
    MAX_WORLD_PIXELS,
    OBS_HEIGHT,
    OBS_WIDTH,
    PerturbationSpec,
    Pose,
    WorldSpec,
    _value_noise,
    build_world,
    check_world_coverage,
    half_window_m,
    landmark_descriptor_image,
    render_observation,
    required_world_bounds,
)
from uasnav.matching import detect_keypoints
from uasnav.raster import GeoRegistration, RasterImage, to_gray


# sha256 of the default world's pixel bytes, as built by the scipy
# map_coordinates synthesis that the separable kernel replaced
DEFAULT_WORLD_SHA256 = "36575ac8ecb488638589bbfca1b563ccdf352bf854728fbff61e7f0c8a6092ff"


def _reference_value_noise(rng, shape, cell_px):
    """The earlier ``_value_noise``: full-raster coordinate grids through
    scipy's order-1 ``map_coordinates``."""
    h, w = shape
    coarse = rng.uniform(0.0, 1.0, (h // cell_px + 2, w // cell_px + 2))
    yy, xx = np.meshgrid(
        np.arange(h, dtype=np.float64) / cell_px,
        np.arange(w, dtype=np.float64) / cell_px,
        indexing="ij",
    )
    return map_coordinates(coarse, [yy, xx], order=1, mode="nearest")


class TestBuildWorld:
    def test_default_world_bytes_are_pinned(self, world_and_reg):
        world, _ = world_and_reg
        assert world.pixels.shape == (1720, 2240, 3)
        assert hashlib.sha256(world.pixels.tobytes()).hexdigest() == DEFAULT_WORLD_SHA256

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 300), st.integers(1, 300)),
        cell_px=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_noise_is_bit_identical_to_reference(self, shape, cell_px, seed):
        got = _value_noise(np.random.default_rng(seed), shape, cell_px)
        ref = _reference_value_noise(np.random.default_rng(seed), shape, cell_px)
        assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape == shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_traced_peak_is_at_most_seven_planes(self, grid):
        # the scipy synthesis peaked at 11.0 float64 world planes, this one at 5.4
        tracemalloc.start()
        try:
            world, _ = build_world(grid, WorldSpec())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * world.width * world.height * 8

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gsd", math.nan),
            ("gsd", math.inf),
            ("margin_x_m", math.nan),
            ("margin_x_m", math.inf),
            ("margin_y_m", math.nan),
            ("margin_y_m", -math.inf),
        ],
    )
    def test_non_finite_world_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match="gsd" if field == "gsd" else "margins"):
            WorldSpec(**{field: value})

    def test_extent_covers_grid_plus_half_window(self, world_and_reg, grid):
        world, reg = world_and_reg
        # derived bound: (360 + 160 m) x (270 + 120 m) at 0.25 m/px
        assert world.width >= 2080
        assert world.height >= 1560
        west, south, east, north = required_world_bounds(grid, reg.gsd)
        p = reg.world_to_pixel(np.array([[west, north], [east, south]]))
        assert p.min() >= 0
        assert p[:, 0].max() <= world.width - 1
        assert p[:, 1].max() <= world.height - 1

    def test_synthesis_is_deterministic(self, world_and_reg, grid):
        world, reg = world_and_reg
        again, reg2 = build_world(grid, WorldSpec())
        assert reg2 == reg
        assert np.array_equal(again.pixels, world.pixels)

    def test_different_seed_differs(self, world_and_reg, grid):
        world, _ = world_and_reg
        other, _ = build_world(grid, WorldSpec(seed=100))
        assert not np.array_equal(other.pixels, world.pixels)

    @pytest.mark.parametrize("gsd", [1e-310, 0.05])
    def test_world_over_the_pixel_bound_rejected(self, grid, gsd):
        # 1e-310 m/px overflows the side lengths to inf; 0.05 m/px is 96 Mpx
        assert (grid.extent[0] + 200.0) * (grid.extent[1] + 160.0) / 0.05**2 > MAX_WORLD_PIXELS
        with pytest.raises(ConfigError, match="px bound"):
            build_world(grid, WorldSpec(gsd=gsd))

    def test_margin_smaller_than_half_window_rejected(self, grid):
        with pytest.raises(CoverageError):
            build_world(grid, WorldSpec(margin_x_m=10.0))

    def test_ingest_coverage_check(self, grid):
        small = RasterImage(np.zeros((100, 100, 3), dtype=np.uint8))
        reg = GeoRegistration(gsd=0.25, origin=(-100.0, 350.0))
        with pytest.raises(CoverageError):
            check_world_coverage(small, reg, grid)

    def test_ingest_accepts_valid_world(self, world_and_reg, grid):
        world, reg = world_and_reg
        check_world_coverage(world, reg, grid)


class TestDescriptorImage:
    def test_size_and_channels(self, world_and_reg, grid):
        world, reg = world_and_reg
        crop = landmark_descriptor_image(world, reg, grid, LandmarkId(3, 7))
        assert (crop.width, crop.height, crop.channels) == (OBS_WIDTH, OBS_HEIGHT, 3)

    def test_center_pixel_is_landmark_pixel(self, world_and_reg, grid):
        world, reg = world_and_reg
        for lid in (LandmarkId(0, 0), LandmarkId(5, 5), LandmarkId(9, 9)):
            crop = landmark_descriptor_image(world, reg, grid, lid)
            p = reg.world_to_pixel(landmark_position(grid, lid))
            world_px = world.pixels[int(round(p[1])), int(round(p[0]))]
            assert np.array_equal(crop.pixels[OBS_HEIGHT // 2, OBS_WIDTH // 2], world_px)

    def test_distinct_landmarks_have_distinct_crops(self, world_and_reg, grid):
        world, reg = world_and_reg
        a = landmark_descriptor_image(world, reg, grid, LandmarkId(2, 2))
        b = landmark_descriptor_image(world, reg, grid, LandmarkId(2, 3))
        assert not np.array_equal(a.pixels, b.pixels)

    def test_window_outside_world_rejected(self, world_and_reg):
        world, _ = world_and_reg
        # registration that puts landmark (0,0) a few pixels from the border
        shifted = GeoRegistration(gsd=0.25, origin=(-2.0, 5.0))
        with pytest.raises(CoverageError):
            landmark_descriptor_image(world, shifted, GridSpec(), LandmarkId(0, 0))

    def test_every_landmark_has_enough_keypoints(self, world_and_reg, grid):
        world, reg = world_and_reg
        for lid in grid.all_landmarks():
            crop = landmark_descriptor_image(world, reg, grid, lid)
            kps = detect_keypoints(to_gray(crop), max_keypoints=1000)
            assert len(kps) >= 200, f"landmark ({lid.col},{lid.row}) has only {len(kps)} keypoints"


def _reference_bilinear(pixels: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The interleaved float32 bilinear gather that render_observation
    used before its planar rewrite; the byte-exact reference."""
    h, w = pixels.shape[:2]
    x0f = np.floor(px)
    y0f = np.floor(py)
    fx = (px - x0f).astype(np.float32)
    fy = (py - y0f).astype(np.float32)
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    flat = pixels.reshape(h * w, -1)
    i00 = y0 * w + x0
    i01 = y0 * w + x1
    i10 = y1 * w + x0
    i11 = y1 * w + x1
    p00 = flat[i00].astype(np.float32)
    p01 = flat[i01].astype(np.float32)
    p10 = flat[i10].astype(np.float32)
    p11 = flat[i11].astype(np.float32)
    fx = fx[..., None]
    fy = fy[..., None]
    top = p00 * (1.0 - fx) + p01 * fx
    bot = p10 * (1.0 - fx) + p11 * fx
    out = top * (1.0 - fy) + bot * fy
    if pixels.ndim == 2:
        return out[..., 0]
    return out


def _reference_render(world, reg, pose, perturb):
    """render_observation as it was while it rendered every channel: the
    same draws and coordinates, the interleaved gather, then the intensity
    map over all channels at once, rounded to uint8."""
    rng = np.random.default_rng(perturb.rng_seed)
    theta = pose.heading
    if perturb.rotation_jitter > 0.0:
        theta += rng.uniform(-perturb.rotation_jitter, perturb.rotation_jitter)
    cx, cy = pose.x, pose.y
    if perturb.translation_jitter > 0.0:
        radius = rng.uniform(0.0, perturb.translation_jitter)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cx += radius * math.cos(phi)
        cy += radius * math.sin(phi)
    du, dv = np.meshgrid(
        np.arange(OBS_WIDTH, dtype=np.float64) - OBS_WIDTH / 2.0,
        np.arange(OBS_HEIGHT, dtype=np.float64) - OBS_HEIGHT / 2.0,
    )
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    wx = cx + reg.gsd * (du * cos_t - dv * sin_t)
    wy = cy - reg.gsd * (du * sin_t + dv * cos_t)
    px = (wx - reg.origin[0]) / reg.gsd
    py = (reg.origin[1] - wy) / reg.gsd
    values = _reference_bilinear(world.pixels, px, py).astype(np.float64)
    values = perturb.gain * values + perturb.bias
    if perturb.noise_sigma > 0.0:
        noise = rng.normal(0.0, perturb.noise_sigma, values.shape[:2])
        values = values + (noise[..., None] if values.ndim == 3 else noise)
    return np.rint(np.clip(values, 0.0, 255.0)).astype(np.uint8)


@pytest.fixture(scope="module")
def gray_world(world_and_reg):
    world, _ = world_and_reg
    return RasterImage(np.ascontiguousarray(world.pixels[:, :, 1]))


def _assert_near_reference(world, reg, pose, perturb):
    """The gray render is within half a gray level of the luminance of the
    RGB-era reference wherever no reference channel is clipped: the Rec. 601
    weights sum to 1, so only the reference's per-channel rounding differs."""
    obs = render_observation(world, reg, pose, perturb)
    ref = _reference_render(world, reg, pose, perturb)
    assert obs.dtype == np.float32 and obs.shape == (OBS_HEIGHT, OBS_WIDTH)
    inside = (ref > 0) & (ref < 255)
    unclipped = inside.all(axis=-1) if ref.ndim == 3 else inside
    error = np.abs(obs - to_gray(RasterImage(ref)))[unclipped]
    assert error.size == 0 or error.max() <= 0.5 + 1e-3


class TestRenderMatchesReference:
    @pytest.mark.parametrize("gray", [False, True])
    def test_identity_render_is_gray_of_reference(self, world_and_reg, gray_world, grid, gray):
        # unrotated, unperturbed and on whole pixels: bit for bit
        world, reg = world_and_reg
        w = gray_world if gray else world
        for cell, (dx, dy) in (((1, 1), (0.0, 0.0)), ((4, 6), (1.25, -0.5)), ((8, 3), (-4.75, 3.0))):
            x, y = landmark_position(grid, LandmarkId(*cell))
            pose = Pose(x + dx, y + dy)
            obs = render_observation(w, reg, pose)
            ref = _reference_render(w, reg, pose, PerturbationSpec())
            assert obs.dtype == np.float32 and obs.shape == (OBS_HEIGHT, OBS_WIDTH)
            assert np.array_equal(obs, to_gray(RasterImage(ref)).astype(np.float32))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        cell=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        whole_pixel=st.booleans(),
        offset=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        heading=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        rotation_jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        translation_jitter=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        gain=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
        bias=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
        noise_sigma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        seed=st.integers(0, 2**32 - 1),
        gray=st.booleans(),
    )
    def test_render_is_within_half_a_level_of_reference(
        self, world_and_reg, gray_world, grid, cell, whole_pixel, offset, heading,
        rotation_jitter, translation_jitter, gain, bias, noise_sigma, seed, gray,
    ):
        world, reg = world_and_reg
        x, y = landmark_position(grid, LandmarkId(*cell))
        dx, dy = offset
        if whole_pixel:
            dx, dy = reg.gsd * round(dx / reg.gsd), reg.gsd * round(dy / reg.gsd)
        perturb = PerturbationSpec(
            gain=gain, bias=bias, noise_sigma=noise_sigma, rotation_jitter=rotation_jitter,
            translation_jitter=translation_jitter, rng_seed=seed,
        )
        _assert_near_reference(gray_world if gray else world, reg, Pose(x + dx, y + dy, heading), perturb)

    def test_whole_pixel_render_with_intensity_map(self, world_and_reg, gray_world, grid):
        # unrotated and on whole pixels: the slice path, under a non-identity map
        world, reg = world_and_reg
        x, y = landmark_position(grid, LandmarkId(4, 6))
        for w in (world, gray_world):
            for perturb in (
                PerturbationSpec(),
                PerturbationSpec(gain=1.3),
                PerturbationSpec(bias=-7.0),
                PerturbationSpec(gain=0.8, bias=12.0, noise_sigma=3.0, rng_seed=5),
            ):
                _assert_near_reference(w, reg, Pose(x + 1.25, y - 0.5), perturb)

    def test_samples_on_last_column_and_row(self):
        # fractional in one axis, flush with the raster's far edge in the other
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, (OBS_HEIGHT + 9, OBS_WIDTH + 13, 3), dtype=np.uint8)
        reg = GeoRegistration(gsd=0.25, origin=(0.0, pixels.shape[0] * 0.25))
        last_x = reg.origin[0] + (pixels.shape[1] - 1 - OBS_WIDTH / 2 + 1) * reg.gsd
        last_y = reg.origin[1] - (pixels.shape[0] - 1 - OBS_HEIGHT / 2 + 1) * reg.gsd
        for world in (RasterImage(pixels), RasterImage(np.ascontiguousarray(pixels[:, :, 0]))):
            for pose in (Pose(last_x, last_y + 0.1), Pose(last_x - 0.1, last_y), Pose(last_x, last_y)):
                _assert_near_reference(world, reg, pose, PerturbationSpec(gain=1.1, bias=2.0))


# sha256 of the float32 frames of _pinned_renders, as rendered through a
# cached 2-D offset grid and a zero-tailed gather buffer
PINNED_RENDER_SHA256 = "82582c07202d59907141d2832aed6953f33644a882db238d6b5a21ba43e6091b"


def _pinned_renders(world, gray_world, reg, grid):
    """Fixed frames on the default world (RGB and gray): whole-pixel
    identity, rotated with gain, bias and noise, and fractional unrotated;
    then frames flush with a small world's last column or row."""
    x, y = landmark_position(grid, LandmarkId(4, 6))
    perturbed = PerturbationSpec(
        gain=1.2, bias=-9.0, noise_sigma=3.0, rotation_jitter=0.15, translation_jitter=4.0, rng_seed=7,
    )
    cases = ((Pose(x, y), PerturbationSpec()), (Pose(x + 0.3, y - 1.7, 0.05), perturbed),
             (Pose(x + 0.1, y - 0.35), PerturbationSpec()))
    for w in (world, gray_world):
        for pose, perturb in cases:
            yield render_observation(w, reg, pose, perturb)
    pixels = np.random.default_rng(3).integers(0, 256, (OBS_HEIGHT + 9, OBS_WIDTH + 13, 3), dtype=np.uint8)
    small_reg = GeoRegistration(gsd=0.25, origin=(0.0, pixels.shape[0] * 0.25))
    last_x = (pixels.shape[1] - OBS_WIDTH / 2) * 0.25
    last_y = small_reg.origin[1] - (pixels.shape[0] - OBS_HEIGHT / 2) * 0.25
    for small in (RasterImage(pixels), RasterImage(np.ascontiguousarray(pixels[:, :, 0]))):
        for pose in (Pose(last_x, last_y + 0.1), Pose(last_x - 0.1, last_y)):
            yield render_observation(small, small_reg, pose, PerturbationSpec(gain=1.1, bias=2.0))


def test_render_bytes_are_pinned(world_and_reg, gray_world, grid):
    world, reg = world_and_reg
    digest = hashlib.sha256()
    for frame in _pinned_renders(world, gray_world, reg, grid):
        assert frame.dtype == np.float32 and frame.shape == (OBS_HEIGHT, OBS_WIDTH)
        digest.update(frame.tobytes())
    assert digest.hexdigest() == PINNED_RENDER_SHA256


class TestRenderObservation:
    def test_identity_render_matches_descriptor_crop(self, world_and_reg, grid):
        world, reg = world_and_reg
        for lid in (LandmarkId(0, 0), LandmarkId(5, 5), LandmarkId(9, 9)):
            pos = landmark_position(grid, lid)
            obs = render_observation(world, reg, Pose(pos[0], pos[1]))
            crop = landmark_descriptor_image(world, reg, grid, lid)
            assert obs.dtype == np.float32 and obs.shape == (OBS_HEIGHT, OBS_WIDTH)
            assert np.array_equal(obs, to_gray(crop).astype(np.float32))

    def test_gain_bias_pointwise(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(4, 4))
        base = render_observation(world, reg, Pose(pos[0], pos[1]))
        mapped = render_observation(
            world, reg, Pose(pos[0], pos[1]), PerturbationSpec(gain=1.3, bias=10.0)
        )
        # float32 arithmetic, clamped and not rounded
        assert np.array_equal(mapped, np.clip(1.3 * base + 10.0, 0, 255))

    def test_quarter_turn_differs(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(5, 5))
        straight = render_observation(world, reg, Pose(pos[0], pos[1], 0.0))
        turned = render_observation(world, reg, Pose(pos[0], pos[1], math.pi / 2))
        assert not np.array_equal(straight, turned)

    def test_render_is_seed_deterministic(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(2, 6))
        perturb = PerturbationSpec(
            gain=0.9, bias=-5.0, noise_sigma=4.0,
            rotation_jitter=0.05, translation_jitter=3.0, rng_seed=77,
        )
        a = render_observation(world, reg, Pose(pos[0], pos[1]), perturb)
        b = render_observation(world, reg, Pose(pos[0], pos[1]), perturb)
        assert np.array_equal(a, b)

    def test_noise_changes_pixels(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(2, 6))
        clean = render_observation(world, reg, Pose(pos[0], pos[1]))
        noisy = render_observation(
            world, reg, Pose(pos[0], pos[1]), PerturbationSpec(noise_sigma=4.0, rng_seed=1)
        )
        assert not np.array_equal(clean, noisy)

    def test_footprint_outside_world_rejected(self, world_and_reg):
        world, reg = world_and_reg
        west_edge_x = reg.origin[0] + 10 * reg.gsd
        with pytest.raises(CoverageError):
            render_observation(world, reg, Pose(west_edge_x, 100.0))

    def test_nan_pose_is_coverage_error(self, world_and_reg, grid):
        world, reg = world_and_reg
        x, y = landmark_position(grid, LandmarkId(5, 5))
        for pose in (Pose(math.nan, y), Pose(x, math.nan)):
            with pytest.raises(CoverageError):
                render_observation(world, reg, pose)

    def test_heading_validation(self):
        with pytest.raises(ValueError):
            Pose(0.0, 0.0, heading=math.pi)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(gain=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec(noise_sigma=-1.0)

    @pytest.mark.parametrize("field", ["gain", "bias", "noise_sigma", "rotation_jitter", "translation_jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_perturbation_rejected(self, field, value):
        with pytest.raises(ValueError):
            PerturbationSpec(**{field: value})


def test_half_window_values():
    assert half_window_m(0.25) == (80.0, 60.0)
