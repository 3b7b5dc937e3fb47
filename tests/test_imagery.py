import math

import numpy as np
import pytest

from uasnav.errors import CoverageError
from uasnav.grid import GridSpec, LandmarkId, landmark_position
from uasnav.imagery import (
    OBS_HEIGHT,
    OBS_WIDTH,
    PerturbationSpec,
    Pose,
    WorldSpec,
    build_world,
    half_window_m,
    ingest_world,
    landmark_descriptor_image,
    render_observation,
    required_world_bounds,
)
from uasnav.matching import detect_keypoints
from uasnav.raster import GeoRegistration, RasterImage, to_gray


class TestBuildWorld:
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

    def test_margin_smaller_than_half_window_rejected(self, grid):
        with pytest.raises(CoverageError):
            build_world(grid, WorldSpec(margin_x_m=10.0))

    def test_ingest_coverage_check(self, grid):
        small = RasterImage(np.zeros((100, 100, 3), dtype=np.uint8))
        reg = GeoRegistration(gsd=0.25, origin=(-100.0, 350.0))
        with pytest.raises(CoverageError):
            ingest_world(small, reg, grid)

    def test_ingest_accepts_valid_world(self, world_and_reg, grid):
        world, reg = world_and_reg
        assert ingest_world(world, reg, grid) == (world, reg)


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


class TestRenderObservation:
    def test_identity_render_matches_descriptor_crop(self, world_and_reg, grid):
        world, reg = world_and_reg
        for lid in (LandmarkId(0, 0), LandmarkId(5, 5), LandmarkId(9, 9)):
            pos = landmark_position(grid, lid)
            obs = render_observation(world, reg, Pose(pos[0], pos[1]))
            crop = landmark_descriptor_image(world, reg, grid, lid)
            assert np.array_equal(obs.pixels, crop.pixels)

    def test_gain_bias_pointwise(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(4, 4))
        base = render_observation(world, reg, Pose(pos[0], pos[1]))
        mapped = render_observation(
            world, reg, Pose(pos[0], pos[1]), PerturbationSpec(gain=1.3, bias=10.0)
        )
        expected = np.rint(np.clip(1.3 * base.pixels.astype(np.float64) + 10.0, 0, 255))
        assert np.array_equal(mapped.pixels, expected.astype(np.uint8))

    def test_quarter_turn_differs(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(5, 5))
        straight = render_observation(world, reg, Pose(pos[0], pos[1], 0.0))
        turned = render_observation(world, reg, Pose(pos[0], pos[1], math.pi / 2))
        assert not np.array_equal(straight.pixels, turned.pixels)

    def test_render_is_seed_deterministic(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(2, 6))
        perturb = PerturbationSpec(
            gain=0.9, bias=-5.0, noise_sigma=4.0,
            rotation_jitter=0.05, translation_jitter=3.0, rng_seed=77,
        )
        a = render_observation(world, reg, Pose(pos[0], pos[1]), perturb)
        b = render_observation(world, reg, Pose(pos[0], pos[1]), perturb)
        assert np.array_equal(a.pixels, b.pixels)

    def test_noise_changes_pixels(self, world_and_reg, grid):
        world, reg = world_and_reg
        pos = landmark_position(grid, LandmarkId(2, 6))
        clean = render_observation(world, reg, Pose(pos[0], pos[1]))
        noisy = render_observation(
            world, reg, Pose(pos[0], pos[1]), PerturbationSpec(noise_sigma=4.0, rng_seed=1)
        )
        assert not np.array_equal(clean.pixels, noisy.pixels)

    def test_footprint_outside_world_rejected(self, world_and_reg):
        world, reg = world_and_reg
        west_edge_x = reg.origin[0] + 10 * reg.gsd
        with pytest.raises(CoverageError):
            render_observation(world, reg, Pose(west_edge_x, 100.0))

    def test_heading_validation(self):
        with pytest.raises(ValueError):
            Pose(0.0, 0.0, heading=math.pi)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(gain=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec(noise_sigma=-1.0)


def test_half_window_values():
    assert half_window_m(0.25) == (80.0, 60.0)
