"""Raster world model: synthetic orthophoto generation, landmark
descriptor crops, and perturbed nadir-view rendering.

The ground sample distance defaults to 0.25 m/px so a 640x480 observation
covers 160 m x 120 m: neighboring landmarks (40 m / 30 m away) stay inside
the current view's footprint, which is what makes neighbor matching see
overlapping texture. Synthetic worlds are built from noise octaves,
block-like parcels, and road bands so every observation window carries
hundreds of detectable corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoverageError
from .grid import GridSpec, LandmarkId, landmark_position
from .raster import GeoRegistration, RasterImage, to_gray

OBS_WIDTH = 640
OBS_HEIGHT = 480
# synthetic world area bound, 13x the default world; the build peaks near
# 5.4 float64 world planes, some 2.2 GB at this bound
MAX_WORLD_PIXELS = 50_000_000


@dataclass(frozen=True)
class Pose:
    """World position and heading (radians, 0 = north; positive rotates the
    view clockwise toward east). Reference missions fly north-oriented."""

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        if not -math.pi <= self.heading < math.pi:
            raise ValueError(f"heading must be in [-pi, pi), got {self.heading}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Appearance/pose perturbation applied to a rendered observation.

    ``rotation_jitter`` and ``translation_jitter`` are magnitude bounds;
    the draws are uniform in angle and radius. Identity == all zeros with
    gain 1. Draw order per render is fixed: rotation, translation, noise.
    """

    gain: float = 1.0
    bias: float = 0.0
    noise_sigma: float = 0.0
    rotation_jitter: float = 0.0  # radians
    translation_jitter: float = 0.0  # meters
    rng_seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError("gain must be positive and finite")
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")
        magnitudes = (self.noise_sigma, self.rotation_jitter, self.translation_jitter)
        if not all(math.isfinite(v) and v >= 0 for v in magnitudes):
            raise ValueError("jitter magnitudes must be non-negative and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class WorldSpec:
    """Synthesis parameters for the procedural orthophoto.

    Margins must cover at least the observation half-window (so every
    landmark can be cropped); the defaults leave extra room for rotated
    and translation-jittered footprints near boundary landmarks.
    """

    seed: int = 99
    gsd: float = 0.25
    margin_x_m: float = 100.0
    margin_y_m: float = 80.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.gsd) and self.gsd > 0):
            raise ValueError("gsd must be positive and finite")
        if not (math.isfinite(self.margin_x_m) and math.isfinite(self.margin_y_m)):
            raise ValueError("margins must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def half_window_m(gsd: float) -> tuple[float, float]:
    return (OBS_WIDTH / 2.0) * gsd, (OBS_HEIGHT / 2.0) * gsd


def required_world_bounds(grid: GridSpec, gsd: float) -> tuple[float, float, float, float]:
    """Minimum (west, south, east, north) the world must cover: the grid
    extent expanded by one observation half-window on every side."""
    half_w, half_h = half_window_m(gsd)
    ox, oy = grid.origin
    ex, ey = grid.extent
    return ox - half_w, oy - half_h, ox + ex + half_w, oy + ey + half_h


def check_world_coverage(world: RasterImage, reg: GeoRegistration, grid: GridSpec) -> None:
    """Raise ``CoverageError`` unless the raster covers the grid plus one half-window."""
    west, south, east, north = required_world_bounds(grid, reg.gsd)
    corners = np.array([[west, north], [east, north], [west, south], [east, south]])
    p = reg.world_to_pixel(corners)
    if (
        p[:, 0].min() < 0
        or p[:, 1].min() < 0
        or p[:, 0].max() > world.width - 1
        or p[:, 1].max() > world.height - 1
    ):
        raise CoverageError(
            f"world raster {world.width}x{world.height} does not cover the grid "
            f"extent plus one observation half-window margin"
        )


def _value_noise(rng: np.random.Generator, shape: tuple[int, int], cell_px: int) -> np.ndarray:
    """Bilinear value noise in [0, 1] with the given lattice pitch: the bits of
    scipy's ``map_coordinates(coarse, pixel / cell_px, order=1)``, computed
    separably. As in scipy, an axis's far weight is one minus its near weight,
    and each sample sums value * y weight * x weight corner by corner. Two spare
    lattice rows and columns keep the far corner in range: no edge mode applies."""
    coarse = rng.uniform(0.0, 1.0, (shape[0] // cell_px + 2, shape[1] // cell_px + 2))
    (y0, wy0, wy1), (x0, wx0, wx1) = (_lattice_weights(n, cell_px) for n in shape)
    top = coarse[y0] * wy0[:, None]
    bot = coarse[y0 + 1] * wy1[:, None]
    out = top[:, x0] * wx0
    out += top[:, x0 + 1] * wx1
    out += bot[:, x0] * wx0
    out += bot[:, x0 + 1] * wx1
    return out


def _lattice_weights(n: int, cell_px: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice index and near and far weights of pixels ``0..n-1``."""
    c = np.arange(n, dtype=np.float64) / cell_px
    i0 = np.floor(c)
    w0 = 1.0 - (c - i0)
    return i0.astype(np.intp), w0, 1.0 - w0


def _paint_parcels(rng: np.random.Generator, gray: np.ndarray) -> None:
    """Block-like parcels with contrasting fill and a darker rim; their
    corners dominate the detector response."""
    h, w = gray.shape
    pitch = 144
    for py0 in range(0, h - pitch, pitch):
        for px0 in range(0, w - pitch, pitch):
            if rng.random() >= 0.6:
                continue
            bw = int(rng.integers(40, 104))
            bh = int(rng.integers(36, 92))
            x0 = px0 + int(rng.integers(4, max(5, pitch - bw - 4)))
            y0 = py0 + int(rng.integers(4, max(5, pitch - bh - 4)))
            shade = float(rng.uniform(-48.0, 52.0))
            gray[y0:y0 + bh, x0:x0 + bw] += shade
            rim = -28.0 if shade > 0 else 24.0
            gray[y0:y0 + 2, x0:x0 + bw] += rim
            gray[y0 + bh - 2:y0 + bh, x0:x0 + bw] += rim
            gray[y0:y0 + bh, x0:x0 + 2] += rim
            gray[y0:y0 + bh, x0 + bw - 2:x0 + bw] += rim


def _paint_roads(rng: np.random.Generator, gray: np.ndarray) -> None:
    h, w = gray.shape
    for x in range(int(rng.integers(60, 320)), w - 16, 384):
        x0 = x + int(rng.integers(-40, 40))
        gray[:, x0:x0 + 12] = 54.0
        gray[:, x0 + 5:x0 + 7] += 26.0  # center line
    for y in range(int(rng.integers(60, 280)), h - 16, 320):
        y0 = y + int(rng.integers(-32, 32))
        gray[y0:y0 + 12, :] = 58.0
        gray[y0 + 5:y0 + 7, :] += 26.0


def build_world(grid: GridSpec, spec: WorldSpec = WorldSpec()) -> tuple[RasterImage, GeoRegistration]:
    """Deterministic procedural orthophoto covering the lattice plus margins.

    Pixel (0, 0) sits at the north-west corner; with the default grid,
    spacing, and gsd every landmark lands on an integer pixel, which keeps
    descriptor crops and identity renders bit-exact.
    """
    half_w, half_h = half_window_m(spec.gsd)
    if spec.margin_x_m < half_w or spec.margin_y_m < half_h:
        raise CoverageError(
            f"world margins ({spec.margin_x_m}, {spec.margin_y_m}) m are smaller than the "
            f"observation half-window ({half_w}, {half_h}) m"
        )
    ex, ey = grid.extent
    width_px, height_px = (ex + 2 * spec.margin_x_m) / spec.gsd, (ey + 2 * spec.margin_y_m) / spec.gsd
    if width_px * height_px > MAX_WORLD_PIXELS:  # also when a side overflows to inf
        raise ConfigError(
            f"a {width_px:.3g}x{height_px:.3g} px world exceeds the {MAX_WORLD_PIXELS:,} px bound"
        )
    width, height = math.ceil(width_px), math.ceil(height_px)
    reg = GeoRegistration(
        gsd=spec.gsd,
        origin=(grid.origin[0] - spec.margin_x_m, grid.origin[1] + ey + spec.margin_y_m),
    )

    rng = np.random.default_rng(spec.seed)
    gray = np.full((height, width), 96.0)
    for cell, amp in ((256, 42.0), (96, 20.0), (32, 10.0)):
        gray += amp * (2.0 * _value_noise(rng, gray.shape, cell) - 1.0)
    _paint_parcels(rng, gray)
    _paint_roads(rng, gray)
    gray += rng.integers(-8, 9, gray.shape)
    np.clip(gray, 8.0, 247.0, out=gray)

    pixels = np.empty((height, width, 3), dtype=np.uint8)
    for ch, (lo, hi) in enumerate(((0.88, 1.10), (0.92, 1.12), (0.82, 1.04))):
        tint = gray * (lo + (hi - lo) * _value_noise(rng, gray.shape, 192))
        pixels[:, :, ch] = np.rint(np.clip(tint, 0.0, 255.0, out=tint), out=tint)

    world = RasterImage(pixels=pixels)
    check_world_coverage(world, reg, grid)
    return world, reg


def landmark_descriptor_image(
    world: RasterImage,
    reg: GeoRegistration,
    grid: GridSpec,
    lid: LandmarkId,
) -> RasterImage:
    """640x480 north-up crop whose pixel (320, 240) is the landmark position
    (within half a pixel; the crop window is snapped to whole pixels so the
    bytes come straight from the world raster)."""
    center = reg.world_to_pixel(landmark_position(grid, lid))
    ix = int(np.rint(center[0]))
    iy = int(np.rint(center[1]))
    x0, y0 = ix - OBS_WIDTH // 2, iy - OBS_HEIGHT // 2
    if x0 < 0 or y0 < 0 or x0 + OBS_WIDTH > world.width or y0 + OBS_HEIGHT > world.height:
        raise CoverageError(
            f"descriptor window for landmark ({lid.col},{lid.row}) falls outside the world raster"
        )
    return RasterImage(pixels=world.pixels[y0:y0 + OBS_HEIGHT, x0:x0 + OBS_WIDTH].copy())


# view-frame column and row offsets of each pixel from the frame center
_OBS_DU = np.arange(OBS_WIDTH, dtype=np.float64) - OBS_WIDTH / 2.0
_OBS_DV = (np.arange(OBS_HEIGHT, dtype=np.float64) - OBS_HEIGHT / 2.0)[:, None]


def _bilinear(world: RasterImage, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear lookup of the world's luminance at ``(px, py)`` as a float32
    plane; callers must have bounds-checked the coordinates.

    The footprint's bounding window is cut from the world once and turned
    by ``to_gray`` into a flat float32 plane; the four corners are read at
    flat offsets 0, 1, ``ww`` and ``ww + 1`` from one window-local index,
    clipped to the plane. A read past the window's last column or row
    happens only for a sample on the raster's last column or row, whose
    weight there is exactly 0; the value read is a finite luminance of 0 or
    more, so it adds +0. Exact-integer coordinates reproduce the window's
    luminance (their weights are exactly 0/1).
    """
    xa, ya = int(px.min()), int(py.min())
    window = world.pixels[ya:int(py.max()) + 2, xa:int(px.max()) + 2]  # slicing stops at the raster's edge
    ww = window.shape[1]
    flat = to_gray(RasterImage(pixels=window)).astype(np.float32).ravel()
    x0f, y0f = np.floor(px), np.floor(py)
    fx, fy = (px - x0f).astype(np.float32), (py - y0f).astype(np.float32)
    gx, gy = 1.0 - fx, 1.0 - fy
    i00 = (y0f.astype(np.intp) - ya) * ww + (x0f.astype(np.intp) - xa)
    # top = p00 * gx + p01 * fx, bot likewise, out = top * gy + bot * fy, in place
    top = np.take(flat, i00)
    top *= gx
    top += np.take(flat[1:], i00, mode="clip") * fx
    bot = np.take(flat[ww:], i00, mode="clip")
    bot *= gx
    bot += np.take(flat[ww + 1:], i00, mode="clip") * fx
    top *= gy
    bot *= fy
    top += bot
    return top


def _pixel_offset(theta: float, px: np.ndarray, py: np.ndarray) -> tuple[int, int] | None:
    """Whole-pixel origin ``(x, y)`` when the samples are exactly the pixel
    grid shifted by it (an unrotated view on whole pixels), else None."""
    x, y = px[0, 0], py[0, 0]
    if theta != 0.0 or x != math.floor(x) or y != math.floor(y):
        return None
    on_grid = (px == x + np.arange(OBS_WIDTH)).all() and (py == y + np.arange(OBS_HEIGHT)[:, None]).all()
    return (int(x), int(y)) if on_grid else None


def render_observation(
    world: RasterImage,
    reg: GeoRegistration,
    pose: Pose,
    perturb: PerturbationSpec = PerturbationSpec(),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Simulated nadir camera frame at a world pose, as the float32
    ``(OBS_HEIGHT, OBS_WIDTH)`` luminance plane the matcher reads.

    The 640x480 window is centered on the (jittered) position, rotated by
    heading plus rotation jitter, bilinearly resampled from the world's
    luminance (``to_gray`` of the footprint window), then intensity-mapped
    (gain*v + bias, additive Gaussian noise, clamp to [0, 255]) without
    rounding. Zero padding is never used: any sample outside the world
    raises CoverageError. Deterministic given the perturbation seed; pass
    ``rng`` to draw several renders from one stream.

    When the samples land exactly on whole pixels (an unrotated view at a
    whole-pixel offset) the gather is ``to_gray`` of a slice of the world,
    so with gain 1, bias 0 and no noise the frame equals
    ``to_gray(landmark_descriptor_image(...))`` cast to float32.
    """
    if rng is None:
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

    cos_t, sin_t = math.cos(theta), math.sin(theta)
    wx = cx + reg.gsd * (_OBS_DU * cos_t - _OBS_DV * sin_t)
    wy = cy - reg.gsd * (_OBS_DU * sin_t + _OBS_DV * cos_t)
    px = (wx - reg.origin[0]) / reg.gsd
    py = (reg.origin[1] - wy) / reg.gsd

    if not (
        px.min() >= 0.0
        and py.min() >= 0.0
        and px.max() <= world.width - 1
        and py.max() <= world.height - 1
    ):
        raise CoverageError(
            f"observation footprint at ({cx:.1f}, {cy:.1f}) m, heading {theta:.3f} rad "
            f"exceeds the world raster"
        )

    offset = _pixel_offset(theta, px, py)
    if offset is None:
        gray = _bilinear(world, px, py)
    else:
        x0, y0 = offset
        window = world.pixels[y0:y0 + OBS_HEIGHT, x0:x0 + OBS_WIDTH]
        gray = to_gray(RasterImage(pixels=window)).astype(np.float32)
    # gain * v + bias (+ noise), clamped, evaluated in place; the identity
    # map leaves every value as it is
    gray *= perturb.gain
    gray += perturb.bias
    if perturb.noise_sigma > 0.0:
        gray += rng.normal(0.0, perturb.noise_sigma, gray.shape)
    return np.clip(gray, 0.0, 255.0, out=gray)
