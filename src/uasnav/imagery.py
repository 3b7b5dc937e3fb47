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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoverageError
from .grid import GridSpec, LandmarkId, landmark_position
from .raster import GeoRegistration, RasterImage, to_gray

OBS_WIDTH = 640
OBS_HEIGHT = 480
# synthetic world area bound, 13x the default world; the build peaks near
# 1.5 float64 world planes, some 0.6 GB at this bound
MAX_WORLD_PIXELS = 50_000_000
# rows per synthesis strip: the gray plane and the uint8 raster are the only
# full-size arrays of a build
_STRIP_ROWS = 32


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


INTENSITY_LIMIT = 255.0  # bound on a perturbation's gain, |bias| and noise sigma


@dataclass(frozen=True)
class PerturbationSpec:
    """Appearance/pose perturbation applied to a rendered observation.

    ``rotation_jitter`` and ``translation_jitter`` are magnitude bounds;
    the draws are uniform in angle and radius. Identity == all zeros with
    gain 1. Draw order per render is fixed: rotation, translation, noise.

    ``gain``, ``|bias|`` and ``noise_sigma`` are at most ``INTENSITY_LIMIT``
    (255, the whole gray range). Past it a gain sends every gray level
    above zero past white, a bias alone moves every pixel of a unit-gain
    view past black or white, and the noise swamps the whole range, so no
    view is left to match; within it the float32 intensity map stays finite.
    """

    gain: float = 1.0
    bias: float = 0.0
    noise_sigma: float = 0.0
    rotation_jitter: float = 0.0  # radians
    translation_jitter: float = 0.0  # meters
    rng_seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.gain <= INTENSITY_LIMIT:
            raise ValueError(f"gain must be positive and at most {INTENSITY_LIMIT:g}")
        if not abs(self.bias) <= INTENSITY_LIMIT:
            raise ValueError(f"bias must be within +-{INTENSITY_LIMIT:g}")
        if not 0 <= self.noise_sigma <= INTENSITY_LIMIT:
            raise ValueError(f"noise_sigma must be non-negative and at most {INTENSITY_LIMIT:g}")
        if not all(math.isfinite(v) and v >= 0 for v in (self.rotation_jitter, self.translation_jitter)):
            raise ValueError("jitter magnitudes must be non-negative and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class WorldSpec:
    """Synthesis parameters for the procedural orthophoto.

    A world covers the grid when every landmark's unperturbed frame can be
    rendered (``check_world_coverage``, run before synthesis); the default
    margins leave extra room for rotated and translation-jittered
    footprints near boundary landmarks.
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


# view-frame column and row offsets of each pixel from the frame center
_OBS_DU = np.arange(OBS_WIDTH, dtype=np.float64) - OBS_WIDTH / 2.0
_OBS_DV = (np.arange(OBS_HEIGHT, dtype=np.float64) - OBS_HEIGHT / 2.0)[:, None]


def _frame_pixels(
    reg: GeoRegistration, cx: float, cy: float, theta: float, du: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """World-pixel ``px, py`` of the frame samples at column offsets ``du``
    and row offsets ``dv`` from a frame centered on ``(cx, cy)`` m and turned
    by ``theta``: the one frame geometry of the render and the coverage check."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    wx = cx + reg.gsd * (du * cos_t - dv * sin_t)
    wy = cy - reg.gsd * (du * sin_t + dv * cos_t)
    return (wx - reg.origin[0]) / reg.gsd, (reg.origin[1] - wy) / reg.gsd


def _in_raster(px: np.ndarray, py: np.ndarray, width: int, height: int) -> bool:
    """Whether every sample lies on a ``width`` x ``height`` raster; False
    for a NaN sample."""
    return bool(px.min() >= 0.0 and py.min() >= 0.0 and px.max() <= width - 1 and py.max() <= height - 1)


def check_world_coverage(width: int, height: int, reg: GeoRegistration, grid: GridSpec) -> None:
    """Raise ``CoverageError`` unless a ``width`` x ``height`` raster under
    ``reg`` renders every landmark's unperturbed frame: the render's own
    mapping and bounds test at the frame corners of the two extreme
    landmarks (at heading 0 a pixel coordinate grows with its landmark's
    column and falls with its row, so those bound every other frame). A
    corner that overflows reads inf or NaN, which ``_in_raster`` rejects."""
    du, dv = _OBS_DU[[0, -1]], _OBS_DV[[0, -1]]
    for lid in (LandmarkId(0, 0), LandmarkId(grid.cols - 1, grid.rows - 1)):
        x, y = landmark_position(grid, lid)
        with np.errstate(over="ignore", invalid="ignore"):
            corners = _frame_pixels(reg, x, y, 0.0, du, dv)
        if not _in_raster(*corners, width, height):
            raise CoverageError(
                f"world raster {width}x{height} cannot render the frame of landmark "
                f"({lid.col},{lid.row})"
            )


def _value_noise(
    rng: np.random.Generator, shape: tuple[int, int], cell_px: int
) -> Callable[[slice], np.ndarray]:
    """Bilinear value noise in [0, 1] with the given lattice pitch: the bits of
    scipy's ``map_coordinates(coarse, pixel / cell_px, order=1)``, computed
    separably. As in scipy, an axis's far weight is one minus its near weight,
    and each sample sums value * y weight * x weight corner by corner. Two spare
    lattice rows and columns keep the far corner in range: no edge mode applies.

    The lattice is drawn now; the returned function gives the noise of a
    slice of rows, so that no caller holds a full plane of it."""
    coarse = rng.uniform(0.0, 1.0, (shape[0] // cell_px + 2, shape[1] // cell_px + 2))
    (y0, wy0, wy1), (x0, wx0, wx1) = (_lattice_weights(n, cell_px) for n in shape)

    def rows(s: slice) -> np.ndarray:
        top = coarse[y0[s]] * wy0[s, None]
        bot = coarse[y0[s] + 1] * wy1[s, None]
        out = top[:, x0] * wx0
        out += top[:, x0 + 1] * wx1
        out += bot[:, x0] * wx0
        out += bot[:, x0 + 1] * wx1
        return out

    return rows


def _row_strips(height: int) -> list[slice]:
    """The synthesis strips of a ``height``-row raster, top to bottom."""
    return [slice(r, r + _STRIP_ROWS) for r in range(0, height, _STRIP_ROWS)]


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
    ex, ey = grid.extent
    # a negative side is an empty world, which the coverage check rejects
    width_px, height_px = (
        max(0.0, (e + 2 * m) / spec.gsd) for e, m in ((ex, spec.margin_x_m), (ey, spec.margin_y_m))
    )
    # each side as well as the area, so that 0 x (a huge side) never reaches
    # the coverage check's frame mapping; also when a side overflows to inf
    if not max(width_px, height_px, width_px * height_px) <= MAX_WORLD_PIXELS:
        raise ConfigError(
            f"a {width_px:.3g}x{height_px:.3g} px world exceeds the {MAX_WORLD_PIXELS:,} px bound"
        )
    width, height = math.ceil(width_px), math.ceil(height_px)
    reg = GeoRegistration(
        gsd=spec.gsd,
        origin=(grid.origin[0] - spec.margin_x_m, grid.origin[1] + ey + spec.margin_y_m),
    )
    check_world_coverage(width, height, reg, grid)

    rng = np.random.default_rng(spec.seed)
    gray = np.full((height, width), 96.0)
    strips = _row_strips(height)
    # no draw falls between the three lattices, so drawing them all before the
    # first strip keeps the order of one full-plane octave after another
    octaves = [
        (amp, _value_noise(rng, gray.shape, cell)) for cell, amp in ((256, 42.0), (96, 20.0), (32, 10.0))
    ]
    for s in strips:
        for amp, noise in octaves:
            gray[s] += amp * (2.0 * noise(s) - 1.0)
    _paint_parcels(rng, gray)
    _paint_roads(rng, gray)
    for s in strips:  # the strip draws concatenate to one full-plane draw
        gray[s] += rng.integers(-8, 9, gray[s].shape)
    np.clip(gray, 8.0, 247.0, out=gray)

    pixels = np.empty((height, width, 3), dtype=np.uint8)
    for ch, (lo, hi) in enumerate(((0.88, 1.10), (0.92, 1.12), (0.82, 1.04))):
        noise = _value_noise(rng, gray.shape, 192)
        for s in strips:
            tint = gray[s] * (lo + (hi - lo) * noise(s))
            pixels[s, :, ch] = np.rint(np.clip(tint, 0.0, 255.0, out=tint), out=tint)

    return RasterImage(pixels=pixels), reg


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

    px, py = _frame_pixels(reg, cx, cy, theta, _OBS_DU, _OBS_DV)
    if not _in_raster(px, py, world.width, world.height):
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
