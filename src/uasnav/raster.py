"""8-bit raster images with binary PPM/PGM I/O and metric registration.

Rasters are stored as uint8 numpy arrays, (h, w) for grayscale or
(h, w, 3) for color. Files are binary P5/P6 with maxval 255 plus a JSON
sidecar carrying the ground sample distance and the world position of
pixel (0, 0); both round-trip byte-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import RasterFormatError


@dataclass
class RasterImage:
    """Row-major 8-bit pixel grid, 1 or 3 channels."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError(f"raster pixels must be uint8, got {px.dtype}")
        if not (px.ndim == 2 or (px.ndim == 3 and px.shape[2] == 3)):
            raise ValueError(f"raster must be (h, w) or (h, w, 3), got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("raster must be at least 1x1")
        self.pixels = px

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def to_gray(img: RasterImage) -> np.ndarray:
    """Float64 luminance plane (Rec. 601 weights for color rasters): what
    the matcher reads of any raster, per window for rendered frames."""
    px = img.pixels
    if img.channels == 1:
        return px.astype(np.float64)
    return 0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]


@dataclass(frozen=True)
class GeoRegistration:
    """Square-pixel metric registration of a north-up raster.

    ``origin`` is the world position (x east, y north, meters) of pixel
    (0, 0); columns increase eastward and rows increase southward.
    """

    gsd: float  # meters per pixel
    origin: tuple[float, float]

    def __post_init__(self):
        if not (0 < self.gsd < math.inf and all(map(math.isfinite, self.origin))):
            raise ValueError(f"need a finite gsd > 0 and a finite origin, got {self.gsd}, {self.origin}")

    def world_to_pixel(self, xy) -> np.ndarray:
        xy = np.asarray(xy, dtype=np.float64)
        px = (xy[..., 0] - self.origin[0]) / self.gsd
        py = (self.origin[1] - xy[..., 1]) / self.gsd
        return np.stack([px, py], axis=-1)


def write_pnm(img: RasterImage, path) -> None:
    """Binary PGM (P5) for grayscale, PPM (P6) for color; byte-exact."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def _read_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header tokens
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise RasterFormatError("truncated PNM header")
    return data[start:pos], pos


def read_pnm(path) -> RasterImage:
    """Parse a binary P5/P6 file; only maxval 255 is supported."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise RasterFormatError(f"{path}: not a PNM file")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise RasterFormatError(f"{path}: unsupported PNM magic {magic!r} (need binary P5/P6)")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    try:
        wtok, pos = _read_pnm_token(data, pos)
        htok, pos = _read_pnm_token(data, pos)
        mtok, pos = _read_pnm_token(data, pos)
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except (ValueError, RasterFormatError) as exc:
        raise RasterFormatError(f"{path}: bad PNM header: {exc}") from None
    if maxval != 255:
        raise RasterFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise RasterFormatError(
            f"{path}: truncated pixel data, expected {expected} bytes, got {len(payload)}"
        )
    px = np.frombuffer(payload, dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(pixels=px.reshape(shape).copy())


def write_sidecar(reg: GeoRegistration, path) -> None:
    payload = {
        "gsd_m_per_px": reg.gsd,
        "origin_x_m": reg.origin[0],
        "origin_y_m": reg.origin[1],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_sidecar(path) -> GeoRegistration:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RasterFormatError(f"{path}: invalid JSON sidecar: {exc}") from None
    try:
        return GeoRegistration(
            gsd=float(payload["gsd_m_per_px"]),
            origin=(float(payload["origin_x_m"]), float(payload["origin_y_m"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RasterFormatError(f"{path}: bad sidecar fields: {exc}") from None
