"""Self-contained SVG output: training-curve charts, mission trajectory
overlays, and correspondence visualizations.

Everything is assembled from strings with fixed-precision formatting and
raster panels are embedded as base64 PNG data URIs (hand-rolled encoder on
top of zlib), so repeated runs produce byte-identical files with no
external assets.
"""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np


def png_bytes(pixels: np.ndarray) -> bytes:
    """Minimal PNG encoder for uint8 grayscale or RGB arrays."""
    px = np.ascontiguousarray(pixels)
    if px.dtype != np.uint8:
        raise ValueError("png_bytes expects uint8 pixels")
    if px.ndim == 2:
        color_type = 0
    elif px.ndim == 3 and px.shape[2] == 3:
        color_type = 2
    else:
        raise ValueError(f"unsupported pixel shape {px.shape}")
    h, w = px.shape[:2]
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    idat = zlib.compress(raw, 6)
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def line_chart(
    series: list[tuple[str, str, np.ndarray, np.ndarray]],
    path,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a simple 720x420 multi-series line chart.

    ``series`` entries are (label, css color, x values, y values); NaN y
    values break the polyline (used for warm-up gaps in moving averages).
    """
    width, height = 720, 420
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb
    xs = np.concatenate([s[2] for s in series]) if series else np.array([0.0, 1.0])
    ys = np.concatenate([s[3][~np.isnan(s[3])] for s in series]) if series else np.array([0.0, 1.0])
    if len(xs) == 0 or len(ys) == 0:
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for i in range(5):
        gx = x0 + (x1 - x0) * i / 4
        gy = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<line x1="{_fmt(sx(gx))}" y1="{mt + ph}" x2="{_fmt(sx(gx))}" y2="{mt + ph + 4}" stroke="#888"/>'
            f'<text x="{_fmt(sx(gx))}" y="{mt + ph + 18}" text-anchor="middle">{gx:.4g}</text>'
            f'<line x1="{ml - 4}" y1="{_fmt(sy(gy))}" x2="{ml}" y2="{_fmt(sy(gy))}" stroke="#888"/>'
            f'<text x="{ml - 8}" y="{_fmt(sy(gy) + 4)}" text-anchor="end">{gy:.4g}</text>'
        )
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{y_label}</text>'
    )
    for li, (label, color, x, y) in enumerate(series):
        segs: list[list[str]] = [[]]
        for xi, yi in zip(x, y):
            if np.isnan(yi):
                if segs[-1]:
                    segs.append([])
                continue
            segs[-1].append(f"{_fmt(sx(xi))},{_fmt(sy(yi))}")
        for seg in segs:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        parts.append(
            f'<rect x="{ml + 10 + 130 * li}" y="{mt + 6}" width="14" height="3" fill="{color}"/>'
            f'<text x="{ml + 28 + 130 * li}" y="{mt + 11}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def image_panel(pixels: np.ndarray, x: float, y: float) -> str:
    h, w = pixels.shape[:2]
    uri = "data:image/png;base64," + base64.b64encode(png_bytes(pixels)).decode("ascii")
    return (
        f'<image x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'preserveAspectRatio="none" href="{uri}"/>'
    )


def svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" font-family="sans-serif" font-size="12">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
