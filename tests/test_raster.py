import json

import numpy as np
import pytest

from uasnav.errors import RasterFormatError
from uasnav.raster import (
    GeoRegistration,
    RasterImage,
    read_pnm,
    read_sidecar,
    to_gray,
    write_pnm,
    write_sidecar,
)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = RasterImage(rng.integers(0, 256, (20, 30, 3), dtype=np.uint8))
    path = tmp_path / "a.ppm"
    write_pnm(img, path)
    back = read_pnm(path)
    assert np.array_equal(back.pixels, img.pixels)
    # re-export is byte-identical
    path2 = tmp_path / "b.ppm"
    write_pnm(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = RasterImage(rng.integers(0, 256, (16, 9), dtype=np.uint8))
    path = tmp_path / "a.pgm"
    write_pnm(img, path)
    back = read_pnm(path)
    assert back.channels == 1
    assert np.array_equal(back.pixels, img.pixels)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# made by hand\n3 2\n# another\n255\n" + payload)
    img = read_pnm(path)
    assert img.width == 3 and img.height == 2
    assert img.pixels.tobytes() == payload


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(RasterFormatError, match="magic"):
        read_pnm(path)


def test_bad_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(RasterFormatError, match="maxval"):
        read_pnm(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(RasterFormatError, match="truncated"):
        read_pnm(path)


def test_raster_validation():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4, 2), dtype=np.uint8))


def test_to_gray_weights():
    px = np.zeros((1, 3, 3), dtype=np.uint8)
    px[0, 0] = (255, 0, 0)
    px[0, 1] = (0, 255, 0)
    px[0, 2] = (0, 0, 255)
    g = to_gray(RasterImage(px))
    assert g[0, 0] == pytest.approx(0.299 * 255)
    assert g[0, 1] == pytest.approx(0.587 * 255)
    assert g[0, 2] == pytest.approx(0.114 * 255)


def test_to_gray_matches_the_float64_copy_formula():
    rng = np.random.default_rng(3)
    for shape in ((480, 640, 3), (600, 760, 3), (7, 5, 3), (480, 640), (7, 5)):
        px = rng.integers(0, 256, shape, dtype=np.uint8)
        f = px.astype(np.float64)
        ref = f if f.ndim == 2 else 0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]
        got = to_gray(RasterImage(px))
        assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()


def test_registration_round_trip_property():
    reg = GeoRegistration(gsd=0.25, origin=(-100.0, 350.0))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-500, 500, (200, 2))
    back = reg.pixel_to_world(reg.world_to_pixel(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_registration_axis_convention():
    reg = GeoRegistration(gsd=0.5, origin=(10.0, 20.0))
    # one pixel east = +gsd in x; one pixel down = -gsd in y (north-up raster)
    assert np.allclose(reg.pixel_to_world(np.array([1.0, 0.0])), [10.5, 20.0])
    assert np.allclose(reg.pixel_to_world(np.array([0.0, 1.0])), [10.0, 19.5])


def test_sidecar_round_trip(tmp_path):
    reg = GeoRegistration(gsd=0.25, origin=(-100.0, 350.0))
    path = tmp_path / "world.json"
    write_sidecar(reg, path)
    assert read_sidecar(path) == reg
    payload = json.loads(path.read_text())
    assert set(payload) == {"gsd_m_per_px", "origin_x_m", "origin_y_m"}


def test_sidecar_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RasterFormatError, match="JSON"):
        read_sidecar(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"gsd_m_per_px": 0.25}')
    with pytest.raises(RasterFormatError, match="fields"):
        read_sidecar(missing)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["gsd_m_per_px", "origin_x_m", "origin_y_m"])
def test_sidecar_non_finite_field_rejected(tmp_path, field, value):
    path = tmp_path / "world.json"
    write_sidecar(GeoRegistration(gsd=0.25, origin=(-100.0, 350.0)), path)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(RasterFormatError, match="finite"):
        read_sidecar(path)
