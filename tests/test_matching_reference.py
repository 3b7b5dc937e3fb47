"""The matching kernels against the versions they replaced.

The references below are the earlier ``detect_keypoints`` (a scipy
``maximum_filter`` and a greedy per-candidate suppression loop), the
float64 ``describe`` with its ``_bilinear`` gather and 2x2 pooling, the
float64 ``match_descriptors`` that ranked by ``sqrt`` distances, and
``estimate_affine_ransac`` (every hypothesis scored at once, einsum
scoring, over the same ``_ransac_triples`` draws). Keypoints, kept rows,
affine matrices and masks must match them bit for bit; descriptors are
float32 and within ``DESCRIPTOR_TOL`` of the reference; the pair lists
equal the reference's except where its float64 decision is within
``MARGIN_TOL`` of a tie.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import gaussian_filter, maximum_filter

from uasnav import matching
from uasnav.errors import BoundsError, DegenerateGeometryError, InsufficientMatchesError
from uasnav.grid import Action, LandmarkId, landmark_position, neighbors
from uasnav.imagery import PerturbationSpec, Pose, landmark_descriptor_image, render_observation
from uasnav.matching import (
    _MIN_IMAGE_SIDE,
    _PATCH,
    _PATCH_PAD,
    _REL_THRESHOLD,
    DESCRIPTOR_DIM,
    NMS_RADIUS,
    AffineTransform,
    _ransac_triples,
    _residuals,
    _vertex_offsets,
    describe,
    detect_keypoints,
    estimate_affine_ransac,
    match_descriptors,
)
from uasnav.raster import to_gray

DESCRIPTOR_TOL = 1e-6  # float32 window sums against the float64 pooled patch
MARGIN_TOL = 1e-5      # relative float64 margin below which a decision may flip


def _reference_candidates(gray):
    """Corner response and its sorted window-maximum candidates, as the
    reference detector found them."""
    gray = np.asarray(gray, dtype=np.float32)
    h, w = gray.shape
    if h < _MIN_IMAGE_SIDE or w < _MIN_IMAGE_SIDE:
        raise BoundsError(f"image {w}x{h} smaller than the {_MIN_IMAGE_SIDE} px detector window")

    smoothed = gaussian_filter(gray, sigma=1.0, mode="nearest")
    iy, ix = np.gradient(smoothed)
    sxx = gaussian_filter(ix * ix, sigma=1.5, mode="nearest")
    syy = gaussian_filter(iy * iy, sigma=1.5, mode="nearest")
    sxy = gaussian_filter(ix * iy, sigma=1.5, mode="nearest")
    response = sxx * syy - sxy * sxy - 0.04 * (sxx + syy) ** 2

    peak = response.max()
    if peak <= 1e-12:
        return response, None, None  # flat image: no gradient, no corners
    threshold = max(_REL_THRESHOLD * peak, 1e-12)
    local_max = response == maximum_filter(response, size=2 * NMS_RADIUS + 1, mode="nearest")
    # keep the border clear so descriptor patches always fit (and every
    # kept peak has the four neighbours the sub-pixel refine reads)
    local_max[:_PATCH_PAD, :] = False
    local_max[-_PATCH_PAD:, :] = False
    local_max[:, :_PATCH_PAD] = False
    local_max[:, -_PATCH_PAD:] = False
    ys, xs = np.nonzero(local_max & (response > threshold))
    if len(xs) == 0:
        return response, None, None
    order = np.lexsort((xs, ys, -response[ys, xs]))
    return response, ys[order], xs[order]


def _reference_detect(gray, max_keypoints):
    """The reference detector: candidates, then the greedy loop."""
    if max_keypoints < 1:
        raise ValueError("max_keypoints must be positive")
    response, ys, xs = _reference_candidates(gray)
    if xs is None:
        return np.zeros((0, 3))

    kept = np.empty(max_keypoints, dtype=np.intp)
    kept_x = np.empty(max_keypoints)
    kept_y = np.empty(max_keypoints)
    m = 0
    r2 = float(NMS_RADIUS) ** 2
    for i, (x, y) in enumerate(zip(xs, ys)):
        if m:
            dx = kept_x[:m] - x
            dy = kept_y[:m] - y
            if (dx * dx + dy * dy).min() < r2:
                continue
        kept[m], kept_x[m], kept_y[m] = i, x, y
        m += 1
        if m >= max_keypoints:
            break
    ys, xs = ys[kept[:m]], xs[kept[:m]]

    center = response[ys, xs]
    sx = _vertex_offsets(response[ys, xs - 1], center, response[ys, xs + 1])
    sy = _vertex_offsets(response[ys - 1, xs], center, response[ys + 1, xs])
    return np.stack([xs + sx, ys + sy, center], axis=1, dtype=np.float64)


def _reference_bilinear(plane, px, py):
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = (px - x0).astype(plane.dtype)
    fy = (py - y0).astype(plane.dtype)
    x1 = np.minimum(x0 + 1, plane.shape[1] - 1)
    y1 = np.minimum(y0 + 1, plane.shape[0] - 1)
    top = plane[y0, x0] * (1 - fx) + plane[y0, x1] * fx
    bot = plane[y1, x0] * (1 - fx) + plane[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _reference_describe(gray, keypoints):
    gray = np.asarray(gray, dtype=np.float32)
    h, w = gray.shape
    if len(keypoints) == 0:
        return np.zeros((0, DESCRIPTOR_DIM)), keypoints

    smoothed = gaussian_filter(gray, sigma=2.0, mode="nearest")
    gy, gx = np.gradient(smoothed)

    offsets = np.arange(_PATCH, dtype=np.float64) - (_PATCH - 1) / 2.0  # cell centers
    oy, ox = np.meshgrid(offsets, offsets, indexing="ij")

    xy = keypoints[:, :2]
    in_bounds = (
        (xy[:, 0] >= _PATCH_PAD)
        & (xy[:, 0] <= w - 1 - _PATCH_PAD)
        & (xy[:, 1] >= _PATCH_PAD)
        & (xy[:, 1] <= h - 1 - _PATCH_PAD)
    )

    sel = np.nonzero(in_bounds)[0]
    px = xy[sel, 0][:, None, None] + ox[None]
    py = xy[sel, 1][:, None, None] + oy[None]
    patch_gx = _reference_bilinear(gx, px, py)
    patch_gy = _reference_bilinear(gy, px, py)

    # 2x2 average pooling down to 8x8 cells, then interleave (gx, gy)
    def pool(p):
        k = p.reshape(len(sel), _PATCH // 2, 2, _PATCH // 2, 2)
        return k.mean(axis=(2, 4))

    vec = np.stack([pool(patch_gx), pool(patch_gy)], axis=-1).reshape(len(sel), DESCRIPTOR_DIM)
    vec = vec.astype(np.float64)
    norms = np.linalg.norm(vec, axis=1)
    has_energy = norms > 1e-9
    vec = vec[has_energy] / norms[has_energy][:, None]
    return vec, keypoints[sel[has_energy]]


def _reference_ransac(src, dst, inlier_tol_px, iterations, rng_seed):
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n < 3:
        raise InsufficientMatchesError(f"affine estimation needs >= 3 correspondences, got {n}")

    samples = _ransac_triples(n, iterations, rng_seed)

    ones = np.ones((n, 1))
    src_h = np.hstack([src, ones])            # (n, 3)
    mats = src_h[samples]                     # (iters, 3, 3)
    rhs = dst[samples]                        # (iters, 3, 2)
    dets = np.linalg.det(mats)
    valid = np.abs(dets) > 1e-6               # collinear samples are degenerate
    if not valid.any():
        raise DegenerateGeometryError("every sampled correspondence triple was collinear")

    params = np.linalg.solve(mats[valid], rhs[valid])      # (v, 3, 2)
    pred = np.einsum("nk,vkj->vnj", src_h, params)          # (v, n, 2)
    err = np.linalg.norm(pred - dst[None], axis=2)
    counts = np.full(iterations, -1, dtype=np.int64)
    counts[valid] = (err <= inlier_tol_px).sum(axis=1)
    best_iter = int(np.argmax(counts))                       # first max = earliest iteration
    best_params = params[int(valid[:best_iter + 1].sum()) - 1]
    best_mask = np.linalg.norm(src_h @ best_params - dst, axis=1) <= inlier_tol_px

    refit, _, _, _ = np.linalg.lstsq(src_h[best_mask], dst[best_mask], rcond=None)
    model = AffineTransform(refit.T)
    final_mask = np.linalg.norm(src_h @ refit - dst, axis=1) <= inlier_tol_px
    return model, final_mask


def _reference_distances(query, train):
    """Float64 Euclidean distances from the norm sums and the dot product."""
    query = np.asarray(query, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    d2 = (
        np.sum(query * query, axis=1)[:, None]
        + np.sum(train * train, axis=1)[None, :]
        - 2.0 * (query @ train.T)
    )
    return np.sqrt(np.maximum(d2, 0.0))


def _reference_match(query, train, ratio):
    """The float64 matcher: ``argmin`` rows and columns of the distances,
    then the ratio test on ``sqrt`` distances."""
    if len(query) == 0 or len(train) == 0:
        return np.zeros((0, 2), dtype=np.intp)
    dist = _reference_distances(query, train)
    nearest = np.argmin(dist, axis=1)
    best_for_train = np.argmin(dist, axis=0)
    q = np.flatnonzero(best_for_train[nearest] == np.arange(len(query)))
    if len(train) >= 2:
        second = np.partition(dist[q], 1, axis=1)[:, 1]
        q = q[dist[q, nearest[q]] < ratio * second]
    return np.stack([q, nearest[q]], axis=1)


def _near_tie_rows(dist, ratio):
    """Query rows whose float64 decision is within ``MARGIN_TOL`` of a tie:
    the nearest distance against ``ratio`` times the second, or the best
    against the second best in the nearest train's column."""
    rows = np.sort(dist, axis=1)
    nearest = np.argmin(dist, axis=1)
    cols = np.sort(dist[:, nearest], axis=0)  # column j is query j's nearest train
    tied = np.zeros(len(dist), dtype=bool)
    if dist.shape[1] >= 2:
        tied |= np.abs(rows[:, 0] - ratio * rows[:, 1]) <= MARGIN_TOL * ratio * rows[:, 1]
    if dist.shape[0] >= 2:
        tied |= cols[1] - cols[0] <= MARGIN_TOL * cols[1]
    return np.flatnonzero(tied)


def _assert_same_detection(gray, max_keypoints):
    ref = _reference_detect(gray, max_keypoints)
    got = detect_keypoints(gray, max_keypoints)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    ref_desc, ref_kept = _reference_describe(gray, ref)
    desc, kept = describe(gray, got)
    assert desc.dtype == np.float32 and desc.shape == ref_desc.shape
    assert np.abs(desc - ref_desc).max(initial=0.0) <= DESCRIPTOR_TOL
    assert kept.tobytes() == ref_kept.tobytes()
    return got


def _ransac_outcome(fn, src, dst, tol, iterations, seed):
    try:
        model, mask = fn(src, dst, tol, iterations, seed)
    except (DegenerateGeometryError, InsufficientMatchesError) as exc:
        return type(exc)
    return model.matrix.tobytes(), mask.tobytes()


def _dot_lattice(size, period, phase=0, value=220.0, base=30.0):
    """Single bright pixels on a square lattice. Every lattice point sees the
    same neighbourhood away from the border, so the corner response has
    runs of exactly equal peaks closer together than NMS_RADIUS."""
    img = np.full((size, size), base, dtype=np.float32)
    img[phase::period, phase::period] = value
    return img


def _render(world, reg, grid, cell, offset, perturbed, seed):
    x, y = landmark_position(grid, LandmarkId(*cell))
    if perturbed:
        rng = np.random.default_rng(seed)
        perturb = PerturbationSpec(
            gain=float(rng.uniform(0.8, 1.2)), bias=float(rng.uniform(-20.0, 20.0)),
            noise_sigma=float(rng.uniform(0.0, 4.0)), rotation_jitter=0.1,
            translation_jitter=2.0, rng_seed=seed,
        )
    else:
        perturb = PerturbationSpec()
    return render_observation(world, reg, Pose(x + offset[0], y + offset[1]), perturb)


class TestDetectMatchesReference:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        cell=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        offset=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
        perturbed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        max_keypoints=st.sampled_from([1, 50, 500]),
    )
    def test_render_detection_is_byte_identical(
        self, world_and_reg, grid, cell, offset, perturbed, seed, max_keypoints,
    ):
        # offsets on the quarter-metre pixel grid, up to 25 m off the landmark
        world, reg = world_and_reg
        gray = _render(world, reg, grid, cell, (offset[0] * 0.25, offset[1] * 0.25), perturbed, seed)
        _assert_same_detection(gray, max_keypoints)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        size=st.integers(_MIN_IMAGE_SIDE, 96),
        period=st.integers(2, 9),
        phase=st.integers(0, 8),
        max_keypoints=st.sampled_from([1, 3, 40, 10_000]),
    )
    def test_plateau_detection_is_byte_identical(self, size, period, phase, max_keypoints):
        _assert_same_detection(_dot_lattice(size, period, phase % period), max_keypoints)

    def test_reference_loop_suppresses_on_plateaus(self):
        img = _dot_lattice(80, 5)
        _, ys, xs = _reference_candidates(img)
        ref = _reference_detect(img, 10_000)
        # the loop dropped candidates without reaching its cap
        assert len(xs) > len(ref)
        kept = _assert_same_detection(img, 10_000)
        pts = kept[:, :2]
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= NMS_RADIUS**2

    def test_keypoint_cap_extremes(self, world_and_reg, grid):
        world, reg = world_and_reg
        crop = to_gray(landmark_descriptor_image(world, reg, grid, LandmarkId(3, 7)))
        for gray in (crop, _dot_lattice(70, 6)):
            assert len(_assert_same_detection(gray, 1)) == 1
            _, ys, _ = _reference_candidates(gray)
            assert len(ys) < 100_000  # a cap above the number of candidates
            _assert_same_detection(gray, 100_000)

    def test_flat_and_tiny_images(self):
        _assert_same_detection(np.full((40, 40), 7.0), 10)
        with pytest.raises(BoundsError):
            detect_keypoints(np.zeros((_MIN_IMAGE_SIDE - 1, 64)), 10)


@pytest.fixture(scope="module")
def crop_descriptors(world_and_reg, grid):
    """Each landmark crop's ``describe`` and ``_reference_describe``
    descriptors over the same keypoints, described once per module."""
    world, reg = world_and_reg
    cache = {}

    def get(lid):
        if lid not in cache:
            gray = to_gray(landmark_descriptor_image(world, reg, grid, lid))
            kps = detect_keypoints(gray, 500)
            cache[lid] = describe(gray, kps)[0], _reference_describe(gray, kps)[0]
        return cache[lid]

    return get


class TestMatchMatchesReference:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        cell=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        action=st.sampled_from(list(Action)),
        along=st.floats(0.0, 40.0),
        rotation=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_render_pairs_equal_reference_off_ties(
        self, world_and_reg, grid, crop_descriptors, cell, action, along, rotation, seed,
    ):
        # a criterion-6 view up to 40 m along track from its landmark, matched
        # against the landmark and its four neighbours
        world, reg = world_and_reg
        lid = LandmarkId(*cell)
        x, y = landmark_position(grid, lid) + along * np.array(action.displacement)
        rng = np.random.default_rng(seed)
        perturb = PerturbationSpec(
            gain=float(rng.uniform(0.7, 1.4)), bias=float(rng.uniform(-20.0, 20.0)),
            noise_sigma=float(rng.uniform(0.0, 5.0)), translation_jitter=2.0, rng_seed=seed,
        )
        gray = render_observation(world, reg, Pose(x, y, math.radians(rotation)), perturb)
        kps = detect_keypoints(gray, 500)
        desc, ref_desc = describe(gray, kps)[0], _reference_describe(gray, kps)[0]
        for nid in [lid, *neighbors(grid, lid).values()]:
            train, ref_train = crop_descriptors(nid)
            got = match_descriptors(desc, train, 0.8)
            ref = _reference_match(ref_desc, ref_train, 0.8)
            tied = _near_tie_rows(_reference_distances(ref_desc, ref_train), 0.8)
            assert np.array_equal(got[~np.isin(got[:, 0], tied)], ref[~np.isin(ref[:, 0], tied)]), nid

    def test_single_train_and_empty_sides(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(6, DESCRIPTOR_DIM))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        for train in (q[:1], q[:0]):
            for query in (q, q[:0]):
                got = match_descriptors(query.astype(np.float32), train.astype(np.float32), 0.8)
                assert np.array_equal(got, _reference_match(query, train, 0.8))


def _affine_set(n, outlier_share, noise, data_seed):
    rng = np.random.default_rng(data_seed)
    theta = rng.uniform(-0.2, 0.2)
    scale = rng.uniform(0.9, 1.1)
    c, s = scale * math.cos(theta), scale * math.sin(theta)
    truth = np.array([[c, -s, rng.uniform(-40, 40)], [s, c, rng.uniform(-40, 40)]])
    src = rng.uniform(0, 640, (n, 2)) * [1.0, 0.75]
    dst = src @ truth[:, :2].T + truth[:, 2]
    if noise:
        dst = dst + rng.normal(0.0, noise, dst.shape)
    n_out = int(outlier_share * n)
    dst[:n_out] = rng.uniform(0, 640, (n_out, 2))
    return src, dst


class TestRansacMatchesReference:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 600),
        outlier_share=st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
        noise=st.sampled_from([0.0, 0.3, 1.0]),
        iterations=st.one_of(st.integers(1, 40), st.sampled_from([200, 500])),
        tol=st.sampled_from([0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_ransac_is_byte_identical(self, n, outlier_share, noise, iterations, tol, seed, data_seed):
        src, dst = _affine_set(n, outlier_share, noise, data_seed)
        assert _ransac_outcome(estimate_affine_ransac, src, dst, tol, iterations, seed) == _ransac_outcome(
            _reference_ransac, src, dst, tol, iterations, seed
        )

    def test_residuals_match_einsum_scoring(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n, v = rng.integers(3, 700), rng.integers(1, 60)
            src = rng.uniform(-50.0, 700.0, (n, 2))
            dst = rng.uniform(-50.0, 700.0, (n, 2))
            params = rng.normal(0.0, 1.0, (v, 3, 2)) * [[1.0], [1.0], [300.0]]
            src_h = np.hstack([src, np.ones((n, 1))])
            ref = np.linalg.norm(np.einsum("nk,vkj->vnj", src_h, params) - dst[None], axis=2)
            assert _residuals(src, dst, params).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("iterations", [1, 16, 17, 500])
    def test_all_collinear_raises_on_both(self, iterations):
        src = np.stack([np.arange(30.0), 2.0 * np.arange(30.0) + 1.0], axis=1)
        for fn in (estimate_affine_ransac, _reference_ransac):
            with pytest.raises(DegenerateGeometryError):
                fn(src, src + 3.0, 3.0, iterations, 0)

    def test_first_block_collinear_then_all_inlier(self):
        # 40 points on a line plus one off it: only triples holding the off
        # point are solvable, and each of those fits all 41 points exactly
        src = np.vstack([np.stack([np.arange(40.0), np.arange(40.0)], axis=1), [[5.0, 30.0]]])
        dst = src @ np.array([[1.0, 0.1], [-0.1, 1.0]]).T + [4.0, -2.0]
        seed = next(s for s in range(100) if 40 not in _ransac_triples(41, 16, s))  # the first block's triples
        got = _ransac_outcome(estimate_affine_ransac, src, dst, 1.0, 500, seed)
        assert got == _ransac_outcome(_reference_ransac, src, dst, 1.0, 500, seed)
        assert np.frombuffer(got[1], dtype=bool).all()


def test_all_inlier_set_stops_after_first_block(monkeypatch):
    src, dst = _affine_set(300, 0.0, 0.0, 4)
    scored = []

    def counting(src, dst, params):
        scored.append(len(params))
        return _residuals(src, dst, params)

    monkeypatch.setattr(matching, "_residuals", counting)
    _, mask = estimate_affine_ransac(src, dst, 3.0, 500, 5)
    assert mask.all()
    assert 1 <= sum(scored) <= 16



def _choice_calls(n, count, seed):
    """``count`` triples of ``default_rng(seed)`` drawn without replacement
    one index at a time: each is a scalar ``choice`` over the size of the
    pool still left, mapped from its rank in that pool to the index it
    names by stepping past the indices already taken, smallest first."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        taken = []
        for pool in (n, n - 1, n - 2):
            idx = int(rng.choice(pool))
            for t in sorted(taken):
                idx += idx >= t
            taken.append(idx)
        rows.append(taken)
    return np.array(rows, dtype=np.intp).reshape(count, 3)


class TestRansacTriples:
    # bounds just above 2**31 reject about half of their 32-bit draws; from
    # 2**32 on the draws are 64-bit
    @pytest.mark.parametrize(
        "n", [3, *range(4, 41), 343, 10000, 10001, 2**31 + 2, 2**32 - 5, 2**32 - 1, 2**32, 2**32 + 7]
    )
    def test_equal_successive_choice_calls(self, n):
        for seed in range(15):
            for count in (1, 16, 500):
                got = _ransac_triples(n, count, seed)
                assert got.dtype == np.intp
                assert np.array_equal(got, _choice_calls(n, count, seed)), (n, seed, count)
