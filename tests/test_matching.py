import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uasnav.errors import (
    BoundsError,
    DegenerateGeometryError,
    InsufficientMatchesError,
    InvalidStateError,
)
from uasnav.grid import Action, LandmarkId, landmark_position, neighbors
from uasnav.imagery import PerturbationSpec, Pose, landmark_descriptor_image, render_observation
from uasnav.raster import RasterImage, to_gray
from uasnav.matching import (
    NMS_RADIUS,
    AffineTransform,
    DescriptorSet,
    MatchParams,
    MatchResult,
    build_descriptor_set,
    describe,
    detect_keypoints,
    _ransac_triples,
    estimate_affine_ransac,
    match_descriptors,
    match_images,
    rank_neighbors,
    target_ranks_first,
)
from uasnav.navigator import Gate, gate


def _reference_matches(query, train, ratio):
    """Per-query loop version of match_descriptors, kept as its reference."""
    d2 = np.sum(query * query, axis=1)[:, None] + np.sum(train * train, axis=1)[None, :] - 2.0 * (query @ train.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    out = []
    for qi in range(len(query)):
        ti = int(np.argmin(dist[qi]))
        if int(np.argmin(dist[:, ti])) != qi:
            continue
        if len(train) < 2 or dist[qi, ti] < ratio * np.sort(dist[qi])[1]:
            out.append((qi, ti))
    return np.array(out, dtype=int).reshape(-1, 2)


def _rotation_affine(theta, tx, ty):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, tx], [s, c, ty]])


class TestDetect:
    def test_constant_image_has_no_corners(self):
        assert detect_keypoints(np.full((64, 64), 99.0), 10).shape == (0, 3)

    def test_single_bright_pixel(self):
        img = np.zeros((64, 64))
        img[30, 33] = 255.0
        kps = detect_keypoints(img, 10)
        assert len(kps)
        assert math.hypot(kps[0, 0] - 33, kps[0, 1] - 30) <= 1.0

    def test_checkerboard_corner_lattice(self):
        cell = 16
        idx = np.arange(160)
        board = (((idx[:, None] // cell) + (idx[None, :] // cell)) % 2) * 200.0 + 20.0
        kps = detect_keypoints(board, 200)
        corners = [(x * cell, y * cell) for x in range(1, 10) for y in range(1, 10)]
        for x, y, _ in kps:
            nearest = min(math.hypot(x - cx, y - cy) for cx, cy in corners)
            assert nearest <= 1.0

    def test_sorted_by_response_and_capped(self, world_and_reg, grid):
        world, reg = world_and_reg
        crop = to_gray(landmark_descriptor_image(world, reg, grid, LandmarkId(1, 1)))
        kps = detect_keypoints(crop, 50)
        assert kps.shape == (50, 3)
        assert np.all(np.diff(kps[:, 2]) <= 0)

    def test_nms_radius_enforced(self, world_and_reg, grid):
        world, reg = world_and_reg
        crop = to_gray(landmark_descriptor_image(world, reg, grid, LandmarkId(1, 1)))
        kps = detect_keypoints(crop, 300)
        pts = kps[:, :2]
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        # integer peaks are >= radius apart; subpixel refinement moves each < 0.5
        assert math.sqrt(d2.min()) >= NMS_RADIUS - 1.0

    def test_image_too_small(self):
        with pytest.raises(BoundsError):
            detect_keypoints(np.zeros((8, 8)), 10)

    def test_deterministic(self, world_and_reg, grid):
        world, reg = world_and_reg
        crop = to_gray(landmark_descriptor_image(world, reg, grid, LandmarkId(8, 2)))
        assert np.array_equal(detect_keypoints(crop, 100), detect_keypoints(crop, 100))


class TestDescribe:
    def _texture(self, seed=0, size=120):
        rng = np.random.default_rng(seed)
        return rng.uniform(30.0, 150.0, (size, size))

    def test_unit_norm(self):
        img = self._texture()
        kps = detect_keypoints(img, 40)
        desc, kept = describe(img, kps)
        assert len(desc) == len(kept)
        assert np.abs(np.linalg.norm(desc, axis=1) - 1.0).max() < 1e-6

    def test_gain_bias_invariance(self):
        # clamp-free interior: values stay within [0, 255] after 1.3 v + 10
        img = self._texture()
        kps = detect_keypoints(img, 40)
        d1, _ = describe(img, kps)
        d2, _ = describe(np.clip(1.3 * img + 10.0, 0, 255), kps)
        assert np.linalg.norm(d1 - d2, axis=1).max() < 0.05

    def test_identical_patches_give_identical_descriptors(self):
        rng = np.random.default_rng(4)
        patch = rng.uniform(0, 255, (40, 40))
        img = np.full((60, 130), 128.0)
        img[10:50, 10:50] = patch
        img[10:50, 80:120] = patch
        kps = np.array([[30.0, 30.0, 1.0], [100.0, 30.0, 1.0]])
        desc, kept = describe(img, kps)
        assert len(kept) == 2
        assert np.allclose(desc[0], desc[1], atol=1e-12)

    def test_out_of_bounds_keypoints_dropped(self):
        img = self._texture()
        kps = np.array([[2.0, 2.0, 1.0], [60.0, 60.0, 1.0]])
        desc, kept = describe(img, kps)
        assert np.array_equal(kept, kps[1:])


class TestMatch:
    def test_self_match(self):
        img = np.random.default_rng(5).uniform(0, 255, (120, 120))
        kps = detect_keypoints(img, 50)
        desc, _ = describe(img, kps)
        matches = match_descriptors(desc, desc, ratio=0.8)
        assert np.array_equal(matches, np.repeat(np.arange(len(desc))[:, None], 2, axis=1))

    def test_disjoint_random_vectors_rarely_match(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(100, 128))
        t = rng.normal(size=(100, 128))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        matches = match_descriptors(q, t, ratio=0.8)
        assert len(matches) <= 5  # <= 5% of query size

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_query=st.integers(1, 30),
        n_train=st.integers(1, 30),
        dim=st.integers(2, 8),
        ratio=st.floats(0.05, 1.0),
    )
    def test_mutual_best_symmetry_property(self, seed, n_query, n_train, dim, ratio):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(n_query, dim))
        t = rng.normal(size=(n_train, dim))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        dist = np.linalg.norm(q[:, None] - t[None], axis=2)

        full = match_descriptors(q, t, ratio=1.0)
        assert full.shape[1] == 2
        assert np.all(np.diff(full[:, 0]) > 0)  # query order, one match per query
        # every pair is mutual-best
        assert np.array_equal(np.argmin(dist[full[:, 0]], axis=1), full[:, 1])
        assert np.array_equal(np.argmin(dist[:, full[:, 1]], axis=0), full[:, 0])
        # at ratio 1.0 matching is symmetric in its arguments
        swapped = match_descriptors(t, q, ratio=1.0)[:, ::-1]
        assert np.array_equal(swapped[np.argsort(swapped[:, 0])], full)
        # a stricter ratio only removes pairs, exactly those the loop removes
        strict = match_descriptors(q, t, ratio=ratio)
        assert {tuple(p) for p in strict} <= {tuple(p) for p in full}
        assert np.array_equal(strict, _reference_matches(q, t, ratio))

    def test_single_train_skips_ratio_test(self):
        # one train vector: only the mutual check applies, whatever the ratio
        q = np.eye(128)[:3]
        t = np.eye(128)[:1]
        assert np.array_equal(match_descriptors(q, t, ratio=0.01), [[0, 0]])

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            match_descriptors(np.eye(4), np.eye(4), ratio=0.0)


class TestRansac:
    def test_exact_affine_recovered(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(0, 600, (80, 2))
        a = np.array([[1.02, -0.11, 31.0], [0.09, 0.97, -12.0]])
        dst = src @ a[:, :2].T + a[:, 2]
        model, mask = estimate_affine_ransac(src, dst, inlier_tol_px=3.0, iterations=100, rng_seed=1)
        assert np.abs(model.matrix - a).max() < 1e-6
        assert mask.all()

    def test_minimal_exact_identity(self):
        src = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        model, mask = estimate_affine_ransac(src, src, inlier_tol_px=1.0, iterations=10, rng_seed=0)
        assert np.abs(model.matrix - np.eye(2, 3)).max() < 1e-9
        assert mask.sum() == 3

    def test_sixty_percent_outliers(self):
        rng = np.random.default_rng(8)
        n_in, n_out = 80, 120
        src_in = rng.uniform(0, 600, (n_in, 2))
        truth = _rotation_affine(math.radians(6.0), 25.0, -14.0)
        dst_in = src_in @ truth[:, :2].T + truth[:, 2]
        src_out = rng.uniform(0, 600, (n_out, 2))
        dst_out = rng.uniform(0, 600, (n_out, 2))
        src, dst = np.vstack([src_in, src_out]), np.vstack([dst_in, dst_out])
        model, mask = estimate_affine_ransac(src, dst, inlier_tol_px=2.0, iterations=200, rng_seed=9)
        assert np.abs(model.translation - truth[:, 2]).max() < 0.5
        assert abs(math.degrees(model.rotation) - 6.0) < 0.5
        assert mask.sum() >= n_in

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.floats(-10.0, 10.0),
        scale=st.floats(0.9, 1.1),
        shift=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_envelope_affine_recovered_property(self, degrees, scale, shift, seed):
        # criterion 4's draw with a scale: 80 inliers at 0.25 px noise among
        # 120 outliers (60%), recovered within its 0.5 px / 0.5 degree
        rng = np.random.default_rng(seed)
        truth = _rotation_affine(math.radians(degrees), *shift)
        truth[:, :2] *= scale
        src = rng.uniform(0.0, 640.0, (200, 2))
        dst = rng.uniform(0.0, 480.0, (200, 2))
        dst[:80] = src[:80] @ truth[:, :2].T + truth[:, 2] + rng.normal(0.0, 0.25, (80, 2))
        model, _ = estimate_affine_ransac(src, dst, inlier_tol_px=2.0, iterations=200, rng_seed=seed)
        assert np.abs(model.translation - truth[:, 2]).max() < 0.5
        assert abs(math.degrees(model.rotation) - degrees) < 0.5

    def test_too_few_correspondences(self):
        src = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InsufficientMatchesError):
            estimate_affine_ransac(src, src, 3.0, 10, 0)

    def test_collinear_points_degenerate(self):
        src = np.array([[float(i), float(i)] for i in range(10)])
        with pytest.raises(DegenerateGeometryError):
            estimate_affine_ransac(src, src, 3.0, 50, 0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        src = rng.uniform(0, 600, (60, 2))
        dst = src + rng.normal(0, 1.0, src.shape)
        m1, k1 = estimate_affine_ransac(src, dst, 2.0, 100, rng_seed=4)
        m2, k2 = estimate_affine_ransac(src, dst, 2.0, 100, rng_seed=4)
        assert np.array_equal(m1.matrix, m2.matrix)
        assert np.array_equal(k1, k2)


class TestRansacTriples:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.one_of(st.integers(3, 40), st.integers(3, 2**62)),
        count=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_distinct_indices_in_range(self, n, count, seed):
        triples = _ransac_triples(n, count, seed)
        assert triples.dtype == np.intp and triples.shape == (count, 3)
        assert triples.min() >= 0 and triples.max() < n
        a, b, c = triples.T
        assert np.all((a != b) & (a != c) & (b != c))
        assert np.array_equal(triples, _ransac_triples(n, count, seed))

    def test_every_ordered_triple_is_about_equally_likely(self):
        draws = 20000
        rows, counts = np.unique(_ransac_triples(4, draws, 3), axis=0, return_counts=True)
        assert len(rows) == 24
        assert np.all(np.abs(counts / draws * 24 - 1.0) <= 0.15)
        assert len(np.unique(_ransac_triples(5, draws, 3), axis=0)) == 60


def _view_map(degrees, shift=(0.0, 0.0)):
    """The affine that rotates a 640x480 view about its center by
    ``degrees``, then shifts it by ``shift`` pixels."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    cx, cy = 320.0, 240.0
    return np.array([
        [c, -s, cx - cx * c + cy * s + shift[0]],
        [s, c, cy - cx * s - cy * c + shift[1]],
    ])


def _fitted(matrix, gsd):
    """``match_images`` of a synthetic 640x480 view against its image under
    the affine ``matrix``: 60 random keypoints, each with its own
    descriptor, so every pair is an inlier and the fit recovers ``matrix``."""
    rng = np.random.default_rng(21)
    desc = rng.normal(size=(60, 128))
    desc /= np.linalg.norm(desc, axis=1)[:, None]
    xy = rng.uniform([20.0, 20.0], [620.0, 460.0], (60, 2))
    mapped = AffineTransform(matrix).apply(xy)
    obs = DescriptorSet(np.column_stack([xy, np.ones(60)]), desc, (640, 480))
    train = DescriptorSet(np.column_stack([mapped, np.ones(60)]), desc.copy(), (640, 480))
    return match_images(obs, train, MatchParams(), gsd)


class TestCenterDistance:
    def test_identity_is_zero(self):
        res = _fitted(_view_map(0.0), 0.25)
        assert res.inliers == 60
        assert res.center_distance_m == pytest.approx(0.0, abs=1e-9)

    def test_pure_translation(self):
        # the view center lies 40 px (10 m) east and 20 px (5 m) south of the landmark's
        res = _fitted(_view_map(0.0, (40.0, 20.0)), 0.25)
        assert res.center_distance_m == pytest.approx(math.hypot(10.0, 5.0))
        assert res.offset_m == pytest.approx((10.0, -5.0))  # world meters, x east and y north

    def test_rotation_about_train_center_is_zero(self):
        res = _fitted(_view_map(math.degrees(0.3)), 0.25)
        assert res.center_distance_m == pytest.approx(0.0, abs=1e-9)

    def test_affine_validation(self):
        with pytest.raises(DegenerateGeometryError):
            AffineTransform(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))


class TestCenterReadingBits:
    """The metric offset, the center distance and the gate's along-track
    reading, bit for bit against the same readings taken from the pixel
    offset (x east, y south), at a gsd that is not a power of two: the
    golden pins run at 0.25 m/px, where scaling before or after the norm
    gives the same bits."""

    @staticmethod
    def _check(res, gsd):
        px = res.affine.apply(np.array([[320.0, 240.0]]))[0] - (320.0, 240.0)
        east, south = px * gsd
        assert res.offset_m.tobytes() == (px * (gsd, -gsd)).tobytes()
        assert res.center_distance_m == float(np.linalg.norm(px) * gsd)
        for action in Action:
            d = action.displacement
            assert -(res.offset_m @ d) == south * d[1] - east * d[0]
        return px

    def test_fixed_affine(self):
        res = _fitted(_view_map(7.0, (-23.0, 25.0)), 0.3)
        px = self._check(res, 0.3)
        assert px == pytest.approx((-23.0, 25.0))
        # the pin can tell the float orders apart on this affine
        assert res.center_distance_m != float(np.linalg.norm(px * 0.3))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.floats(-10.0, 10.0),
        shift=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
        gsd=st.sampled_from([0.1, 0.25, 0.3, 0.7]),
    )
    def test_in_envelope_affines(self, degrees, shift, gsd):
        res = _fitted(_view_map(degrees, shift), gsd)
        assert res.inliers == 60
        assert self._check(res, gsd) == pytest.approx(shift, abs=1e-6)


def _rank(obs, candidates, params, gsd):
    return rank_neighbors([match_images(obs, dset, params, gsd, target=lid) for lid, dset in candidates])


class TestRankNeighbors:
    def _candidates(self, world, reg, grid, params, lid):
        def dset(n):
            return build_descriptor_set(to_gray(landmark_descriptor_image(world, reg, grid, n)), params)

        return [(n, dset(n)) for n in [lid, *(n for n in neighbors(grid, lid).values() if n is not None)]]

    def test_true_landmark_ranks_first(self, world_and_reg, grid, match_params):
        world, reg = world_and_reg
        lid = LandmarkId(4, 6)
        pos = landmark_position(grid, lid)
        obs = build_descriptor_set(render_observation(world, reg, Pose(pos[0], pos[1])), match_params)
        ranked = _rank(obs, self._candidates(world, reg, grid, match_params, lid), match_params, reg.gsd)
        assert ranked[0].target == lid
        assert ranked[0].center_distance_m <= reg.gsd  # within one pixel

    def test_self_match_inlier_ratio(self, world_and_reg, grid, match_params, library):
        world, reg = world_and_reg
        lid = LandmarkId(7, 3)
        obs = build_descriptor_set(to_gray(landmark_descriptor_image(world, reg, grid, lid)), match_params)
        ranked = _rank(obs, [(lid, library.get(lid))], match_params, reg.gsd)
        res = ranked[0]
        assert res.inliers / res.n_matches >= 0.9
        assert res.center_distance_m <= reg.gsd

    def test_noise_observation_fails_arrival(self, world_and_reg, grid, match_params, library):
        world, reg = world_and_reg
        rng = np.random.default_rng(11)
        noise = RasterImage(rng.integers(0, 256, (480, 640, 3), dtype=np.uint8))
        lid = LandmarkId(5, 5)
        cands = [(nid, library.get(nid)) for nid in [lid, *[n for n in neighbors(grid, lid).values() if n]]]
        ranked = _rank(build_descriptor_set(to_gray(noise), match_params), cands, match_params, reg.gsd)
        # whatever the direction of the leg, at half the default sampling interval
        for res in ranked:
            for action in Action:
                assert gate(res, action.displacement, 1.0, match_params) in (
                    Gate.NO_MODEL, Gate.FEW_INLIERS, Gate.TOO_FAR
                )

    def test_single_candidate(self, world_and_reg, grid, match_params, library):
        world, reg = world_and_reg
        lid = LandmarkId(0, 9)
        obs = build_descriptor_set(to_gray(landmark_descriptor_image(world, reg, grid, lid)), match_params)
        ranked = _rank(obs, [(lid, library.get(lid))], match_params, reg.gsd)
        assert len(ranked) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidStateError):
            rank_neighbors([])

    def test_deterministic(self, world_and_reg, grid, match_params, library):
        world, reg = world_and_reg
        lid = LandmarkId(6, 6)
        pos = landmark_position(grid, lid)
        perturb = PerturbationSpec(gain=1.2, noise_sigma=3.0, rng_seed=13)
        obs = build_descriptor_set(render_observation(world, reg, Pose(pos[0], pos[1]), perturb), match_params)
        cands = [(nid, library.get(nid)) for nid in [lid, *[n for n in neighbors(grid, lid).values() if n]]]
        r1 = _rank(obs, cands, match_params, reg.gsd)
        r2 = _rank(obs, cands, match_params, reg.gsd)
        assert [(r.target, r.inliers, r.center_distance_m) for r in r1] == [
            (r.target, r.inliers, r.center_distance_m) for r in r2
        ]

    def test_ordering_tie_breaks(self):
        def result(col, inliers, cd):
            # a view center cd meters east of the landmark's
            return MatchResult(
                target=LandmarkId(col, 0),
                pairs=np.zeros((0, 2), dtype=int),
                inliers=inliers,
                affine=None if cd is None else AffineTransform(np.eye(2, 3)),
                offset_m=None if cd is None else np.array([cd, 0.0]),
                center_distance_m=cd,
            )

        results = [
            result(0, 0, None),  # no model: last, even listed first
            result(1, 40, 2.0),
            result(2, 80, 3.0),  # most inliers: first
            result(3, 40, 1.0),  # inlier tie: smaller distance first
            result(4, 40, 2.0),  # inlier and distance tie: input position
            result(5, 0, 9.0),  # a model with no inliers still beats no model
        ]
        ranked = rank_neighbors(results)
        assert [r.target.col for r in ranked] == [2, 3, 1, 4, 5, 0]


def _ranks_first_in_full(obs, target_res, order, lookup, params, gsd):
    """The decision from fitting every candidate and ranking the lot."""
    results = [
        target_res if lid == target_res.target else match_images(obs, lookup(lid), params, gsd, target=lid)
        for lid in order
    ]
    return rank_neighbors(results)[0].target == target_res.target


class TestTargetRanksFirst:
    """``target_ranks_first`` skips the fit of rivals with fewer pairs than
    the target has inliers; its decision must equal the full ranking's."""

    def _synthetic(self):
        # 60 random unit descriptors at random points of a 640x480 view
        rng = np.random.default_rng(21)
        desc = rng.normal(size=(60, 128))
        desc /= np.linalg.norm(desc, axis=1)[:, None]
        xy = rng.uniform([20.0, 20.0], [620.0, 460.0], (60, 2))

        def view(k, shift=(0.0, 0.0), outliers=0):
            # the first k observation descriptors, moved by shift; the first
            # `outliers` of them land at random points instead
            pts = xy[:k] + shift
            pts[:outliers] = rng.uniform([20.0, 20.0], [620.0, 460.0], (outliers, 2))
            return DescriptorSet(np.column_stack([pts, np.ones(k)]), desc[:k].copy(), (640, 480))

        return view(60), view

    def _decide(self, obs, sets, order, target, params=MatchParams(), gsd=0.25):
        target_res = match_images(obs, sets[target], params, gsd, target=target)
        full = _ranks_first_in_full(obs, target_res, order, sets.__getitem__, params, gsd)
        assert target_ranks_first(obs, target_res, order, sets.__getitem__, params, gsd) == full
        return full

    def test_criterion_6_observations(self, world_and_reg, grid, match_params, library):
        world, reg = world_and_reg
        rng = np.random.default_rng(606)
        decisions = []
        for trial in range(8):
            cell = LandmarkId(int(rng.integers(1, grid.cols - 1)), int(rng.integers(1, grid.rows - 1)))
            order = [nid for nid in neighbors(grid, cell).values() if nid is not None]
            target = order[int(rng.integers(len(order)))]
            # half the views are taken at a rival, where the target should lose
            seen = target if trial % 2 == 0 else next(n for n in order if n != target)
            pos = landmark_position(grid, seen) + rng.uniform(-3.0, 3.0, 2)
            perturb = PerturbationSpec(
                gain=float(rng.uniform(0.7, 1.4)),
                bias=float(rng.uniform(-20.0, 20.0)),
                noise_sigma=float(rng.uniform(0.0, 5.0)),
                rotation_jitter=math.radians(float(rng.uniform(0.0, 5.0))),
                translation_jitter=2.0,
                rng_seed=int(rng.integers(1 << 31)),
            )
            obs = build_descriptor_set(render_observation(world, reg, Pose(pos[0], pos[1]), perturb), match_params)
            params = replace(match_params, rng_seed=match_params.rng_seed + trial)
            target_res = match_images(obs, library.get(target), params, reg.gsd, target=target)
            full = _ranks_first_in_full(obs, target_res, order, library.get, match_params, reg.gsd)
            assert target_ranks_first(obs, target_res, order, library.get, match_params, reg.gsd) == full
            decisions.append(full)
        assert decisions == [True, False] * 4

    def test_rival_with_enough_pairs_wins(self):
        obs, view = self._synthetic()
        a, b, c = LandmarkId(0, 0), LandmarkId(1, 0), LandmarkId(2, 0)
        # target: 50 pairs, 30 of them inliers; b: 40 pairs, all inliers; c: 20 pairs, not fitted
        sets = {a: view(50, (5.0, 0.0), outliers=20), b: view(40, (6.0, 2.0)), c: view(20)}
        assert not self._decide(obs, sets, [c, a, b], a)
        assert self._decide(obs, {a: sets[a], c: sets[c]}, [c, a], a)

    @pytest.mark.parametrize("rival_shift, target_wins", [((4.0, 0.0), False), ((12.0, 0.0), True)])
    def test_inlier_tie_breaks_on_center_distance(self, rival_shift, target_wins):
        obs, view = self._synthetic()
        a, b = LandmarkId(0, 0), LandmarkId(1, 0)
        # 40 pairs each, all inliers: the rival has exactly the target's inliers in pairs
        sets = {a: view(40, (8.0, 0.0)), b: view(40, rival_shift)}
        assert self._decide(obs, sets, [a, b], a) == target_wins
        assert self._decide(obs, sets, [b, a], a) == target_wins

    def test_exact_tie_breaks_on_position(self):
        obs, view = self._synthetic()
        a, b = LandmarkId(0, 0), LandmarkId(1, 0)
        same = view(40, (3.0, 1.0))
        sets = {a: same, b: same}
        assert self._decide(obs, sets, [a, b], a)
        assert not self._decide(obs, sets, [b, a], a)


@pytest.mark.parametrize("field", ["inlier_tol_px", "distance_threshold_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_match_params_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        MatchParams(**{field: value})


def test_match_images_reports_raw_and_inlier_counts():
    # raw match count >= inliers and mask length matches
    rng = np.random.default_rng(15)
    img = rng.uniform(0, 255, (200, 200))
    params = MatchParams(max_keypoints=120)
    desc, kept = describe(img, detect_keypoints(img, params.max_keypoints))
    dset = DescriptorSet(kept, desc, (200, 200))
    res = match_images(dset, dset, params, gsd=0.25)
    assert res.n_matches >= res.inliers
    assert res.inlier_mask is not None and len(res.inlier_mask) == res.n_matches


def test_build_descriptor_set_takes_only_a_2d_plane(match_params):
    rng = np.random.default_rng(4)
    rgb = rng.integers(0, 256, (64, 80, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        build_descriptor_set(rgb, match_params)
    dset = build_descriptor_set(to_gray(RasterImage(rgb)), match_params)
    assert dset.image_size == (80, 64)
