"""Landmark recognition: keypoints, descriptors, correspondence matching,
robust affine estimation, and the center distance that the arrival gate
(``navigator.gate``) reads.

The pipeline is classical and fully seed-deterministic: a Harris-style
corner detector with non-maximum suppression, an upright 128-dim gradient
patch descriptor (bias falls out of differentiation, gain out of the L2
normalization), Lowe-ratio plus mutual-best matching, and RANSAC over
minimal 3-point affine solves refined by least squares. Descriptors are
not rotation-invariant; that is acceptable because the platform flies
north-oriented and rotation jitter stays within about ten degrees.

Everything between the stages is a numpy array:

- keypoints: ``(n, 3)`` float64 rows of ``x, y, response``, strongest first;
- descriptors: ``(n, 128)`` float64 unit rows, one per keypoint row;
- matches: ``(m, 2)`` integer rows of ``(query, train)`` indices into the
  two keypoint arrays, in query order;
- RANSAC input: two ``(m, 2)`` arrays of matched ``x, y`` positions.

Images enter as 2-D luminance planes: ``render_observation`` returns one,
and callers holding a ``RasterImage`` pass ``to_gray`` of it.
``build_descriptor_set`` casts the plane to float32 once and runs
detection and description on it.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import (
    BoundsError,
    DegenerateGeometryError,
    InsufficientMatchesError,
    InvalidStateError,
)
from .grid import LandmarkId

logger = logging.getLogger(__name__)

DESCRIPTOR_DIM = 128
_PATCH = 16          # descriptor patch side in pixels (8x8 cells of 2x2 px)
_PATCH_PAD = _PATCH // 2 + 1
_MIN_IMAGE_SIDE = 32
NMS_RADIUS = 8       # px between kept corners
_REL_THRESHOLD = 1e-4  # corner response floor relative to the image's peak
_RANSAC_BLOCK = 16   # hypotheses scored before the rest


@dataclass
class AffineTransform:
    """2x3 matrix mapping query pixel coordinates to train pixel coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2, 3):
            raise ValueError(f"affine matrix must be 2x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DegenerateGeometryError("affine matrix has non-finite entries")
        if abs(np.linalg.det(m[:, :2])) < 1e-12:
            raise DegenerateGeometryError("affine linear part is singular")
        self.matrix = m

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix[:, :2].T + self.matrix[:, 2]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:, 2].copy()

    @property
    def rotation(self) -> float:
        """Rotation angle of the linear part (radians), for similarity-like maps."""
        return float(np.arctan2(self.matrix[1, 0], self.matrix[0, 0]))


@dataclass
class MatchResult:
    """Outcome of matching one observation against one candidate landmark."""

    target: LandmarkId | None
    pairs: np.ndarray  # (m, 2) mutual (query, train) keypoint indices
    inliers: int
    affine: AffineTransform | None
    center_distance_m: float | None
    inlier_mask: np.ndarray | None = None

    @property
    def n_matches(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MatchParams:
    """Thresholds for the full pipeline. Defaults were chosen on seeded
    synthetic-world experiments (see README); every one is a config key."""

    max_keypoints: int = 500
    ratio: float = 0.8
    inlier_tol_px: float = 3.0
    ransac_iterations: int = 500
    min_inliers: int = 30
    distance_threshold_m: float = 5.0
    rng_seed: int = 5

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if self.max_keypoints < 1 or self.ransac_iterations < 1:
            raise ValueError("max_keypoints and ransac_iterations must be positive")
        # written so that NaN fails every check
        if not (math.isfinite(self.inlier_tol_px) and self.inlier_tol_px > 0):
            raise ValueError("inlier_tol_px must be positive and finite")
        if not (math.isfinite(self.distance_threshold_m) and self.distance_threshold_m >= 0):
            raise ValueError("distance_threshold_m must be non-negative and finite")
        if self.min_inliers < 0 or self.rng_seed < 0:
            raise ValueError("min_inliers and rng_seed must be non-negative")


@dataclass
class DescriptorSet:
    """Keypoints plus their descriptors for one image."""

    keypoints: np.ndarray  # (n, 3) x, y, response rows
    descriptors: np.ndarray  # (n, 128) unit rows
    image_size: tuple[int, int]  # (width, height)

    def __len__(self) -> int:
        return len(self.keypoints)


def detect_keypoints(gray: np.ndarray, max_keypoints: int) -> np.ndarray:
    """Harris corners of a 2-D gray plane as ``(n, 3)`` rows of
    ``x, y, response``, strongest first, with non-maximum suppression.

    Candidates are maxima of their ``(2 NMS_RADIUS + 1)``-pixel square window
    with a response above a threshold relative to the global peak. In
    response order (ties broken by row, then column, so the output is
    deterministic) a candidate closer than ``NMS_RADIUS`` to an earlier kept
    one is dropped (see ``_nms_kept``). Kept peaks get a clamped parabolic
    sub-pixel refine.
    """
    if max_keypoints < 1:
        raise ValueError("max_keypoints must be positive")
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
        return np.zeros((0, 3))  # flat image: no gradient, no corners
    threshold = max(_REL_THRESHOLD * peak, 1e-12)
    # Peaks stay _PATCH_PAD clear of the border so descriptor patches always
    # fit (and every peak has the four neighbours the sub-pixel refine
    # reads). Their windows therefore lie inside the plane, and the window
    # maxima are taken over the interior without any edge padding.
    r, pad = NMS_RADIUS, _PATCH_PAD
    window_max = _window_max(_window_max(response[pad - r:h - pad + r, pad - r:w - pad + r]).T).T
    inner = response[pad:h - pad, pad:w - pad]
    ys, xs = np.nonzero((inner == window_max) & (inner > threshold))
    ys += pad
    xs += pad
    order = np.lexsort((xs, ys, -response[ys, xs]))
    ys, xs = ys[order], xs[order]
    kept = _nms_kept(xs, ys, response, max_keypoints)
    ys, xs = ys[kept], xs[kept]

    center = response[ys, xs]
    sx = _vertex_offsets(response[ys, xs - 1], center, response[ys, xs + 1])
    sy = _vertex_offsets(response[ys - 1, xs], center, response[ys + 1, xs])
    return np.stack([xs + sx, ys + sy, center], axis=1, dtype=np.float64)


def _window_max(a: np.ndarray) -> np.ndarray:
    """Maximum over every ``2 NMS_RADIUS + 1`` consecutive rows of ``a``
    (whole windows only). Windows double in width pass by pass (1, 2, 4, 8,
    16 rows), and the last pass joins two overlapping ones (van Herk 1992).
    A maximum rounds nothing, so this is exact."""
    size = 2 * NMS_RADIUS + 1
    width = 1
    while 2 * width <= size:
        a = np.maximum(a[:-width], a[width:])
        width *= 2
    return np.maximum(a[:len(a) - size + width], a[size - width:])


def _nms_kept(xs: np.ndarray, ys: np.ndarray, response: np.ndarray, max_keypoints: int) -> np.ndarray:
    """Indices of the first ``max_keypoints`` candidates kept by the greedy
    pass that visits the candidates at ``xs, ys`` in response order (then
    raster order) and drops each one closer than ``NMS_RADIUS`` to a
    candidate it kept before.

    Candidates are maxima of their ``2 NMS_RADIUS + 1`` window, so two of
    them closer than ``NMS_RADIUS`` lie in each other's window and have
    equal response: only a kept candidate earlier in the same run of equal
    response can drop one, and the first of each run is always kept.
    """
    values = response[ys, xs]
    start = np.searchsorted(-values, -values, side="left")
    keep = np.ones(len(xs), dtype=bool)
    for j in np.flatnonzero(start < np.arange(len(xs))):
        if j >= max_keypoints and np.count_nonzero(keep[:j]) >= max_keypoints:  # capped before j
            break
        # a run is in raster order, so only its rows above ys[j] - NMS_RADIUS can be near
        lo = start[j] + np.searchsorted(ys[start[j]:j], ys[j] - NMS_RADIUS, side="right")
        near = (xs[lo:j] - xs[j]) ** 2 + (ys[lo:j] - ys[j]) ** 2 < NMS_RADIUS ** 2
        keep[j] = not (near & keep[lo:j]).any()
    return np.flatnonzero(keep)[:max_keypoints]


def _vertex_offsets(left: np.ndarray, center: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Vertex offset of the parabola through three samples, clamped to half
    a pixel; zero where the samples are collinear."""
    denom = left - 2.0 * center + right
    curved = np.abs(denom) >= 1e-12
    out = np.zeros_like(denom)
    out[curved] = np.clip(0.5 * (left[curved] - right[curved]) / denom[curved], -0.5, 0.5)
    return out


def describe(gray: np.ndarray, keypoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upright gradient patch descriptors, one unit-norm 128-vector per
    keypoint row, returned with the keypoint rows they describe.

    A 16x16 gradient patch around the keypoint (sampled bilinearly from a
    smoothed gradient field) is average-pooled to 8x8 cells of (gx, gy) and
    L2-normalized. Differentiation removes intensity bias and the
    normalization removes gain, so descriptors are invariant to affine
    intensity changes by construction. Keypoints whose patch leaves the
    image (or has no gradient energy) are dropped and logged.
    """
    gray = np.asarray(gray, dtype=np.float32)
    h, w = gray.shape
    if len(keypoints) == 0:
        return np.zeros((0, DESCRIPTOR_DIM)), keypoints

    smoothed = gaussian_filter(gray, sigma=2.0, mode="nearest")
    gy, gx = np.gradient(smoothed)

    offsets = np.arange(_PATCH, dtype=np.float64) - (_PATCH - 1) / 2.0  # cell centers

    xy = keypoints[:, :2]
    in_bounds = (
        (xy[:, 0] >= _PATCH_PAD)
        & (xy[:, 0] <= w - 1 - _PATCH_PAD)
        & (xy[:, 1] >= _PATCH_PAD)
        & (xy[:, 1] <= h - 1 - _PATCH_PAD)
    )
    dropped = int((~in_bounds).sum())

    sel = np.nonzero(in_bounds)[0]
    # Patch row i, column j samples (x + offsets[j], y + offsets[i]); the
    # pad keeps every sample and its +1 neighbours inside the plane. Floor,
    # fraction and flat corner index are shared by both gradient planes.
    px = xy[sel, 0][:, None] + offsets
    py = xy[sel, 1][:, None] + offsets
    x0, y0 = np.floor(px), np.floor(py)
    fx = (px - x0).astype(np.float32)[:, None, :]
    fy = (py - y0).astype(np.float32)[:, :, None]
    corner = (y0.astype(np.intp) * w)[:, :, None] + x0.astype(np.intp)[:, None, :]

    def sample(plane):
        flat = plane.ravel()
        top = flat[corner] * (1 - fx) + flat[corner + 1] * fx
        bot = flat[corner + w] * (1 - fx) + flat[corner + (w + 1)] * fx
        return top * (1 - fy) + bot * fy

    patch_gx = sample(gx)
    patch_gy = sample(gy)

    # 2x2 average pooling down to 8x8 cells, then interleave (gx, gy)
    def pool(p):
        k = p.reshape(len(sel), _PATCH // 2, 2, _PATCH // 2, 2)
        return k.mean(axis=(2, 4))

    vec = np.stack([pool(patch_gx), pool(patch_gy)], axis=-1).reshape(len(sel), DESCRIPTOR_DIM)
    vec = vec.astype(np.float64)
    norms = np.linalg.norm(vec, axis=1)
    has_energy = norms > 1e-9
    dropped += int((~has_energy).sum())
    vec = vec[has_energy] / norms[has_energy][:, None]

    if dropped:
        logger.debug("describe: dropped %d/%d keypoints (patch out of bounds or flat)", dropped, len(keypoints))
    return vec, keypoints[sel[has_energy]]


def build_descriptor_set(gray: np.ndarray, params: MatchParams) -> DescriptorSet:
    """Keypoints and descriptors of a 2-D luminance plane; ``detect_keypoints``
    rejects any other shape."""
    gray = np.asarray(gray, dtype=np.float32)
    kps = detect_keypoints(gray, max_keypoints=params.max_keypoints)
    desc, kept = describe(gray, kps)
    return DescriptorSet(keypoints=kept, descriptors=desc, image_size=(gray.shape[1], gray.shape[0]))


def match_descriptors(query: np.ndarray, train: np.ndarray, ratio: float) -> np.ndarray:
    """Nearest-neighbor matches as ``(m, 2)`` rows of ``(query, train)``
    indices, in query order.

    Each query keeps its nearest train neighbor when the pair is mutually
    best and the nearest beats the second nearest by the ratio. With fewer
    than two train descriptors the ratio test cannot run and only the
    mutual check applies (documented degenerate path). Ties resolve to the
    lowest index, so the output is deterministic.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    query = np.asarray(query, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    if len(query) == 0 or len(train) == 0:
        return np.zeros((0, 2), dtype=np.intp)

    d2 = (
        np.sum(query * query, axis=1)[:, None]
        + np.sum(train * train, axis=1)[None, :]
        - 2.0 * (query @ train.T)
    )
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)

    nearest = np.argmin(dist, axis=1)
    best_for_train = np.argmin(dist, axis=0)
    q = np.flatnonzero(best_for_train[nearest] == np.arange(len(query)))
    if len(train) >= 2:
        second = np.partition(dist[q], 1, axis=1)[:, 1]
        q = q[dist[q, nearest[q]] < ratio * second]
    return np.stack([q, nearest[q]], axis=1)


def estimate_affine_ransac(
    src: np.ndarray,
    dst: np.ndarray,
    inlier_tol_px: float,
    iterations: int,
    rng_seed: int,
) -> tuple[AffineTransform, np.ndarray]:
    """RANSAC affine fit mapping ``(n, 2)`` points ``src`` onto ``dst``,
    over minimal 3-point solves.

    Hypotheses are the triples ``_ransac_triples`` draws from ``rng_seed``,
    scored in draw order in two blocks: the first ``_RANSAC_BLOCK``, then
    the rest. No hypothesis can have more than ``n`` inliers, so once one
    has all ``n`` the rest are never scored.
    The winner is the model with the most inliers (the earliest iteration
    wins ties), then refit by least squares on its full inlier set. The
    returned mask is re-evaluated under the refit model.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n < 3:
        raise InsufficientMatchesError(f"affine estimation needs >= 3 correspondences, got {n}")

    triples = _ransac_triples(n, iterations, rng_seed)
    src_h = np.hstack([src, np.ones((n, 1))])  # (n, 3)
    counts, params = [], []
    first = min(_RANSAC_BLOCK, iterations)
    for samples in (triples[:first], triples[first:]):
        size = len(samples)
        mats = src_h[samples]                                  # (size, 3, 3)
        valid = np.abs(np.linalg.det(mats)) > 1e-6            # collinear samples are degenerate
        block = np.zeros((size, 3, 2))
        block[valid] = np.linalg.solve(mats[valid], dst[samples[valid]])
        block_counts = np.full(size, -1, dtype=np.int64)
        block_counts[valid] = np.count_nonzero(_residuals(src, dst, block[valid]) <= inlier_tol_px, axis=1)
        counts.append(block_counts)
        params.append(block)
        if n in block_counts:
            break
    counts = np.concatenate(counts)
    if counts.max() < 0:
        raise DegenerateGeometryError("every sampled correspondence triple was collinear")
    best_iter = int(np.argmax(counts))                       # first max = earliest iteration
    best_params = np.concatenate(params)[best_iter]
    best_mask = np.linalg.norm(src_h @ best_params - dst, axis=1) <= inlier_tol_px

    refit, _, _, _ = np.linalg.lstsq(src_h[best_mask], dst[best_mask], rcond=None)
    model = AffineTransform(refit.T)
    final_mask = np.linalg.norm(src_h @ refit - dst, axis=1) <= inlier_tol_px
    return model, final_mask


def _ransac_triples(n: int, count: int, seed: int) -> np.ndarray:
    """``(count, 3)`` rows of distinct indices in ``[0, n)``, uniform over
    ordered triples: one draw below ``n``, ``n - 1`` and ``n - 2`` per row,
    the second stepped past the first, the third past the smaller and then
    the larger of those two."""
    triples = np.random.default_rng(seed).integers(0, [n, n - 1, n - 2], size=(count, 3), dtype=np.intp)
    a, b, c = triples.T
    b += b >= a
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return triples


def _residuals(src: np.ndarray, dst: np.ndarray, params: np.ndarray) -> np.ndarray:
    """``(v, n)`` distances from each ``(3, 2)`` affine of ``params`` applied
    to ``src`` to ``dst``. Each coordinate is summed term by term, ``x a + y
    b + c`` then ``- dst``, the order of a per-point product with ``(x, y,
    1)``; a matmul sums in another order and differs in the last bits."""
    x, y = src[:, 0], src[:, 1]
    dx = x * params[:, 0, 0, None] + y * params[:, 1, 0, None] + params[:, 2, 0, None] - dst[:, 0]
    dy = x * params[:, 0, 1, None] + y * params[:, 1, 1, None] + params[:, 2, 1, None] - dst[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def center_distance(
    affine: AffineTransform,
    query_size: tuple[int, int],
    train_size: tuple[int, int],
    gsd: float,
) -> float:
    """Metric distance between the mapped query center and the train center."""
    qc = np.array([query_size[0] / 2.0, query_size[1] / 2.0])
    tc = np.array([train_size[0] / 2.0, train_size[1] / 2.0])
    return float(np.linalg.norm(affine.apply(qc[None])[0] - tc) * gsd)


def match_images(
    observation: DescriptorSet,
    candidate: DescriptorSet,
    params: MatchParams,
    gsd: float,
    target: LandmarkId | None = None,
) -> MatchResult:
    """Full per-candidate pipeline: match, robust affine, center distance.

    RANSAC failures (too few matches or degenerate geometry) produce a
    result with no affine rather than an exception, so ranking can proceed.
    """
    pairs = match_descriptors(observation.descriptors, candidate.descriptors, params.ratio)
    return _fit_pairs(observation, candidate, pairs, params, gsd, target)


def _fit_pairs(
    observation: DescriptorSet,
    candidate: DescriptorSet,
    pairs: np.ndarray,
    params: MatchParams,
    gsd: float,
    target: LandmarkId | None,
) -> MatchResult:
    """The robust affine and center distance of ``match_images``, from the
    mutual pairs it matched."""
    if len(pairs) >= 3:
        try:
            affine, mask = estimate_affine_ransac(
                observation.keypoints[pairs[:, 0], :2],
                candidate.keypoints[pairs[:, 1], :2],
                inlier_tol_px=params.inlier_tol_px,
                iterations=params.ransac_iterations,
                rng_seed=params.rng_seed,
            )
            cdist = center_distance(affine, observation.image_size, candidate.image_size, gsd)
            return MatchResult(target, pairs, int(mask.sum()), affine, cdist, inlier_mask=mask)
        except DegenerateGeometryError:
            pass
    return MatchResult(target, pairs, inliers=0, affine=None, center_distance_m=None)


def rank_neighbors(results: list[MatchResult]) -> list[MatchResult]:
    """Order match results of one observation against candidate landmarks
    (in flight, the departure cell's neighbors) by inlier count.

    Ties break by smaller center distance, then input position; results
    without a model rank last. Deterministic.
    """
    if not results:
        raise InvalidStateError("rank_neighbors needs at least one result")
    return sorted(
        results,
        key=lambda r: (
            r.affine is None,
            -r.inliers,
            r.center_distance_m if r.center_distance_m is not None else math.inf,
        ),
    )


def target_ranks_first(
    observation: DescriptorSet,
    target_result: MatchResult,
    candidates: Iterable[LandmarkId],
    lookup: Callable[[LandmarkId], DescriptorSet],
    params: MatchParams,
    gsd: float,
) -> bool:
    """Whether ``target_result`` ranks first (``rank_neighbors``) among the
    ``match_images`` results of ``observation`` against ``candidates``:
    landmark ids in ranking order, ``target_result.target`` in its own place.
    ``lookup`` gives each rival's descriptor set.

    Every rival is matched, but an inlier set is a subset of the pairs, so
    a rival with fewer pairs than the target has inliers ranks below the
    target and is not fitted. A rival with as many can still tie or win
    (ties break on center distance, then position) and is fitted.
    """
    target = target_result.target
    results = []
    for lid in candidates:
        if lid == target:
            results.append(target_result)
            continue
        candidate = lookup(lid)
        pairs = match_descriptors(observation.descriptors, candidate.descriptors, params.ratio)
        if len(pairs) >= target_result.inliers:
            results.append(_fit_pairs(observation, candidate, pairs, params, gsd, lid))
    return rank_neighbors(results)[0].target == target

