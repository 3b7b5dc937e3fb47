"""Instrumentation of uasnav from outside the package.

Functions are wrapped where their callers look them up: every loaded
``uasnav`` module whose namespace holds the original function object gets
the wrapper in its place (``navigator.render_observation`` and
``imagery.render_observation`` alike), and ``restore`` puts the originals
back. Nothing in ``src/`` is edited.

An untraced recorder wraps only two functions and reads the clock once at
each ``render_observation`` call (the start of a perception attempt) and
once when ``run_mission`` returns (the end of the last attempt of a
flight). A traced recorder wraps every function in ``TARGETS`` and keeps
one span per call in memory: name, start, end, parent span and the
operation it belongs to, plus the counts taken from the call's result.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

RENDER = "imagery.render_observation"
RUN_MISSION = "navigator.run_mission"
LIBRARY_GET = "navigator.library.get"
CROP = "imagery.landmark_descriptor_image"

SETUP = "setup"  # operation id of spans recorded while setting up


def _describe_counts(args, kwargs, out):
    offered = args[1] if len(args) > 1 else kwargs["keypoints"]
    return {"kept": len(out[1]), "offered": len(offered)}


def _mission_counts(args, kwargs, out):
    return {
        "attempts": sum(r.attempted for r in out.records),
        "ticks": out.ticks,
        "arrivals": len(out.arrivals),
    }


# (home module, attribute, span name, counts taken from (args, kwargs, result))
TARGETS = [
    ("imagery", "render_observation", RENDER, None),
    ("imagery", "build_world", "imagery.build_world", None),
    ("imagery", "landmark_descriptor_image", CROP, None),
    ("raster", "to_gray", "raster.to_gray", None),
    ("raster", "read_pnm", "raster.read_pnm", None),
    ("matching", "build_descriptor_set", "matching.build_descriptor_set", None),
    ("matching", "detect_keypoints", "matching.detect_keypoints",
     lambda a, k, out: {"keypoints": len(out)}),
    ("matching", "describe", "matching.describe", _describe_counts),
    ("matching", "match_descriptors", "matching.match_descriptors",
     lambda a, k, out: {"matches": len(out)}),
    ("matching", "estimate_affine_ransac", "matching.estimate_affine_ransac",
     lambda a, k, out: {"inliers": int(out[1].sum()), "n": len(out[1])}),
    ("matching", "match_images", "matching.match_images",
     lambda a, k, out: {"no_model": out.affine is None}),
    ("matching", "rank_neighbors", "matching.rank_neighbors", None),
    ("navigator", "run_mission", RUN_MISSION, _mission_counts),
    ("navigator", "LandmarkLibrary.get", LIBRARY_GET, None),
    ("navigator", "export_trajectory", "navigator.export_trajectory", None),
    ("svgplot", "png_bytes", "svgplot.png_bytes", None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "cmd_fly", "cli.fly", None),
    ("policy", "train", "policy.train", None),
    ("policy", "value_iteration", "policy.value_iteration", None),
    ("policy", "load_policy", "policy.load_policy", None),
]
UNTRACED_TARGETS = [t for t in TARGETS if t[2] in (RENDER, RUN_MISSION)]


@dataclass
class Span:
    index: int  # position in Recorder.spans
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 at the top
    op: object  # operation index, or SETUP
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Installs the wrappers on ``install`` and removes them on ``restore``."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op: object = SETUP
        self.spans: list[Span] = []
        self.renders: list[tuple[object, float]] = []  # (op, clock at call)
        self.mission_ends: list[tuple[object, float]] = []  # (op, clock at return)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "uasnav" or n.startswith("uasnav.")]
        for home, attr, name, counts in TARGETS if self.traced else UNTRACED_TARGETS:
            home_mod = sys.modules[f"uasnav.{home}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(home_mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name, counts))
                continue
            original = getattr(home_mod, attr)
            wrapper = self._wrap(original, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str, counts):
        if not self.traced:
            if name == RENDER:
                def mark_call(*args, **kwargs):
                    self.renders.append((self.op, time.perf_counter()))
                    return fn(*args, **kwargs)
                return functools.wraps(fn)(mark_call)

            def mark_return(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.mission_ends.append((self.op, time.perf_counter()))
                return out
            return functools.wraps(fn)(mark_return)

        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = Span(index, name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(record)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record.end = time.perf_counter()
            if counts is not None:
                record.counts = counts(args, kwargs, out)
            return out
        return functools.wraps(fn)(span)

    # -- attempt boundaries ---------------------------------------------

    def attempt_marks(self) -> tuple[list[tuple[object, float]], list[tuple[object, float]]]:
        """(renders, mission_ends) as (op, clock) pairs, from whichever
        instrumentation is installed."""
        if not self.traced:
            return self.renders, self.mission_ends
        renders = [(s.op, s.start) for s in self.spans if s.name == RENDER]
        ends = [(s.op, s.end) for s in self.spans if s.name == RUN_MISSION]
        return renders, ends


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Layer metrics of a traced run.

    Timings and counts of the perception layers come from spans recorded
    inside the measured operations; set-up layers (world synthesis, crops,
    policy) use every span, since set-up is where they run. Counts are per
    operation so that they do not grow with run length.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    all_by_name: dict[str, list[Span]] = {}
    for s in spans:
        all_by_name.setdefault(s.name, []).append(s)
        if s.op != SETUP:
            by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def ms_p50(name, source=by_name):
        return _p50([s.ms for s in source.get(name, [])])

    def count_p50(name, key):
        return _p50([s.counts[key] for s in calls(name)])

    def ratio(name, num, den):
        total = sum(s.counts[den] for s in calls(name))
        return sum(s.counts[num] for s in calls(name)) / total if total else 0.0

    def per_op(n):
        return n / n_ops if n_ops else 0.0

    def self_ms(s):
        return s.ms - sum(c.ms for c in children.get(s.index, []))

    gets = calls(LIBRARY_GET)
    misses = [s for s in gets if any(c.name == CROP for c in children.get(s.index, []))]
    missions = calls(RUN_MISSION)
    ransac = calls("matching.estimate_affine_ransac")
    images = calls("matching.match_images")

    return {
        "imagery.render_observation.ms_p50": ms_p50(RENDER),
        "imagery.render_observation.calls": per_op(len(calls(RENDER))),
        "raster.to_gray.ms_p50": ms_p50("raster.to_gray"),
        "matching.detect_keypoints.ms_p50": ms_p50("matching.detect_keypoints"),
        "matching.detect_keypoints.keypoints_p50": count_p50("matching.detect_keypoints", "keypoints"),
        "matching.describe.ms_p50": ms_p50("matching.describe"),
        "matching.describe.kept_ratio": ratio("matching.describe", "kept", "offered"),
        "matching.match_descriptors.ms_p50": ms_p50("matching.match_descriptors"),
        "matching.match_descriptors.matches_p50": count_p50("matching.match_descriptors", "matches"),
        "matching.estimate_affine_ransac.ms_p50": ms_p50("matching.estimate_affine_ransac"),
        "matching.estimate_affine_ransac.calls": per_op(len(ransac)),
        "matching.estimate_affine_ransac.inlier_ratio": ratio("matching.estimate_affine_ransac", "inliers", "n"),
        "matching.match_images.no_model_ratio": (
            sum(s.counts["no_model"] for s in images) / len(images) if images else 0.0
        ),
        "matching.rank_neighbors.ms_p50": ms_p50("matching.rank_neighbors"),
        "navigator.run_mission.self_ms": _p50([self_ms(s) for s in missions]),
        "navigator.run_mission.attempts": count_p50(RUN_MISSION, "attempts"),
        "navigator.run_mission.ticks": count_p50(RUN_MISSION, "ticks"),
        "navigator.run_mission.arrivals": count_p50(RUN_MISSION, "arrivals"),
        "navigator.library.hits": per_op(len(gets) - len(misses)),
        "navigator.library.misses": per_op(len(misses)),
        "navigator.library.miss_ms_p50": _p50([s.ms for s in misses]),
        "imagery.build_world.s": ms_p50("imagery.build_world", all_by_name) / 1e3,
        "imagery.landmark_descriptor_image.ms_p50": ms_p50(CROP, all_by_name),
        "raster.read_pnm.ms": ms_p50("raster.read_pnm"),
        "svgplot.png_bytes.ms": ms_p50("svgplot.png_bytes"),
        "navigator.export_trajectory.ms": ms_p50("navigator.export_trajectory"),
        "config.load_config.ms": ms_p50("config.load_config"),
        "cli.fly.s": ms_p50("cli.fly") / 1e3,
        "policy.train.s": ms_p50("policy.train", all_by_name) / 1e3,
        "policy.value_iteration.ms": ms_p50("policy.value_iteration", all_by_name),
        "policy.load_policy.ms": ms_p50("policy.load_policy"),
    }
