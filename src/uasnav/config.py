"""Run configuration: one INI-style file drives every pipeline stage.

Sections are fixed ([run], [grid], [rewards], [train], [imagery],
[matching], [mission]); unknown sections or keys are rejected outright.
Every key has a documented default so a missing file still yields a
complete reproduction config; each defaulted key is reported as a
``section.key = value (default)`` provenance line. Command-line overrides
(``section.key=value``) are applied on top of the file and win.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .grid import GridSpec, LandmarkId, RewardSpec
from .imagery import PerturbationSpec, WorldSpec
from .matching import MatchParams
from .policy import TrainConfig

_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "run": {
        "output_dir": (str, "out"),
    },
    "grid": {
        "cols": (int, 10),
        "rows": (int, 10),
        "spacing_x_m": (float, 40.0),
        "spacing_y_m": (float, 30.0),
        "origin_x_m": (float, 0.0),
        "origin_y_m": (float, 0.0),
        "goal_col": (int, 5),
        "goal_row": (int, 5),
        "max_episode_steps": (int, 200),
    },
    "rewards": {
        "goal_reward": (float, 0.1),
        "collision_penalty": (float, -0.001),
        "step_penalty": (float, -0.0001),
    },
    "train": {
        "episodes": (int, 2000),
        "learning_rate": (float, 0.1),
        "discount": (float, 0.99),
        "epsilon_start": (float, 1.0),
        "epsilon_end": (float, 0.05),
        "epsilon_decay": (float, 0.95 / 150.0),
        "seed": (int, 17),
        "eval_episodes": (int, 100),
        "eval_seed": (int, 23),
    },
    "imagery": {
        "mode": (str, "synthetic"),  # synthetic | ingest
        "seed": (int, 99),
        "gsd_m_per_px": (float, 0.25),
        "margin_x_m": (float, 100.0),
        "margin_y_m": (float, 80.0),
        "ingest_raster": (str, ""),  # source files for mode = ingest
        "ingest_sidecar": (str, ""),
        "world_raster": (str, "world.ppm"),  # output names inside output_dir
        "world_sidecar": (str, "world.json"),
    },
    "matching": {
        "max_keypoints": (int, 500),
        "ratio": (float, 0.8),
        "inlier_tol_px": (float, 3.0),
        "ransac_iterations": (int, 500),
        "min_inliers": (int, 30),
        "arrival_distance_m": (float, 5.0),
        "seed": (int, 5),
    },
    "mission": {
        "start_col": (int, 0),
        "start_row": (int, 0),
        "control_step_m": (float, 1.0),
        "observation_period": (int, 2),
        "max_ticks": (int, 4000),
        "gain": (float, 1.0),
        "bias": (float, 0.0),
        "noise_sigma": (float, 0.0),
        "rotation_jitter_rad": (float, 0.0),
        "translation_jitter_m": (float, 0.0),
        "seed": (int, 11),
        "policy_file": (str, "policy.txt"),
    },
}


@dataclass
class RunConfig:
    """Typed view over the merged config; ``provenance`` lists the
    ``section.key = value (default)`` lines for keys the file omitted."""

    values: dict[str, dict[str, object]]
    provenance: list[str]
    path: Path | None

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @property
    def output_dir(self) -> Path:
        return Path(str(self.values["run"]["output_dir"]))

    def grid_spec(self) -> GridSpec:
        g = self.values["grid"]
        try:
            return GridSpec(
                cols=g["cols"],
                rows=g["rows"],
                spacing_x=g["spacing_x_m"],
                spacing_y=g["spacing_y_m"],
                origin=(g["origin_x_m"], g["origin_y_m"]),
            )
        except ValueError as exc:
            raise ConfigError(f"[grid]: {exc}") from None

    def goal(self) -> LandmarkId:
        g = self.values["grid"]
        lid = LandmarkId(g["goal_col"], g["goal_row"])
        self.grid_spec().check(lid)
        return lid

    def reward_spec(self) -> RewardSpec:
        r = self.values["rewards"]
        try:
            return RewardSpec(
                goal_reward=r["goal_reward"],
                collision_penalty=r["collision_penalty"],
                step_penalty=r["step_penalty"],
            )
        except ValueError as exc:
            raise ConfigError(f"[rewards]: {exc}") from None

    def train_config(self) -> TrainConfig:
        t = self.values["train"]
        try:
            return TrainConfig(
                episodes=t["episodes"],
                learning_rate=t["learning_rate"],
                discount=t["discount"],
                epsilon_start=t["epsilon_start"],
                epsilon_end=t["epsilon_end"],
                epsilon_decay=t["epsilon_decay"],
                rng_seed=t["seed"],
                max_episode_steps=self.values["grid"]["max_episode_steps"],
            )
        except ValueError as exc:
            raise ConfigError(f"[train]: {exc}") from None

    def world_spec(self) -> WorldSpec:
        i = self.values["imagery"]
        if i["mode"] not in ("synthetic", "ingest"):
            raise ConfigError(f"[imagery]: mode must be 'synthetic' or 'ingest', got {i['mode']!r}")
        try:
            return WorldSpec(
                seed=i["seed"],
                gsd=i["gsd_m_per_px"],
                margin_x_m=i["margin_x_m"],
                margin_y_m=i["margin_y_m"],
            )
        except ValueError as exc:
            raise ConfigError(f"[imagery]: {exc}") from None

    def match_params(self) -> MatchParams:
        m = self.values["matching"]
        try:
            return MatchParams(
                max_keypoints=m["max_keypoints"],
                ratio=m["ratio"],
                inlier_tol_px=m["inlier_tol_px"],
                ransac_iterations=m["ransac_iterations"],
                min_inliers=m["min_inliers"],
                distance_threshold_m=m["arrival_distance_m"],
                rng_seed=m["seed"],
            )
        except ValueError as exc:
            raise ConfigError(f"[matching]: {exc}") from None

    def perturbation(self) -> PerturbationSpec:
        m = self.values["mission"]
        if not 0.0 <= m["rotation_jitter_rad"] <= math.pi:
            raise ConfigError("[mission]: rotation_jitter_rad outside [0, pi]")
        try:
            return PerturbationSpec(
                gain=m["gain"],
                bias=m["bias"],
                noise_sigma=m["noise_sigma"],
                rotation_jitter=m["rotation_jitter_rad"],
                translation_jitter=m["translation_jitter_m"],
                rng_seed=m["seed"],
            )
        except ValueError as exc:
            raise ConfigError(f"[mission]: {exc}") from None

    def mission_start(self) -> LandmarkId:
        m = self.values["mission"]
        lid = LandmarkId(m["start_col"], m["start_row"])
        self.grid_spec().check(lid)
        return lid


def _convert(section: str, key: str, raw: str, typ: type) -> object:
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return str(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {typ.__name__}, got {raw!r}"
        ) from None


def parse_overrides(pairs: list[str]) -> dict[tuple[str, str], str]:
    """Parse ``section.key=value`` strings from the command line."""
    out: dict[tuple[str, str], str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        lhs, value = pair.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        section, key = lhs.split(".", 1)
        out[(section.strip(), key.strip())] = value.strip()
    return out


def load_config(path=None, overrides: dict[tuple[str, str], str] | None = None) -> RunConfig:
    """Read, merge, validate; unknown sections/keys raise ConfigError."""
    file_values: dict[str, dict[str, str]] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"{p}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"{p}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"{p}: unknown key {key!r} in [{section}]")
                file_values.setdefault(section, {})[key] = value

    for (section, key), value in (overrides or {}).items():
        if section not in _SCHEMA:
            raise ConfigError(f"override: unknown section [{section}]")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"override: unknown key {key!r} in [{section}]")
        file_values.setdefault(section, {})[key] = value

    values: dict[str, dict[str, object]] = {}
    provenance: list[str] = []
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (typ, default) in keys.items():
            if section in file_values and key in file_values[section]:
                values[section][key] = _convert(section, key, file_values[section][key], typ)
            else:
                values[section][key] = default
                shown = f"{default:.6g}" if isinstance(default, float) else str(default)
                provenance.append(f"{section}.{key} = {shown} (default)")

    return RunConfig(values=values, provenance=provenance, path=Path(path) if path else None)


def write_reference_config(path) -> None:
    """Emit a fully explicit config file with current defaults."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (typ, default) in keys.items():
            shown = f"{default:.6g}" if isinstance(default, float) else str(default)
            lines.append(f"{key} = {shown}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
