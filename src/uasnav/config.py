"""Run configuration: one INI-style file drives every pipeline stage.

Sections are fixed ([run], [grid], [rewards], [train], [imagery],
[matching], [mission]); unknown sections or keys are rejected outright.
Every key has a default so a missing file still yields a complete
reproduction config; each defaulted key is reported as a
``section.key = value (default)`` provenance line. Values are written in
Python's shortest round-trip form, so the provenance lines and the
reference file read back to the same values. Command-line overrides
(``section.key=value``) are applied on top of the file and win.

Defaults live in the dataclasses (``GridSpec``, ``RewardSpec``,
``TrainConfig``, ``WorldSpec``, ``MatchParams``, ``PerturbationSpec``,
``MissionConfig``): ``_SCHEMA`` binds each key to the field it feeds and
reads the default and its type from that field. Only keys that feed no
field (paths, goal and start cells, evaluation settings, the mission seed)
hold a literal default here.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import BoundsError, ConfigError
from .grid import GridSpec, LandmarkId, RewardSpec
from .imagery import PerturbationSpec, WorldSpec
from .matching import MatchParams
from .navigator import MissionConfig
from .policy import PolicyTable, TrainConfig

# section -> key -> the (dataclass, field) it feeds, with an element index
# for the tuple-valued ``origin``; keys that feed no field hold a literal
_SCHEMA: dict[str, dict[str, object]] = {
    "run": {
        "output_dir": "out",
    },
    "grid": {
        "cols": (GridSpec, "cols"),
        "rows": (GridSpec, "rows"),
        "spacing_x_m": (GridSpec, "spacing_x"),
        "spacing_y_m": (GridSpec, "spacing_y"),
        "origin_x_m": (GridSpec, "origin", 0),
        "origin_y_m": (GridSpec, "origin", 1),
        "goal_col": 5,
        "goal_row": 5,
        "max_episode_steps": (TrainConfig, "max_episode_steps"),
    },
    "rewards": {
        "goal_reward": (RewardSpec, "goal_reward"),
        "collision_penalty": (RewardSpec, "collision_penalty"),
        "step_penalty": (RewardSpec, "step_penalty"),
    },
    "train": {
        "episodes": (TrainConfig, "episodes"),
        "learning_rate": (TrainConfig, "learning_rate"),
        "discount": (TrainConfig, "discount"),
        "epsilon_start": (TrainConfig, "epsilon_start"),
        "epsilon_end": (TrainConfig, "epsilon_end"),
        "epsilon_decay": (TrainConfig, "epsilon_decay"),
        "seed": (TrainConfig, "rng_seed"),
        "eval_episodes": 100,
        "eval_seed": 23,
    },
    "imagery": {
        "mode": "synthetic",  # synthetic | ingest
        "seed": (WorldSpec, "seed"),
        "gsd_m_per_px": (WorldSpec, "gsd"),
        "margin_x_m": (WorldSpec, "margin_x_m"),
        "margin_y_m": (WorldSpec, "margin_y_m"),
        "ingest_raster": "",  # source files for mode = ingest
        "ingest_sidecar": "",
        "world_raster": "world.ppm",  # output names inside output_dir
        "world_sidecar": "world.json",
    },
    "matching": {
        "max_keypoints": (MatchParams, "max_keypoints"),
        "ratio": (MatchParams, "ratio"),
        "inlier_tol_px": (MatchParams, "inlier_tol_px"),
        "ransac_iterations": (MatchParams, "ransac_iterations"),
        "min_inliers": (MatchParams, "min_inliers"),
        "arrival_distance_m": (MatchParams, "distance_threshold_m"),
        "seed": (MatchParams, "rng_seed"),
    },
    "mission": {
        "start_col": 0,
        "start_row": 0,
        "control_step_m": (MissionConfig, "control_step_m"),
        "observation_period": (MissionConfig, "observation_period"),
        "max_ticks": (MissionConfig, "max_ticks"),
        "gain": (PerturbationSpec, "gain"),
        "bias": (PerturbationSpec, "bias"),
        "noise_sigma": (PerturbationSpec, "noise_sigma"),
        "rotation_jitter_rad": (PerturbationSpec, "rotation_jitter"),
        "translation_jitter_m": (PerturbationSpec, "translation_jitter"),
        "seed": 11,  # the mission's own render seed, not PerturbationSpec's 0
        "policy_file": "policy.txt",
    },
}


def _default(binding: object) -> object:
    """The default of a schema entry: its field's default, or the literal."""
    if not isinstance(binding, tuple):
        return binding
    cls, name, *item = binding
    default = next(f.default for f in fields(cls) if f.name == name)
    return default[item[0]] if item else default


_DEFAULTS = {
    section: {key: _default(binding) for key, binding in keys.items()}
    for section, keys in _SCHEMA.items()
}


@dataclass
class RunConfig:
    """Typed view over the merged config; ``provenance`` lists the
    ``section.key = value (default)`` lines for keys the file omitted."""

    values: dict[str, dict[str, object]]
    provenance: list[str]

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @property
    def output_dir(self) -> Path:
        return Path(str(self.values["run"]["output_dir"]))

    def _build(self, section: str, cls: type, **extra):
        """``cls`` from the keys of ``section`` bound to its fields, plus
        ``extra``; a value the dataclass rejects is a ConfigError."""
        kwargs = {
            binding[1]: self.values[section][key]
            for key, binding in _SCHEMA[section].items()
            if isinstance(binding, tuple) and binding[0] is cls and len(binding) == 2
        }
        try:
            return cls(**kwargs, **extra)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    def grid_spec(self) -> GridSpec:
        g = self.values["grid"]
        return self._build("grid", GridSpec, origin=(g["origin_x_m"], g["origin_y_m"]))

    def _landmark(self, section: str, name: str) -> LandmarkId:
        s = self.values[section]
        try:
            return self.grid_spec().check(LandmarkId(s[f"{name}_col"], s[f"{name}_row"]))
        except BoundsError as exc:
            raise ConfigError(f"[{section}] {name}_col, {name}_row: {exc}") from None

    def goal(self) -> LandmarkId:
        return self._landmark("grid", "goal")

    def reward_spec(self) -> RewardSpec:
        return self._build("rewards", RewardSpec)

    def train_config(self) -> TrainConfig:
        return self._build(
            "train", TrainConfig, max_episode_steps=self.values["grid"]["max_episode_steps"]
        )

    def world_spec(self) -> WorldSpec:
        return self._build("imagery", WorldSpec)

    def match_params(self) -> MatchParams:
        return self._build("matching", MatchParams)

    def perturbation(self) -> PerturbationSpec:
        m = self.values["mission"]
        if not 0.0 <= m["rotation_jitter_rad"] <= math.pi:
            raise ConfigError("[mission]: rotation_jitter_rad outside [0, pi]")
        return self._build("mission", PerturbationSpec, rng_seed=m["seed"])

    def mission_start(self) -> LandmarkId:
        return self._landmark("mission", "start")

    def mission_config(self, policy: PolicyTable) -> MissionConfig:
        return self._build(
            "mission",
            MissionConfig,
            start=self.mission_start(),
            goal=self.goal(),
            policy=policy,
            perturbation=self.perturbation(),
            match_params=self.match_params(),
        )


def _convert(section: str, key: str, raw: str, typ: type) -> object:
    try:
        value = typ(raw)  # int, float or str
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {typ.__name__}, got {raw!r}"
        ) from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite float, got {raw!r}")
    return value


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
    """Read, merge, validate; unknown sections, keys or imagery modes raise ConfigError."""
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
    for section, defaults in _DEFAULTS.items():
        values[section] = {}
        for key, default in defaults.items():
            if section in file_values and key in file_values[section]:
                values[section][key] = _convert(section, key, file_values[section][key], type(default))
            else:
                values[section][key] = default
                provenance.append(f"{section}.{key} = {default} (default)")

    mode = values["imagery"]["mode"]
    if mode not in ("synthetic", "ingest"):
        raise ConfigError(f"[imagery]: mode must be 'synthetic' or 'ingest', got {mode!r}")
    return RunConfig(values=values, provenance=provenance)


def write_reference_config(path) -> None:
    """Emit a fully explicit config file with current defaults."""
    lines = []
    for section, defaults in _DEFAULTS.items():
        lines.append(f"[{section}]")
        for key, default in defaults.items():
            lines.append(f"{key} = {default}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
