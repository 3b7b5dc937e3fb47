"""Command-line entry point tying the pipeline together.

Subcommands: ``build-env`` (world + landmark descriptor files), ``train``
(policy + training curve), ``eval`` (policy rollouts), ``match`` (single
image pair report), ``fly`` (closed-loop mission). One config file drives
all stages, so a full reproduction is build-env, train, eval, fly with a
single file; ``--set section.key=value`` overrides win over the file.

Exit codes: 0 success, 2 config error, 3 runtime/domain error. The last
stdout line is always machine-parseable: ``status=<ok|error> ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import imagery, matching, navigator, policy as policymod, svgplot
from .errors import ConfigError, UasNavError
from .grid import GridSpec, write_episode_logs
from .raster import (
    GeoRegistration,
    RasterImage,
    read_pnm,
    read_sidecar,
    to_gray,
    write_pnm,
    write_sidecar,
)


def _load_run_config(args) -> cfgmod.RunConfig:
    overrides = cfgmod.parse_overrides(args.set or [])
    cfg = cfgmod.load_config(args.config, overrides)
    for line in cfg.provenance:
        print(line)
    return cfg


def _read_world(raster_path, sidecar_path, grid: GridSpec) -> tuple[RasterImage, GeoRegistration]:
    """A world raster and its sidecar from disk, checked to cover the grid."""
    world = read_pnm(raster_path)
    reg = read_sidecar(sidecar_path)
    imagery.check_world_coverage(world.width, world.height, reg, grid)
    return world, reg


def _load_policy(args, cfg: cfgmod.RunConfig, grid: GridSpec) -> policymod.PolicyTable:
    """``--policy`` or ``<output_dir>/<mission.policy_file>``, on the configured grid."""
    path = Path(args.policy) if args.policy else cfg.output_dir / str(cfg["mission"]["policy_file"])
    learned = policymod.load_policy(path)
    if (learned.cols, learned.rows) != (grid.cols, grid.rows):
        raise ConfigError(
            f"policy grid {learned.cols}x{learned.rows} does not match configured "
            f"{grid.cols}x{grid.rows}"
        )
    return learned


def cmd_build_env(args) -> int:
    cfg = _load_run_config(args)
    grid = cfg.grid_spec()
    src_raster = str(cfg["imagery"]["ingest_raster"])
    if src_raster:  # load_config has checked that the sidecar is set with it
        world, reg = _read_world(src_raster, str(cfg["imagery"]["ingest_sidecar"]), grid)
    else:
        world, reg = imagery.build_world(grid, cfg.world_spec())

    # only a world that was built or read gets an output directory
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    world_name = str(cfg["imagery"]["world_raster"])
    write_pnm(world, out / world_name)
    write_sidecar(reg, out / str(cfg["imagery"]["world_sidecar"]))
    lm_dir = out / "landmarks"
    lm_dir.mkdir(exist_ok=True)
    for lid in grid.all_landmarks():
        crop = imagery.landmark_descriptor_image(world, reg, grid, lid)
        write_pnm(crop, lm_dir / f"lm_{lid.col}_{lid.row}.ppm")
    print(f"world: {out / world_name} ({world.width}x{world.height}, gsd {reg.gsd} m/px)")
    print(f"landmarks: {grid.n_landmarks} files in {lm_dir}")
    print(f"status=ok world={out / world_name} landmarks={grid.n_landmarks}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    grid = cfg.grid_spec()
    rewards = cfg.reward_spec()
    goal = cfg.goal()
    train_cfg = cfg.train_config()
    try:
        qtable, curve = policymod.train(grid, rewards, goal, train_cfg)
        oracle = policymod.value_iteration(grid, rewards, goal, gamma=train_cfg.discount)
    except OverflowError as exc:
        raise ConfigError(f"[rewards]: {exc}") from None
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    learned = policymod.greedy_policy(qtable, grid)
    agreement = policymod.oracle_agreement(learned, oracle, grid)
    if train_cfg.episodes == 0:
        print("warning: episodes=0, action-values are all zero and the greedy policy is arbitrary")

    policy_path = out / str(cfg["mission"]["policy_file"])
    policymod.save_policy(learned, policy_path)
    curve.write_csv(out / "curve.csv")
    episodes = np.array([p.episode for p in curve.points], dtype=float)
    svgplot.line_chart(
        [
            ("episode reward", "#888888", episodes, curve.rewards()),
            ("moving avg (20)", "#d03030", episodes, curve.moving_average(20)),
        ],
        out / "curve.svg",
        title="training curve",
        x_label="episode",
        y_label="cumulative reward",
    )
    print(f"trained {train_cfg.episodes} episodes; oracle agreement {agreement * 100.0:.1f}%")
    print(f"policy: {policy_path}")
    print(f"status=ok policy={policy_path} oracle_agreement={agreement:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    grid = cfg.grid_spec()
    rewards = cfg.reward_spec()
    out = cfg.output_dir
    max_episode_steps = cfg.train_config().max_episode_steps  # validated as train validates it
    if cfg["train"]["eval_episodes"] < 1 or cfg["train"]["eval_seed"] < 0:
        raise ConfigError("[train]: eval_episodes must be at least 1 and eval_seed non-negative")
    learned = _load_policy(args, cfg, grid)
    summary = policymod.evaluate(
        grid,
        rewards,
        learned,
        episodes=cfg["train"]["eval_episodes"],
        rng_seed=cfg["train"]["eval_seed"],
        max_episode_steps=max_episode_steps,
    )
    out.mkdir(parents=True, exist_ok=True)
    summary.write_csv(out / "eval.csv")
    if args.transitions:
        write_episode_logs(summary.episodes, args.transitions)
        print(f"transitions: {args.transitions}")
    enumerated = policymod.enumerated_mean_manhattan(grid, learned.goal)
    print(
        f"eval: mean_steps={summary.mean_steps:.4f} success_rate={summary.success_rate:.2f} "
        f"mean_reward={summary.mean_reward:.6f}"
    )
    print(
        f"enumerated optimal mean for goal ({learned.goal.col},{learned.goal.row}): "
        f"{enumerated:.4f} steps (benchmark mean: {policymod.UASNAV_REFERENCE_MEAN_STEPS} steps)"
    )
    print(
        f"status=ok mean_steps={summary.mean_steps:.4f} success_rate={summary.success_rate:.2f} "
        f"episodes={len(summary.episodes)}"
    )
    return 0


def cmd_match(args) -> int:
    # no provenance echo: stdout stays the report line plus the status line
    cfg = cfgmod.load_config(args.config, cfgmod.parse_overrides(args.set or []))
    params = cfg.match_params()
    gsd = cfg.world_spec().gsd
    obs_img = read_pnm(args.obs)
    train_img = read_pnm(args.landmark)
    obs_set = matching.build_descriptor_set(to_gray(obs_img), params)
    train_set = matching.build_descriptor_set(to_gray(train_img), params)
    result = matching.match_images(obs_set, train_set, params, gsd=gsd)
    if result.affine is not None:
        aff = " ".join(f"{v:.6f}" for v in result.affine.matrix.reshape(-1))
        cdist = f"{result.center_distance_m:.6f}"
    else:
        aff = "none"
        cdist = "nan"
    print(
        f"inliers={result.inliers} matches={result.n_matches} "
        f"center_distance_m={cdist} affine={aff}"
    )
    if args.svg:
        _write_match_svg(args.svg, obs_img, train_img, obs_set, train_set, result)
    print(f"status=ok inliers={result.inliers} matches={result.n_matches}")
    return 0


def _write_match_svg(
    path,
    obs_img: RasterImage,
    train_img: RasterImage,
    obs_set: matching.DescriptorSet,
    train_set: matching.DescriptorSet,
    result: matching.MatchResult,
) -> None:
    gap = 16
    w = obs_img.width + train_img.width + gap
    h = max(obs_img.height, train_img.height)
    body = [
        svgplot.image_panel(obs_img.pixels, 0, 0),
        svgplot.image_panel(train_img.pixels, obs_img.width + gap, 0),
    ]
    pairs = result.pairs
    mask = result.inlier_mask if result.inlier_mask is not None else np.zeros(len(pairs), dtype=bool)
    query_xy = obs_set.keypoints[pairs[:, 0], :2]
    train_xy = train_set.keypoints[pairs[:, 1], :2]
    for (qx, qy), (tx, ty), inlier in zip(query_xy, train_xy, mask):
        color = "#30d030" if inlier else "#d03030"
        x2 = tx + obs_img.width + gap
        body.append(
            f'<line x1="{qx:.1f}" y1="{qy:.1f}" '
            f'x2="{x2:.1f}" y2="{ty:.1f}" stroke="{color}" '
            f'stroke-width="0.6" opacity="0.7"/>'
        )
    with open(path, "w") as fh:
        fh.write(svgplot.svg_document(w, h, body))


def cmd_fly(args) -> int:
    cfg = _load_run_config(args)
    grid = cfg.grid_spec()
    out = cfg.output_dir
    cfg.perturbation()  # a bad perturbation exits 2 even before the policy is read
    learned = _load_policy(args, cfg, grid)
    goal = cfg.goal()
    if learned.goal != goal:
        raise ConfigError(
            f"policy goal ({learned.goal.col},{learned.goal.row}) does not match "
            f"configured goal ({goal.col},{goal.row})"
        )
    mission_cfg = cfg.mission_config(learned)
    raster_path = out / str(cfg["imagery"]["world_raster"])
    sidecar_path = out / str(cfg["imagery"]["world_sidecar"])
    if not (raster_path.exists() and sidecar_path.exists()):
        raise ConfigError(f"no world staged at {raster_path} / {sidecar_path}; run build-env first")
    world, reg = _read_world(raster_path, sidecar_path, grid)
    # the descriptor sets persist beside the landmark crops build-env wrote
    library = navigator.LandmarkLibrary(world, reg, grid, mission_cfg.match_params, store=out / "landmarks")
    log = navigator.run_mission(world, reg, grid, mission_cfg, library=library)
    navigator.export_trajectory(log, out / "mission.csv", out / "mission.svg", world, reg, grid)
    print(
        f"mission: outcome={log.outcome.value} arrivals={len(log.arrivals)} "
        f"attempts={sum(r.attempted for r in log.records)} "
        f"ticks={log.ticks} distance_m={log.distance_flown_m:.1f}"
        + (f" nearest_miss_m={log.nearest_miss_m:.2f}" if log.nearest_miss_m is not None else "")
        + f" described={library.described} loaded={library.loaded}"
    )
    print(f"wrote {out / 'mission.csv'} and {out / 'mission.svg'}")
    print(f"status=ok outcome={log.outcome.value} arrivals={len(log.arrivals)}")
    return 0


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI run config; omitted keys fall back to defaults")
    p.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uasnav",
        description="grid-policy learning and landmark-matching flight over a raster world",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-env", help="write the world raster and 100 landmark descriptor images")
    _add_config_args(p)
    p.set_defaults(func=cmd_build_env)

    p = sub.add_parser("train", help="learn the goal-reaching policy and export it")
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="roll out a saved policy and report step statistics")
    _add_config_args(p)
    p.add_argument("--policy", help="policy file (default: <output_dir>/<mission.policy_file>)")
    p.add_argument("--transitions", help="also write transition-level episode logs to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("match", help="match one observation image against one landmark image")
    p.add_argument("--obs", required=True, help="observation image (PPM/PGM)")
    p.add_argument("--landmark", required=True, help="landmark descriptor image (PPM/PGM)")
    _add_config_args(p)
    p.add_argument("--svg", help="write a side-by-side correspondence SVG here")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("fly", help="run the closed-loop mission and export the trajectory")
    _add_config_args(p)
    p.add_argument("--policy", help="policy file (default: <output_dir>/<mission.policy_file>)")
    p.set_defaults(func=cmd_fly)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f'status=error code=2 error="{exc}"')
        return 2
    except (UasNavError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f'status=error code=3 error="{exc}"')
        return 3


if __name__ == "__main__":
    sys.exit(main())
