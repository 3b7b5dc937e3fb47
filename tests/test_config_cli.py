import csv
import json
from dataclasses import fields

import pytest

from uasnav.cli import main
from uasnav.config import load_config, parse_overrides, write_reference_config
from uasnav.errors import ConfigError
from uasnav.grid import Action, GridSpec, LandmarkId, RewardSpec
from uasnav.imagery import PerturbationSpec, WorldSpec, landmark_descriptor_image
from uasnav.matching import MatchParams
from uasnav.navigator import MissionConfig
from uasnav.policy import PolicyTable, TrainConfig, save_policy
from uasnav.raster import read_pnm, write_pnm


class TestConfig:
    def test_defaults_complete_with_provenance(self):
        cfg = load_config(None)
        assert cfg["grid"]["cols"] == 10
        assert cfg["matching"]["arrival_distance_m"] == 5.0
        assert "grid.cols = 10 (default)" in cfg.provenance
        # every key defaulted when no file is given
        total_keys = sum(len(v) for v in cfg.values.values())
        assert len(cfg.provenance) == total_keys

    def test_defaults_match_dataclasses(self):
        cfg = load_config(None)
        assert cfg.grid_spec() == GridSpec()
        assert cfg.reward_spec() == RewardSpec()
        assert cfg.train_config() == TrainConfig()
        assert cfg.world_spec() == WorldSpec()
        assert cfg.match_params() == MatchParams()
        assert cfg.perturbation() == PerturbationSpec(rng_seed=11)
        kinematics = {f.name: f.default for f in fields(MissionConfig)}
        for key in ("control_step_m", "observation_period", "max_ticks"):
            assert cfg["mission"][key] == kinematics[key]

    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\ncols = 6\nrows = 4\ngoal_col = 2\ngoal_row = 2\n")
        cfg = load_config(p)
        assert cfg.grid_spec().cols == 6
        assert all(not line.startswith("grid.cols") for line in cfg.provenance)
        assert any(line.startswith("grid.spacing_x_m") for line in cfg.provenance)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[flight]\nspeed = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\ncolumns = 10\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\ncols = ten\n")
        with pytest.raises(ConfigError, match="expected int"):
            load_config(p)

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[train]\nepisodes = 500\n")
        cfg = load_config(p, parse_overrides(["train.episodes=7"]))
        assert cfg["train"]["episodes"] == 7

    def test_override_parsing_errors(self):
        with pytest.raises(ConfigError):
            parse_overrides(["episodes=7"])
        with pytest.raises(ConfigError):
            parse_overrides(["train.episodes"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_reference_config_round_trips(self, tmp_path):
        p = tmp_path / "reference.ini"
        write_reference_config(p)
        cfg = load_config(p)
        assert cfg.provenance == []
        assert cfg["mission"]["policy_file"] == "policy.txt"
        assert cfg.values == load_config(None).values

    def test_goal_inside_grid(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\ngoal_col = 99\n")
        with pytest.raises(ConfigError, match="goal_col"):
            load_config(p).goal()


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train",
        "--set", f"run.output_dir={out}",
        "--set", "train.episodes=600",
    ])
    assert code == 0
    return out


class TestCliTrainEval:
    def test_train_writes_policy_curve_and_chart(self, outdir):
        assert (outdir / "policy.txt").exists()
        assert (outdir / "curve.csv").read_text().startswith("episode,reward,steps,epsilon")
        assert (outdir / "curve.svg").read_text().startswith("<svg")

    def test_train_status_line(self, outdir, capsys):
        code = main([
            "train",
            "--set", f"run.output_dir={outdir}",
            "--set", "train.episodes=600",
        ])
        captured = capsys.readouterr()
        assert code == 0
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=ok")
        assert "oracle_agreement=1.0000" in last

    def test_eval_reports_exact_drawn_mean(self, outdir, capsys):
        code = main(["eval", "--set", f"run.output_dir={outdir}"])
        captured = capsys.readouterr()
        assert code == 0
        assert (outdir / "eval.csv").exists()
        out = captured.out
        assert "success_rate=1.00" in out
        assert "benchmark mean: 6.53" in out
        assert "enumerated optimal mean for goal (5,5): 5.0505" in out

    def test_eval_transitions_export(self, outdir, tmp_path, capsys):
        path = tmp_path / "transitions.csv"
        code = main([
            "eval",
            "--set", f"run.output_dir={outdir}",
            "--transitions", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,step,state_col,state_row,action,reward,next_col,next_row,terminal"
        assert len(lines) > 100  # 100 episodes, at least one transition each

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_eval_rows_match_transitions(self, outdir, tmp_path, capsys, cyclic):
        argv = ["eval", "--set", f"run.output_dir={tmp_path}", "--transitions", str(tmp_path / "t.csv")]
        if cyclic:
            # every cell moves east, the east column north: starts east of
            # the goal column never reach it and truncate at 30 steps
            best = {
                LandmarkId(c, r): Action.FORWARD if c == 9 else Action.RIGHT
                for r in range(10) for c in range(10) if (c, r) != (5, 5)
            }
            save_policy(PolicyTable(best, LandmarkId(5, 5), 10, 10), tmp_path / "cyclic.txt")
            argv += ["--policy", str(tmp_path / "cyclic.txt"), "--set", "grid.max_episode_steps=30"]
        else:
            argv += ["--policy", str(outdir / "policy.txt")]
        assert main(argv) == 0
        capsys.readouterr()
        with open(tmp_path / "eval.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "t.csv", newline="") as fh:
            transitions = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert {t["episode"] for t in transitions} == {r["episode"] for r in rows}
        for row in rows:
            steps = [t for t in transitions if t["episode"] == row["episode"]]
            assert len(steps) == int(row["steps"])
            assert (steps[0]["state_col"], steps[0]["state_row"]) == (row["start_col"], row["start_row"])
            assert sum(float(t["reward"]) for t in steps) == pytest.approx(float(row["reward"]), abs=1e-6)
            assert steps[-1]["terminal"] == row["reached_goal"]
        assert any(r["reached_goal"] == "0" for r in rows) == cyclic

    def test_eval_missing_policy_is_runtime_error(self, tmp_path, capsys):
        code = main(["eval", "--set", f"run.output_dir={tmp_path}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip().splitlines()[-1].startswith("status=error code=3")

    def test_zero_episode_training_warns(self, tmp_path, capsys):
        code = main([
            "train",
            "--set", f"run.output_dir={tmp_path}",
            "--set", "train.episodes=0",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "episodes=0" in captured.out
        assert (tmp_path / "curve.csv").read_text().strip() == "episode,reward,steps,epsilon"

    def test_zero_eval_episodes_exits_2(self, outdir, capsys):
        code = main(["eval", "--set", f"run.output_dir={outdir}", "--set", "train.eval_episodes=0"])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "eval_episodes" in last
        assert "nan" not in captured.out

    def test_eval_rejects_zero_max_episode_steps(self, tmp_path, capsys):
        # the rule train applies, checked before the policy is read
        code = main(["eval", "--set", f"run.output_dir={tmp_path}", "--set", "grid.max_episode_steps=0"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "max_episode_steps" in last

    @pytest.mark.parametrize("command, override", [
        ("train", "train.seed=-1"),
        ("eval", "train.eval_seed=-1"),
        ("build-env", "imagery.seed=-1"),
        ("fly", "mission.seed=-1"),
        ("fly", "matching.seed=-5"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, optimal_policy, capsys, command, override):
        save_policy(optimal_policy, tmp_path / "policy.txt")
        code = main([command, "--set", f"run.output_dir={tmp_path}", "--set", override])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "seed" in last

    @pytest.mark.parametrize("col", ["99", "-1"])
    def test_off_grid_goal_exits_2(self, tmp_path, capsys, col):
        code = main(["train", "--set", f"run.output_dir={tmp_path}", "--set", f"grid.goal_col={col}"])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "goal_col" in last

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        code = main(["train", "--set", f"run.output_dir={tmp_path}", "--set", "train.alpha=0.5"])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "alpha" in last


@pytest.fixture(scope="module")
def image_pair(tmp_path_factory, world_and_reg, grid):
    world, reg = world_and_reg
    d = tmp_path_factory.mktemp("pair")
    a = landmark_descriptor_image(world, reg, grid, LandmarkId(4, 4))
    b = landmark_descriptor_image(world, reg, grid, LandmarkId(5, 4))
    write_pnm(a, d / "obs.ppm")
    write_pnm(b, d / "landmark.ppm")
    return d / "obs.ppm", d / "landmark.ppm"


class TestCliMatch:
    def test_self_match_report(self, image_pair, capsys):
        obs, _ = image_pair
        code = main(["match", "--obs", str(obs), "--landmark", str(obs)])
        captured = capsys.readouterr()
        assert code == 0
        report = captured.out.strip().splitlines()[0]
        assert report.startswith("inliers=")
        fields = dict(kv.split("=", 1) for kv in report.split(" ", 3)[:3])
        assert int(fields["inliers"]) >= 100
        assert float(fields["center_distance_m"]) <= 0.25

    def test_neighbor_pair_translation(self, image_pair, capsys):
        obs, landmark = image_pair
        code = main(["match", "--obs", str(obs), "--landmark", str(landmark)])
        captured = capsys.readouterr()
        assert code == 0
        report = captured.out.strip().splitlines()[0]
        cd = float(report.split("center_distance_m=")[1].split(" ")[0])
        assert cd == pytest.approx(40.0, abs=1.0)  # one column spacing away

    def test_gsd_comes_from_config(self, image_pair, capsys):
        obs, landmark = image_pair
        code = main([
            "match", "--obs", str(obs), "--landmark", str(landmark),
            "--set", "imagery.gsd_m_per_px=0.5",
        ])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2  # report and status, no provenance echo
        cd = float(lines[0].split("center_distance_m=")[1].split(" ")[0])
        assert cd == pytest.approx(80.0, abs=2.0)  # same pixels, twice the meters

    def test_bad_matching_value_exits_2(self, image_pair, capsys):
        obs, landmark = image_pair
        code = main([
            "match", "--obs", str(obs), "--landmark", str(landmark),
            "--set", "matching.ratio=2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "[matching]" in last

    def test_svg_visualization(self, image_pair, tmp_path, capsys):
        obs, landmark = image_pair
        svg = tmp_path / "match.svg"
        code = main(["match", "--obs", str(obs), "--landmark", str(landmark), "--svg", str(svg)])
        capsys.readouterr()
        assert code == 0
        text = svg.read_text()
        assert text.count("data:image/png;base64,") == 2
        assert "<line" in text

    def test_missing_file_exits_3(self, capsys):
        code = main(["match", "--obs", "/nonexistent.ppm", "--landmark", "/nonexistent.ppm"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip().splitlines()[-1].startswith("status=error code=3")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("env")
    code = main(["build-env", "--set", f"run.output_dir={out}"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(built):
    """The ``built`` directory with a policy trained into it."""
    code = main([
        "train",
        "--set", f"run.output_dir={built}",
        "--set", "train.episodes=600",
    ])
    assert code == 0
    return built


class TestCliBuildEnvAndFly:
    def test_build_env_outputs(self, built):
        assert (built / "world.ppm").exists()
        assert (built / "world.json").exists()
        landmarks = sorted((built / "landmarks").glob("lm_*_*.ppm"))
        assert len(landmarks) == 100
        img = read_pnm(built / "landmarks" / "lm_0_0.ppm")
        assert (img.width, img.height) == (640, 480)

    def test_fly_short_mission(self, trained, capsys):
        code = main([
            "fly",
            "--set", f"run.output_dir={trained}",
            "--set", "mission.start_col=5",
            "--set", "mission.start_row=4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        last = captured.out.strip().splitlines()[-1]
        assert "outcome=reached_goal" in last
        assert "arrivals=1" in last
        assert (trained / "mission.csv").exists()
        assert (trained / "mission.svg").exists()

    def test_fly_rejects_mismatched_goal(self, trained, capsys):
        code = main([
            "fly",
            "--set", f"run.output_dir={trained}",
            "--set", "grid.goal_col=3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "goal" in captured.out

    def test_fly_rejects_negative_rotation_jitter(self, tmp_path, capsys):
        code = main([
            "fly",
            "--set", f"run.output_dir={tmp_path}",
            "--set", "mission.rotation_jitter_rad=-0.05",
        ])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "rotation_jitter_rad" in last

    def _fly_with_oracle_policy(self, built, tmp_path, policy, override):
        save_policy(policy, tmp_path / "policy.txt")
        return main([
            "fly",
            "--set", f"run.output_dir={built}",
            "--policy", str(tmp_path / "policy.txt"),
            "--set", override,
        ])

    def test_fly_rejects_zero_control_step(self, built, tmp_path, optimal_policy, capsys):
        code = self._fly_with_oracle_policy(built, tmp_path, optimal_policy, "mission.control_step_m=0")
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "control step" in last

    @pytest.mark.parametrize("override", [
        "mission.control_step_m=nan",
        "mission.translation_jitter_m=inf",
        "mission.gain=nan",
        "mission.noise_sigma=nan",
        "matching.arrival_distance_m=nan",
        "matching.inlier_tol_px=nan",
    ])
    def test_fly_rejects_non_finite_float(self, built, tmp_path, optimal_policy, capsys, override):
        code = self._fly_with_oracle_policy(built, tmp_path, optimal_policy, override)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert override.split("=")[0].split(".")[1] in last

    @pytest.mark.parametrize("col", ["10", "-1"])
    def test_fly_off_grid_start_exits_2(self, built, tmp_path, optimal_policy, capsys, col):
        code = self._fly_with_oracle_policy(built, tmp_path, optimal_policy, f"mission.start_col={col}")
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "start_col" in last

    def test_fly_too_few_ticks_is_runtime_error(self, built, tmp_path, optimal_policy, capsys):
        code = self._fly_with_oracle_policy(built, tmp_path, optimal_policy, "mission.max_ticks=10")
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "max_ticks" in last

    @pytest.mark.parametrize("gsd", ["nan", "inf"])
    def test_fly_non_finite_sidecar_exits_3(self, built, tmp_path, optimal_policy, capsys, gsd):
        (tmp_path / "world.ppm").symlink_to(built / "world.ppm")
        sidecar = json.loads((built / "world.json").read_text())
        sidecar["gsd_m_per_px"] = float(gsd)
        (tmp_path / "world.json").write_text(json.dumps(sidecar))
        save_policy(optimal_policy, tmp_path / "policy.txt")
        code = main(["fly", "--set", f"run.output_dir={tmp_path}", "--policy", str(tmp_path / "policy.txt")])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "gsd" in last

    def test_ingest_round_trip_is_byte_identical(self, built, tmp_path, capsys):
        out = tmp_path / "reexport"
        code = main([
            "build-env",
            "--set", f"run.output_dir={out}",
            "--set", "imagery.mode=ingest",
            "--set", f"imagery.ingest_raster={built / 'world.ppm'}",
            "--set", f"imagery.ingest_sidecar={built / 'world.json'}",
        ])
        capsys.readouterr()
        assert code == 0
        assert (out / "world.ppm").read_bytes() == (built / "world.ppm").read_bytes()
        assert (out / "world.json").read_bytes() == (built / "world.json").read_bytes()

    @pytest.mark.parametrize("gsd", ["1e-9", "0.005"])
    def test_build_env_rejects_oversized_world(self, tmp_path, capsys, gsd):
        # both worlds exceed the pixel bound by far; neither is allocated
        code = main(["build-env", "--set", f"run.output_dir={tmp_path}", "--set", f"imagery.gsd_m_per_px={gsd}"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "px bound" in last
        assert not (tmp_path / "world.ppm").exists()

    def test_ingest_without_sources_is_config_error(self, tmp_path, capsys):
        code = main([
            "build-env",
            "--set", f"run.output_dir={tmp_path}",
            "--set", "imagery.mode=ingest",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "ingest_raster" in captured.out
