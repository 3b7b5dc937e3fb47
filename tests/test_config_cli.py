import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uasnav import imagery, policy as policymod
from uasnav.cli import main
from uasnav.config import _SCHEMA, load_config, parse_overrides, write_reference_config
from uasnav.errors import ConfigError
from uasnav.grid import Action, GridSpec, LandmarkId, RewardSpec
from uasnav.imagery import PerturbationSpec, WorldSpec, landmark_descriptor_image
from uasnav.matching import MatchParams
from uasnav.policy import PolicyTable, TrainConfig, greedy_policy, save_policy, value_iteration
from uasnav.raster import RasterImage, read_pnm, write_pnm


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

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n[grid]\ncols = 6\n"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser's own [DEFAULT] feeds no section alone, and every section beside it
        p = tmp_path / "run.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(p)

    def test_unparsable_file_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("cols = 10\n")  # a key before any section header
        with pytest.raises(ConfigError, match="run.ini") as exc:
            load_config(p)
        assert "line: 1" in str(exc.value)

    def test_override_in_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"override: unknown section \[flight\]"):
            load_config(None, parse_overrides(["flight.speed=3"]))

    def test_reference_config_round_trips(self, tmp_path):
        p = tmp_path / "reference.ini"
        write_reference_config(p)
        cfg = load_config(p)
        assert cfg.provenance == []
        assert cfg["mission"]["policy_file"] == "policy.txt"
        assert cfg.values == load_config(None).values

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        episodes=st.integers(0, 100_000),
        seed=st.integers(0, 2**31 - 1),
        ratio=st.floats(0.01, 1.0),
        gain=st.floats(0.1, 10.0),
        policy_file=st.text("abcxyz0189._-/", min_size=1, max_size=20),
    )
    def test_file_values_round_trip_property(self, tmp_path_factory, episodes, seed, ratio, gain, policy_file):
        drawn = {
            "train": {"episodes": episodes},
            "matching": {"ratio": ratio},
            "mission": {"seed": seed, "gain": gain, "policy_file": policy_file},
        }
        p = tmp_path_factory.mktemp("ini") / "run.ini"
        p.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in drawn.items()
        ))
        cfg = load_config(p)
        for section, keys in drawn.items():
            for key, value in keys.items():
                assert cfg[section][key] == value
                assert type(cfg[section][key]) is type(value)
                assert not any(line.startswith(f"{section}.{key} = ") for line in cfg.provenance)

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

    def test_eval_mean_reward_near_the_float_limit_is_finite(self, tmp_path, capsys):
        argv = ["--set", f"run.output_dir={tmp_path}", "--set", "rewards.goal_reward=1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", *argv, "--set", "train.episodes=600"]) == 0
            assert main(["eval", *argv]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("eval:"))
        assert math.isfinite(float(line.split("mean_reward=")[1]))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

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

    def test_policy_on_another_grid_exits_2(self, tmp_path, capsys):
        small = GridSpec(cols=3, rows=2)
        policy = greedy_policy(value_iteration(small, RewardSpec(), LandmarkId(2, 1)), small)
        save_policy(policy, tmp_path / "policy.txt")
        code = main(["eval", "--set", f"run.output_dir={tmp_path}", "--policy", str(tmp_path / "policy.txt")])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "policy grid 3x2 does not match configured 10x10" in last

    def test_eval_missing_policy_is_runtime_error(self, tmp_path, capsys):
        code = main(["eval", "--set", f"run.output_dir={tmp_path}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip().splitlines()[-1].startswith("status=error code=3")

    @pytest.mark.parametrize("episodes, sha256", [
        (300, "c2f59a09893f5af1ff3d7e61733dd46889221cd73f28497732356acc2e9bb0a4"),
        (0, "581b80affdb1c9ec5c15c34520b696c6d9230050f5bd6352a84aeb09b88c67b1"),
    ])
    def test_training_chart_bytes_are_pinned(self, tmp_path, capsys, episodes, sha256):
        # the whole chart: layout, tick labels, polylines and legend; zero
        # episodes draws the empty-curve fallback axes
        assert main(["train", "--set", f"run.output_dir={tmp_path}", "--set", f"train.episodes={episodes}"]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "curve.svg").read_bytes()).hexdigest() == sha256

    def test_refused_allocation_exits_3(self, tmp_path, capsys, monkeypatch):
        # stands in for a lattice too large to tabulate; the real allocation
        # is never attempted, since an overcommitting host may grant it
        def refuse(*args):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(policymod, "_transition_tables", refuse)
        code = main(["train", "--set", f"run.output_dir={tmp_path}"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "Unable to allocate" in last

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

    @pytest.mark.parametrize("command", ["eval", "fly"])
    def test_non_utf8_policy_exits_3(self, tmp_path, capsys, command):
        # a binary file given as the policy, such as the world raster
        (tmp_path / "world.ppm").write_bytes(b"P6\n640 480\n255\n\xff\xd8\x00\x81")
        code = main([command, "--set", f"run.output_dir={tmp_path}", "--policy", str(tmp_path / "world.ppm")])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "not UTF-8" in last

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.ini").write_bytes(b"# caf\xe9 latin-1\n[train]\nepisodes = 5\n")
        code = main(["train", "--config", str(tmp_path / "bad.ini"), "--set", f"run.output_dir={tmp_path}"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "bad.ini" in last
        assert not (tmp_path / "policy.txt").exists()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        code = main(["train", "--set", f"run.output_dir={tmp_path}", "--set", "train.alpha=0.5"])
        captured = capsys.readouterr()
        assert code == 2
        last = captured.out.strip().splitlines()[-1]
        assert last.startswith("status=error code=2")
        assert "alpha" in last

    @pytest.mark.parametrize("overrides", [
        # a step penalty above zero: Q-learning once overflowed to a traceback
        ["rewards.step_penalty=1e308"],
        ["rewards.step_penalty=0.01"],
        # valid constants whose action-values overflow, in training and in
        # the value-iteration oracle
        ["rewards.collision_penalty=-1.7e308", "rewards.step_penalty=-1.6e308"],
        ["rewards.collision_penalty=-1.7e308", "rewards.step_penalty=-1.6e308", "train.episodes=0"],
    ])
    def test_reward_constants_outside_the_envelope_exit_2(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        args = ["train", "--set", f"run.output_dir={out}"]
        for override in overrides:
            args += ["--set", override]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "[rewards]" in last
        # training stops at the first overflowing update, before any output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


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

    def test_flat_observation_reports_no_model(self, image_pair, tmp_path, capsys):
        # a flat image has no corners, so nothing matches and no affine is fitted
        _, landmark = image_pair
        flat = tmp_path / "flat.pgm"
        write_pnm(RasterImage(np.full((480, 640), 128, dtype=np.uint8)), flat)
        code = main(["match", "--obs", str(flat), "--landmark", str(landmark)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "inliers=0 matches=0 center_distance_m=nan affine=none"
        assert lines[-1] == "status=ok inliers=0 matches=0"

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

    def test_fly_reports_attempts(self, trained, capsys):
        # the mission line counts the renders; the status line keeps its form
        code = main([
            "fly",
            "--set", f"run.output_dir={trained}",
            "--set", "mission.start_col=4",
            "--set", "mission.start_row=5",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        with open(trained / "mission.csv", newline="") as fh:
            attempts = sum(row["attempted"] == "1" for row in csv.DictReader(fh))
        mission = [line for line in lines if line.startswith("mission:")]
        assert len(mission) == 1
        assert f"arrivals=1 attempts={attempts} ticks=" in mission[0]
        assert 0 < attempts
        assert lines[-1] == "status=ok outcome=reached_goal arrivals=1"

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

    def _fly_with_oracle_policy(self, built, tmp_path, policy, *overrides):
        save_policy(policy, tmp_path / "policy.txt")
        return main([
            "fly",
            "--set", f"run.output_dir={built}",
            "--policy", str(tmp_path / "policy.txt"),
            *(arg for override in overrides for arg in ("--set", override)),
        ])

    @pytest.mark.parametrize("override", [
        "mission.control_step_m=0",
        "mission.observation_period=2",
        "mission.max_ticks=10",
    ])
    def test_fly_rejects_kinematics(self, built, tmp_path, optimal_policy, capsys, override):
        # the flight's kinematics are constants and it has no tick cap: no such keys
        code = self._fly_with_oracle_policy(built, tmp_path, optimal_policy, override)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert f"unknown key {override.split('=')[0].split('.')[1]!r} in [mission]" in last

    def test_fly_cyclic_policy_exits_3(self, built, tmp_path, optimal_policy, capsys):
        # (2,5) -> (3,5) -> (4,5) -> back to (3,5): refused before takeoff
        best_action = dict(optimal_policy.best_action)
        best_action[LandmarkId(4, 5)] = Action.LEFT
        cyclic = PolicyTable(best_action, optimal_policy.goal, optimal_policy.cols, optimal_policy.rows)
        code = self._fly_with_oracle_policy(
            built, tmp_path, cyclic, "mission.start_col=2", "mission.start_row=5"
        )
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "revisits (3,5)" in last

    def test_fly_unreadable_config_exits_2(self, tmp_path, capsys):
        # a directory: configparser.read skips what it cannot open
        code = main(["fly", "--config", str(tmp_path), "--set", f"run.output_dir={tmp_path}"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert str(tmp_path) in last

    @pytest.mark.parametrize("override", [
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

    @pytest.mark.parametrize("override", [
        "mission.gain=1e308",
        "mission.gain=255.5",
        "mission.bias=-1e308",
        "mission.bias=256",
        "mission.noise_sigma=1e308",
    ])
    def test_fly_rejects_intensity_past_the_limit(self, built, tmp_path, optimal_policy, capsys, override):
        # a view past the limit is flat or all noise, and its float32 render
        # would overflow; the config refuses it before the first render
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

    def test_fly_without_staged_world_exits_2(self, tmp_path, optimal_policy, capsys):
        # fly reads only the world build-env staged; it synthesizes none of its own
        save_policy(optimal_policy, tmp_path / "policy.txt")
        code = main(["fly", "--set", f"run.output_dir={tmp_path}", "--policy", str(tmp_path / "policy.txt")])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "build-env" in last
        assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.txt"]

    def test_build_env_rejects_unknown_imagery_mode(self, tmp_path, capsys):
        # ingest follows from the two ingest paths; a mode key is unknown
        out = tmp_path / "env"
        code = main(["build-env", "--set", f"run.output_dir={out}", "--set", "imagery.mode=ingest"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "'mode'" in last
        assert not out.exists()

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

    def test_fly_non_utf8_sidecar_exits_3(self, built, tmp_path, optimal_policy, capsys):
        (tmp_path / "world.ppm").symlink_to(built / "world.ppm")
        (tmp_path / "world.json").write_bytes(b"\xff\xfe{")
        save_policy(optimal_policy, tmp_path / "policy.txt")
        code = main(["fly", "--set", f"run.output_dir={tmp_path}", "--policy", str(tmp_path / "policy.txt")])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 3
        assert last.startswith("status=error code=3")
        assert "world.json" in last

    def test_ingest_round_trip_is_byte_identical(self, built, tmp_path, capsys):
        out = tmp_path / "reexport"
        code = main([
            "build-env",
            "--set", f"run.output_dir={out}",
            "--set", f"imagery.ingest_raster={built / 'world.ppm'}",
            "--set", f"imagery.ingest_sidecar={built / 'world.json'}",
            "--set", "imagery.seed=7",  # a synthesized world would differ
        ])
        capsys.readouterr()
        assert code == 0
        assert (out / "world.ppm").read_bytes() == (built / "world.ppm").read_bytes()
        assert (out / "world.json").read_bytes() == (built / "world.json").read_bytes()

    def test_build_env_accepts_half_window_margins(self, tmp_path, capsys):
        # exactly the half window: every landmark's frame still renders
        code = main([
            "build-env",
            "--set", f"run.output_dir={tmp_path}",
            "--set", "imagery.margin_x_m=80",
            "--set", "imagery.margin_y_m=60",
        ])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 0
        assert last.startswith("status=ok")
        assert read_pnm(tmp_path / "world.ppm").width == 2080

    @pytest.mark.parametrize("gsd", ["1e-9", "0.005"])
    def test_build_env_rejects_oversized_world(self, tmp_path, capsys, gsd):
        # both worlds exceed the pixel bound by far; neither is allocated
        code = main(["build-env", "--set", f"run.output_dir={tmp_path}", "--set", f"imagery.gsd_m_per_px={gsd}"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "px bound" in last
        assert not (tmp_path / "world.ppm").exists()

    @pytest.mark.parametrize("key", ["ingest_raster", "ingest_sidecar"])
    def test_ingest_with_one_path_is_config_error(self, built, tmp_path, capsys, key):
        out = tmp_path / "env"
        source = {"ingest_raster": "world.ppm", "ingest_sidecar": "world.json"}[key]
        code = main([
            "build-env",
            "--set", f"run.output_dir={out}",
            "--set", f"imagery.{key}={built / source}",
        ])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert last.startswith("status=error code=2")
        assert "ingest_raster" in last and "ingest_sidecar" in last
        assert not out.exists()


class TestCliLandmarkStore:
    """``fly`` keeps each landmark's descriptor set in ``<output_dir>/landmarks``
    and reads it back on later runs without a change to its results."""

    def _fly(self, out, policy_path, capsys, start=(4, 4)):
        code = main([
            "fly",
            "--set", f"run.output_dir={out}",
            "--policy", str(policy_path),
            "--set", f"mission.start_col={start[0]}",
            "--set", f"mission.start_row={start[1]}",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[-1].startswith("status=ok outcome=reached_goal")
        mission = next(line for line in lines if line.startswith("mission:"))
        counts = dict(field.split("=") for field in mission.split()[-2:])
        return int(counts["described"]), int(counts["loaded"])

    def _build(self, out, capsys, *overrides):
        args = ["build-env", "--set", f"run.output_dir={out}"]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 0
        capsys.readouterr()

    def test_warm_fly_repeats_the_cold_one_byte_for_byte(self, tmp_path, optimal_policy, capsys):
        out = tmp_path / "env"
        self._build(out, capsys)
        save_policy(optimal_policy, tmp_path / "policy.txt")
        described, loaded = self._fly(out, tmp_path / "policy.txt", capsys)
        assert described > 0 and loaded == 0
        cold = [(out / name).read_bytes() for name in ("mission.csv", "mission.svg")]
        assert self._fly(out, tmp_path / "policy.txt", capsys) == (0, described)
        assert [(out / name).read_bytes() for name in ("mission.csv", "mission.svg")] == cold
        stored = sorted(p.name for p in (out / "landmarks").iterdir() if p.suffix != ".ppm")
        assert len(stored) == described
        assert all(name.endswith(".npz") for name in stored)  # no temp file is left behind

    def test_rebuilt_world_flies_as_a_fresh_one(self, tmp_path, optimal_policy, capsys):
        save_policy(optimal_policy, tmp_path / "policy.txt")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        self._build(reused, capsys)
        described, _ = self._fly(reused, tmp_path / "policy.txt", capsys, start=(5, 4))
        first = (reused / "mission.csv").read_bytes()
        # another world in the same directory: every stored set is stale
        self._build(reused, capsys, "imagery.seed=7")
        assert self._fly(reused, tmp_path / "policy.txt", capsys, start=(5, 4)) == (described, 0)
        self._build(fresh, capsys, "imagery.seed=7")
        self._fly(fresh, tmp_path / "policy.txt", capsys, start=(5, 4))
        assert (reused / "mission.csv").read_bytes() == (fresh / "mission.csv").read_bytes()
        assert (reused / "mission.csv").read_bytes() != first


class TestCliContract:
    """Every run of ``main`` ends in exit 0, 2 or 3 with a final ``status=``
    line, whatever one or two config overrides it is given."""

    KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
    EDGES = ["0", "1", "-1", "nan", "inf", "-inf", "1e308", "1e-310", "", "x"]
    # a one-leg mission on a 2x2 grid; a drawn override wins over these
    TINY = [
        "run.output_dir=out", "grid.cols=2", "grid.rows=2", "grid.goal_col=1", "grid.goal_row=1",
        "mission.start_col=1", "mission.start_row=0",
    ]

    @pytest.fixture(scope="class")
    def worlds(self):
        """``imagery.build_world`` with its worlds kept for the whole class:
        the tiny world is synthesized once, and again only for drawn
        ``[grid]`` or ``[imagery]`` values."""
        built, synthesize = {}, imagery.build_world

        def build_world(grid, spec=WorldSpec()):
            if (grid, spec) not in built:
                built[grid, spec] = synthesize(grid, spec)
            return built[grid, spec]

        return build_world

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(overrides=st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(EDGES)), min_size=1, max_size=2))
    def test_any_override_ends_in_a_status_line(self, worlds, overrides):
        sets = self.TINY + [f"{key}={value}" for key, value in overrides]
        with tempfile.TemporaryDirectory() as cwd, pytest.MonkeyPatch.context() as mp:
            mp.chdir(cwd)  # a drawn run.output_dir is relative to it
            mp.setattr(imagery, "build_world", worlds)
            for command in ("build-env", "train", "eval", "fly"):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, *(arg for s in sets for arg in ("--set", s))])
                last = stdout.getvalue().strip().splitlines()[-1]
                assert code in (0, 2, 3), (command, sets)
                assert last.startswith("status=ok" if code == 0 else f"status=error code={code}"), (command, sets)
