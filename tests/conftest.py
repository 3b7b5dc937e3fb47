import os

# One BLAS thread, as perfbench/run.py pins: on a small host the extra
# thread burns CPU without saving wall time. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math
import time

import numpy as np
import pytest

from uasnav.grid import GridSpec, LandmarkId, RewardSpec
from uasnav.imagery import PerturbationSpec, WorldSpec, build_world
from uasnav.matching import MatchParams
from uasnav.navigator import LandmarkLibrary, MissionConfig, run_mission
from uasnav.policy import greedy_policy, value_iteration
from uasnav.raster import RasterImage


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def rewards():
    return RewardSpec()


@pytest.fixture(scope="session")
def goal():
    return LandmarkId(5, 5)


@pytest.fixture(scope="session")
def world_and_reg(grid):
    return build_world(grid, WorldSpec())


@pytest.fixture(scope="session")
def gray_world(world_and_reg):
    """A one-channel world: the green plane of the default one."""
    world, _ = world_and_reg
    return RasterImage(np.ascontiguousarray(world.pixels[:, :, 1]))


@pytest.fixture(scope="session")
def match_params():
    return MatchParams()


@pytest.fixture(scope="session")
def library(world_and_reg, grid, match_params):
    world, reg = world_and_reg
    return LandmarkLibrary(world, reg, grid, match_params)


@pytest.fixture(scope="session")
def oracle_q(grid, rewards, goal):
    return value_iteration(grid, rewards, goal)


@pytest.fixture(scope="session")
def optimal_policy(oracle_q, grid):
    return greedy_policy(oracle_q, grid)


@pytest.fixture(scope="session")
def criterion_6_flights(world_and_reg, grid, rewards, match_params, library):
    """The 20 missions of acceptance criterion 6, flown once for it and for
    the flight-schedule properties: ``(start, goal, log, seconds)`` in draw
    order, ``seconds`` being the wall time of that mission."""
    world, reg = world_and_reg
    rng = np.random.default_rng(814)
    policies = {}
    flights = []
    for _ in range(20):
        start = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        goal = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        while goal == start:
            goal = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        if goal not in policies:
            policies[goal] = greedy_policy(value_iteration(grid, rewards, goal), grid)
        perturb = PerturbationSpec(
            gain=float(rng.uniform(0.7, 1.4)),
            bias=float(rng.uniform(-20.0, 20.0)),
            noise_sigma=float(rng.uniform(0.0, 5.0)),
            rotation_jitter=float(math.radians(rng.uniform(0.0, 5.0))),
            translation_jitter=2.0,
            rng_seed=int(rng.integers(1 << 31)),
        )
        cfg = MissionConfig(
            start=start, goal=goal, policy=policies[goal],
            perturbation=perturb, match_params=match_params,
        )
        t0 = time.time()
        log = run_mission(world, reg, grid, cfg, library=library)
        flights.append((start, goal, log, time.time() - t0))
    return flights
