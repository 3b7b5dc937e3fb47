import os

# One BLAS thread, as perfbench/run.py pins: on a small host the extra
# thread burns CPU without saving wall time. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from uasnav.grid import GridSpec, LandmarkId, RewardSpec
from uasnav.imagery import WorldSpec, build_world
from uasnav.matching import MatchParams
from uasnav.navigator import LandmarkLibrary
from uasnav.policy import greedy_policy, value_iteration


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
