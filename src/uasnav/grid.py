"""Landmark-lattice MDP: grid geometry, actions, rewards, and transitions.

The world is a regular lattice of geo-referenced landmarks. States are
landmarks, actions are one-cell cardinal moves, and transitions are
deterministic. Moving off the lattice boundary is a collision: the agent
stays in place and receives the collision penalty only (rewards are
mutually exclusive so every transition carries exactly one of the three
reward constants).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import BoundsError, InvalidStateError


class Action(IntEnum):
    """Cardinal grid moves. The platform is north-oriented, so FORWARD is
    fixed to +row (north) rather than being heading-relative. Enum order
    is the canonical argmax tie-break order."""

    FORWARD = 0   # +row (north)
    BACKWARD = 1  # -row (south)
    LEFT = 2      # -col (west)
    RIGHT = 3     # +col (east)

    @property
    def displacement(self) -> tuple[int, int]:
        """(dcol, drow) for this move; magnitude is exactly one cell."""
        return _DISPLACEMENTS[self]

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "Action":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown action token {token!r}") from None


_DISPLACEMENTS = {
    Action.FORWARD: (0, 1),
    Action.BACKWARD: (0, -1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
}


@dataclass(frozen=True, order=True)
class LandmarkId:
    """Lattice coordinates of one landmark (col east, row north)."""

    col: int
    row: int

    def __post_init__(self):
        if self.col < 0 or self.row < 0:
            raise BoundsError(f"landmark indices must be non-negative, got {self}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the landmark lattice.

    The default 10x10 lattice with 40 m / 30 m spacing spans 360 m x 270 m.
    ``origin`` is the world position (meters, x east, y north) of landmark
    (0, 0); landmark (c, r) sits at origin + (c*spacing_x, r*spacing_y).
    """

    cols: int = 10
    rows: int = 10
    spacing_x: float = 40.0
    spacing_y: float = 30.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.cols < 2 or self.rows < 2:
            raise ValueError(f"grid needs at least 2x2 landmarks, got {self.cols}x{self.rows}")
        if not all(math.isfinite(s) and s > 0 for s in (self.spacing_x, self.spacing_y)):
            raise ValueError("landmark spacing must be finite and positive")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")

    @property
    def n_landmarks(self) -> int:
        return self.cols * self.rows

    @property
    def extent(self) -> tuple[float, float]:
        """(width, height) of the lattice in meters."""
        return ((self.cols - 1) * self.spacing_x, (self.rows - 1) * self.spacing_y)

    def contains(self, col: int, row: int) -> bool:
        return 0 <= col < self.cols and 0 <= row < self.rows

    def check(self, lid: LandmarkId) -> LandmarkId:
        if not self.contains(lid.col, lid.row):
            raise BoundsError(f"{lid} outside {self.cols}x{self.rows} grid")
        return lid

    def flat_index(self, lid: LandmarkId) -> int:
        self.check(lid)
        return lid.row * self.cols + lid.col

    def from_flat(self, index: int) -> LandmarkId:
        if not 0 <= index < self.n_landmarks:
            raise BoundsError(f"flat index {index} outside grid of {self.n_landmarks}")
        return LandmarkId(col=index % self.cols, row=index // self.cols)

    def all_landmarks(self) -> list[LandmarkId]:
        return [self.from_flat(i) for i in range(self.n_landmarks)]


@dataclass(frozen=True)
class RewardSpec:
    """The three mutually exclusive reward constants."""

    goal_reward: float = 0.1
    collision_penalty: float = -0.001
    step_penalty: float = -0.0001

    def __post_init__(self):
        if not (self.goal_reward > 0 > self.collision_penalty):
            raise ValueError("goal reward must be positive and collision penalty negative")
        if not self.collision_penalty < self.step_penalty < 0:
            raise ValueError("step penalty must be negative and less severe than collision penalty")


@dataclass(frozen=True)
class Transition:
    """One MDP step. ``next_state`` equals ``state`` exactly on collisions."""

    state: LandmarkId
    action: Action
    reward: float
    next_state: LandmarkId
    terminal: bool


@dataclass
class EpisodeLog:
    start: LandmarkId
    transitions: list[Transition] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.transitions)

    @property
    def cumulative_reward(self) -> float:
        return float(sum(t.reward for t in self.transitions))

    @property
    def reached_goal(self) -> bool:
        return bool(self.transitions) and self.transitions[-1].terminal


def landmark_position(grid: GridSpec, lid: LandmarkId) -> np.ndarray:
    """World position (x, y) in meters of a landmark."""
    grid.check(lid)
    ox, oy = grid.origin
    return np.array([ox + lid.col * grid.spacing_x, oy + lid.row * grid.spacing_y])


def manhattan(a: LandmarkId, b: LandmarkId) -> int:
    """Grid-step count |dcol| + |drow|; the shortest-path length."""
    return abs(a.col - b.col) + abs(a.row - b.row)


def neighbors(grid: GridSpec, state: LandmarkId) -> dict[Action, LandmarkId]:
    """Adjacent landmark per action, in ``Action`` order, for the moves that
    stay on the grid; a move that leaves it has no entry."""
    grid.check(state)
    out: dict[Action, LandmarkId] = {}
    for action in Action:
        dc, dr = action.displacement
        col, row = state.col + dc, state.row + dr
        if grid.contains(col, row):
            out[action] = LandmarkId(col, row)
    return out


def step(
    grid: GridSpec,
    rewards: RewardSpec,
    state: LandmarkId,
    action: Action,
    goal: LandmarkId,
) -> Transition:
    """Apply one action. Deterministic.

    Off-grid moves collide: the agent stays in place and receives only the
    collision penalty. Reaching the goal terminates with the goal reward;
    any other move costs the step penalty.
    """
    grid.check(goal)
    if state == goal:
        raise InvalidStateError("step() called at the goal; episode is over, reset first")
    nxt = neighbors(grid, state).get(action)  # checks the state
    if nxt is None:
        return Transition(state, action, rewards.collision_penalty, state, False)
    if nxt == goal:
        return Transition(state, action, rewards.goal_reward, nxt, True)
    return Transition(state, action, rewards.step_penalty, nxt, False)


def random_start(grid: GridSpec, goal: LandmarkId, rng: np.random.Generator) -> LandmarkId:
    """Uniformly random non-goal landmark; one draw from ``rng``.

    A single draw over n-1 slots is remapped around the goal index, so the
    distribution over the non-goal cells is exactly uniform.
    """
    grid.check(goal)
    goal_flat = grid.flat_index(goal)
    draw = int(rng.integers(0, grid.n_landmarks - 1))
    if draw >= goal_flat:
        draw += 1
    return grid.from_flat(draw)


EPISODE_CSV_HEADER = "episode,step,state_col,state_row,action,reward,next_col,next_row,terminal"


def write_episode_logs(logs: list[EpisodeLog], path) -> None:
    """Export transition-level episode logs as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_CSV_HEADER.split(","))
        for episode, log in enumerate(logs):
            for i, t in enumerate(log.transitions):
                writer.writerow([
                    episode, i,
                    t.state.col, t.state.row,
                    t.action.token,
                    f"{t.reward:.6g}",
                    t.next_state.col, t.next_state.row,
                    int(t.terminal),
                ])
