"""Phase 1: goal-reaching policy learning on the landmark lattice.

Tabular epsilon-greedy Q-learning is the reference learner (the state
space is only cols*rows landmarks), verified against an exact
value-iteration solve of the same deterministic MDP. Policies serialize
to a versioned plain-text format consumed by the mission navigator.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import PolicyFormatError
from .grid import (
    Action,
    EpisodeLog,
    GridSpec,
    LandmarkId,
    RewardSpec,
    manhattan,
    random_start,
    step,
)

POLICY_FORMAT_VERSION = 1

# Mean steps reported by the original UASNAV 100-episode evaluation; printed
# next to our enumerated mean for qualitative comparison only (the goal cell
# behind it is unknown, so it is not an assertion target).
UASNAV_REFERENCE_MEAN_STEPS = 6.53


@dataclass
class QTable:
    """Dense action-value table, shape (n_landmarks, 4). Row-major by
    flat landmark index; the goal row stays fixed at zero."""

    values: np.ndarray
    goal: LandmarkId
    discount: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(Action):
            raise ValueError(f"Q-table must be (n, {len(Action)}), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Q-table contains non-finite entries")
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")

    def greedy_action(self, grid: GridSpec, state: LandmarkId) -> Action:
        # np.argmax keeps the lowest enum index on ties; deterministic.
        return Action(int(np.argmax(self.values[grid.flat_index(state)])))

    def optimal_actions(self, grid: GridSpec, state: LandmarkId, tol: float = 1e-9) -> set[Action]:
        """All actions whose value is within ``tol`` of the row maximum."""
        row = self.values[grid.flat_index(state)]
        return {Action(int(a)) for a in np.flatnonzero(row >= row.max() - tol)}


@dataclass
class PolicyTable:
    """Greedy action per non-goal landmark."""

    best_action: dict[LandmarkId, Action]
    goal: LandmarkId
    cols: int
    rows: int

    def action_at(self, state: LandmarkId) -> Action:
        return self.best_action[state]


def _starts(grid: GridSpec, goal: LandmarkId) -> list[LandmarkId]:
    """The non-goal landmarks, in flat-index order."""
    return [lid for lid in grid.all_landmarks() if lid != goal]


def greedy_policy(qtable: QTable, grid: GridSpec) -> PolicyTable:
    best = {lid: qtable.greedy_action(grid, lid) for lid in _starts(grid, qtable.goal)}
    return PolicyTable(best_action=best, goal=qtable.goal, cols=grid.cols, rows=grid.rows)


@dataclass(frozen=True)
class TrainConfig:
    """Q-learning hyperparameters. The defaults converge far inside a
    200-episode budget on the default lattice: alpha 0.1, gamma 0.99, and
    epsilon decaying linearly 1.0 -> 0.05 over the first 150 episodes."""

    episodes: int = 2000
    learning_rate: float = 0.1
    discount: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.95 / 150.0  # subtracted per episode
    rng_seed: int = 17
    max_episode_steps: int = 200

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.epsilon_decay < 0:
            raise ValueError("epsilon decay must be non-negative")
        if self.episodes < 0 or self.rng_seed < 0 or self.max_episode_steps < 1:
            raise ValueError("episodes and rng_seed must be >= 0 and max_episode_steps >= 1")

    def epsilon_at(self, episode: int) -> float:
        return max(self.epsilon_end, self.epsilon_start - self.epsilon_decay * episode)


@dataclass(frozen=True)
class CurvePoint:
    episode: int
    reward: float
    steps: int
    epsilon: float


@dataclass
class TrainingCurve:
    points: list[CurvePoint] = field(default_factory=list)

    def rewards(self) -> np.ndarray:
        return np.array([p.reward for p in self.points])

    def moving_average(self, window: int) -> np.ndarray:
        """Trailing moving average of episode reward; entry i averages the
        window ending at episode i and is NaN until a full window exists."""
        r = self.rewards()
        out = np.full(len(r), np.nan)
        if len(r) >= window:
            kernel = np.ones(window) / window
            out[window - 1:] = np.convolve(r, kernel, mode="valid")
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "reward", "steps", "epsilon"])
            for p in self.points:
                writer.writerow([p.episode, f"{p.reward:.6f}", p.steps, f"{p.epsilon:.6f}"])


def _transition_tables(grid: GridSpec, rewards: RewardSpec, goal: LandmarkId):
    """Dense next-state / reward / terminal arrays for the deterministic MDP."""
    n = grid.n_landmarks
    nxt = np.zeros((n, len(Action)), dtype=np.int64)
    rew = np.zeros((n, len(Action)))
    term = np.zeros((n, len(Action)), dtype=bool)
    for lid in _starts(grid, goal):  # the goal row is all zero; backups overwrite it
        s = grid.flat_index(lid)
        for action in Action:
            t = step(grid, rewards, lid, action, goal)
            nxt[s, action] = grid.flat_index(t.next_state)
            rew[s, action] = t.reward
            term[s, action] = t.terminal
    return nxt, rew, term


def _backup(q: np.ndarray, tables, goal_flat: int, gamma: float) -> np.ndarray:
    """One Bellman optimality backup of ``q``; the goal row stays at zero."""
    nxt, rew, term = tables
    v = q.max(axis=1)
    v[goal_flat] = 0.0
    out = rew + gamma * np.where(term, 0.0, v[nxt])
    out[goal_flat, :] = 0.0
    return out


def value_iteration(
    grid: GridSpec,
    rewards: RewardSpec,
    goal: LandmarkId,
    gamma: float = TrainConfig.discount,
    tol: float = 1e-10,
    max_iterations: int = 1_000_000,
) -> QTable:
    """Exact dynamic-programming solve of the optimal Q-function.

    Iterates the Bellman optimality backup until the sup-norm change is
    within ``tol``. For gamma < 1 this always converges; the iteration cap
    only guards against misuse. Values that overflow the float range raise
    OverflowError.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    grid.check(goal)
    tables = _transition_tables(grid, rewards, goal)
    goal_flat = grid.flat_index(goal)
    q = np.zeros_like(tables[1])
    for _ in range(max_iterations):
        q_new = _backup(q, tables, goal_flat, gamma)
        delta = np.abs(q_new - q).max()
        q = q_new
        if not np.isfinite(delta):
            raise OverflowError("action-values overflow the float range")
        if delta <= tol:
            return QTable(values=q, goal=goal, discount=gamma)
    raise RuntimeError(f"value iteration did not converge within {max_iterations} iterations")


def bellman_residual(qtable: QTable, grid: GridSpec, rewards: RewardSpec) -> float:
    """Sup-norm residual of the Bellman optimality equation at every (s, a)."""
    tables = _transition_tables(grid, rewards, qtable.goal)
    backup = _backup(qtable.values, tables, grid.flat_index(qtable.goal), qtable.discount)
    return float(np.abs(backup - qtable.values).max())


def train(
    grid: GridSpec,
    rewards: RewardSpec,
    goal: LandmarkId,
    cfg: TrainConfig,
) -> tuple[QTable, TrainingCurve]:
    """Epsilon-greedy tabular Q-learning; bit-reproducible given the seed.

    Steps read the same transition tables as ``value_iteration``, indexed by
    flat state. Terminal transitions do not bootstrap (target = r), which
    pins the value of goal-adjacent moves to exactly the goal reward.
    Values that overflow the float range raise OverflowError.
    """
    grid.check(goal)
    nxt, rew, term = (t.tolist() for t in _transition_tables(grid, rewards, goal))
    rng = np.random.default_rng(cfg.rng_seed)
    q = np.zeros((grid.n_landmarks, len(Action)))
    curve = TrainingCurve()
    alpha, gamma = cfg.learning_rate, cfg.discount

    for episode in range(cfg.episodes):
        epsilon = cfg.epsilon_at(episode)
        s = grid.flat_index(random_start(grid, goal, rng))
        total = 0.0
        steps = 0
        while steps < cfg.max_episode_steps:
            if rng.random() < epsilon:
                a = int(rng.integers(len(Action)))
            else:
                a = int(np.argmax(q[s]))
            s2, r = nxt[s][a], rew[s][a]
            target = r if term[s][a] else r + gamma * q[s2].max()
            q[s, a] += alpha * (target - q[s, a])
            total += r
            steps += 1
            if term[s][a]:
                break
            s = s2
        curve.points.append(CurvePoint(episode, total, steps, epsilon))

    if not np.isfinite(q).all():
        raise OverflowError("action-values overflow the float range")
    q[grid.flat_index(goal), :] = 0.0  # untouched by updates, pinned for the invariant
    return QTable(values=q, goal=goal, discount=gamma), curve


@dataclass
class EvalSummary:
    mean_steps: float
    success_rate: float
    mean_reward: float
    episodes: list[EpisodeLog]  # the rollouts, in draw order

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "start_col", "start_row", "steps", "reward", "reached_goal"])
            for i, e in enumerate(self.episodes):
                writer.writerow([
                    i, e.start.col, e.start.row, e.steps, f"{e.cumulative_reward:.6f}", int(e.reached_goal),
                ])


def rollout(
    grid: GridSpec,
    rewards: RewardSpec,
    policy: PolicyTable,
    start: LandmarkId,
    max_episode_steps: int = TrainConfig.max_episode_steps,
) -> EpisodeLog:
    """Follow the greedy policy from ``start``; truncates on cycles."""
    log = EpisodeLog(start=start)
    state = start
    while state != policy.goal and log.steps < max_episode_steps:
        t = step(grid, rewards, state, policy.action_at(state), policy.goal)
        log.transitions.append(t)
        state = t.next_state
    return log


def evaluate(
    grid: GridSpec,
    rewards: RewardSpec,
    policy: PolicyTable,
    episodes: int,
    rng_seed: int,
    max_episode_steps: int = TrainConfig.max_episode_steps,
) -> EvalSummary:
    """Greedy rollouts from uniformly random starts; deterministic given seed.

    Episodes that fail to reach the goal within ``max_episode_steps``
    (cyclic policies) count as failures at the truncated length.
    """
    if episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    rng = np.random.default_rng(rng_seed)
    logs = [
        rollout(grid, rewards, policy, random_start(grid, policy.goal, rng), max_episode_steps)
        for _ in range(episodes)
    ]
    return EvalSummary(
        mean_steps=float(np.mean([e.steps for e in logs])),
        success_rate=float(np.mean([e.reached_goal for e in logs])),
        mean_reward=float(np.mean([e.cumulative_reward for e in logs])),
        episodes=logs,
    )


def enumerated_mean_manhattan(grid: GridSpec, goal: LandmarkId) -> float:
    """Exact mean shortest-path length over the uniform non-goal starts."""
    dists = [manhattan(lid, goal) for lid in _starts(grid, goal)]
    return float(np.mean(dists))


def optimal_expected_reward(grid: GridSpec, rewards: RewardSpec, goal: LandmarkId) -> float:
    """Exact expected per-episode reward of a shortest-path policy under the
    uniform start distribution: reaching the goal in d steps earns
    goal_reward + (d-1) * step_penalty."""
    starts = _starts(grid, goal)
    total = 0.0
    for lid in starts:
        total += rewards.goal_reward + (manhattan(lid, goal) - 1) * rewards.step_penalty
    return total / len(starts)


def oracle_agreement(policy: PolicyTable, oracle: QTable, grid: GridSpec, tol: float = 1e-9) -> float:
    """Fraction of non-goal states whose greedy action is oracle-optimal."""
    states = _starts(grid, policy.goal)
    hits = sum(
        policy.action_at(lid) in oracle.optimal_actions(grid, lid, tol) for lid in states
    )
    return hits / len(states)


def save_policy(policy: PolicyTable, path) -> None:
    """Versioned plain-text export, one ``col,row,action`` line per non-goal
    landmark in flat-index order."""
    lines = [
        f"uasnav-policy v{POLICY_FORMAT_VERSION}; "
        f"goal={policy.goal.col},{policy.goal.row}; cols={policy.cols}; rows={policy.rows}"
    ]
    for row in range(policy.rows):
        for col in range(policy.cols):
            lid = LandmarkId(col, row)
            if lid == policy.goal:
                continue
            lines.append(f"{col},{row},{policy.best_action[lid].token}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_policy(path) -> PolicyTable:
    """Parse a policy file; errors name the offending line or field."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise PolicyFormatError(f"{path}: empty policy file")

    header = lines[0]
    parts = [p.strip() for p in header.split(";")]
    if not parts[0].startswith("uasnav-policy v"):
        raise PolicyFormatError(f"{path}: line 1: not a policy file header: {header!r}")
    version = parts[0].removeprefix("uasnav-policy v")
    if version != str(POLICY_FORMAT_VERSION):
        raise PolicyFormatError(
            f"{path}: unsupported policy format version {version!r}, "
            f"expected {POLICY_FORMAT_VERSION}"
        )
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise PolicyFormatError(f"{path}: line 1: malformed header field {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        goal_col, goal_row = (int(v) for v in fields["goal"].split(","))
        cols, rows = int(fields["cols"]), int(fields["rows"])
    except (KeyError, ValueError) as exc:
        raise PolicyFormatError(f"{path}: line 1: bad header fields: {exc}") from None

    if not (0 <= goal_col < cols and 0 <= goal_row < rows):
        raise PolicyFormatError(f"{path}: line 1: goal ({goal_col},{goal_row}) outside {cols}x{rows}")
    goal = LandmarkId(goal_col, goal_row)
    best: dict[LandmarkId, Action] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        pieces = line.split(",")
        if len(pieces) != 3:
            raise PolicyFormatError(f"{path}: line {lineno}: expected 'col,row,action', got {line!r}")
        try:
            col, row = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise PolicyFormatError(f"{path}: line {lineno}: non-integer landmark index") from None
        try:
            action = Action.from_token(pieces[2])
        except ValueError as exc:
            raise PolicyFormatError(f"{path}: line {lineno}: {exc}") from None
        if not (0 <= col < cols and 0 <= row < rows):
            raise PolicyFormatError(f"{path}: line {lineno}: landmark ({col},{row}) outside {cols}x{rows}")
        lid = LandmarkId(col, row)
        if lid == goal:
            raise PolicyFormatError(f"{path}: line {lineno}: entry for the goal ({col},{row})")
        if lid in best:
            raise PolicyFormatError(f"{path}: line {lineno}: duplicate entry for ({col},{row})")
        best[lid] = action

    if len(best) != cols * rows - 1:
        missing = (
            f"({col},{row})"
            for row in range(rows)
            for col in range(cols)
            if (lid := LandmarkId(col, row)) != goal and lid not in best
        )
        raise PolicyFormatError(
            f"{path}: incomplete policy: {len(best)}/{cols * rows - 1} landmarks, "
            f"missing {', '.join(itertools.islice(missing, 5))}"
        )
    return PolicyTable(best_action=best, goal=goal, cols=cols, rows=rows)
