"""Exact solver on a truncated copy of the allocation problem, one state per
location orbit.

Queues are capped at C tasks; an arrival to a full queue is discarded, with
its probability mass folded into the no-arrival branch, which keeps every
transition row stochastic.  Robots are identical and every switch takes one
slot, so relabelling locations that share an arrival rate maps the capped
problem onto itself, and V* is constant on the orbits of those relabellings
(model minimization: Givan, Dean & Greig, "Equivalence notions and model
minimization in Markov decision processes", AIJ 147, 2003).  For each class
of equal rate, an orbit records the sorted queues at the class's occupied
locations and the sorted queues at its unoccupied ones.  With one rate that
is (sorted occupied | sorted unoccupied): (4, 2, cap 5) has 441 orbits
against 15,552 ordered states.  With all rates distinct it is an occupied
set and a queue vector.  The solver stores one state per orbit.

Arrivals land after service and travel, so a Q-value depends on the action
only through the post-service orbit.  Each orbit keeps one action per
post-service orbit it can reach, and each orbit owns one arrival row: the
arrival patterns, canonicalised, with duplicate next orbits merged, so that
W[post] = E[V(next)] and a sweep takes each orbit's minimum of
cost + beta * W[post].  Value iteration stops on MacQueen's bounds, which
certify the error of the values it returns.

Ordered states are read through orbit_id (an ordered state's orbit).
tests/scalar_mdp.py keeps the explicit kernel over ordered states as the
oracle: values and Q-values read through orbit_id match it within 1e-12.
The optimality audit and the monotonicity check work on orbits too: a
verdict at an ordered state is its orbit's, so each checks one
representative per orbit and reports how many ordered states it stands
for.  The audit reads the interior orbits (all queues at least `margin`
below the cap, so boundary distortion from dropped arrivals cannot leak
in) as lanes of the array serve-then-seek rule
(policies.serve_then_seek_lanes), the lockstep engine's rule, and reads
the Q of the rule's action and of each single-robot deviation from it as
cost + beta * W[orbit(post)]; tests/ordered_audit.py keeps the audit over
ordered states, joint by joint, as its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    IDLE,
    IDLE_ACTION,
    SERVE,
    SERVE_ACTION,
    SWITCH,
    JointAction,
    ModelConfig,
    SystemState,
    lane_feasible,
    switch_to,
)
from .policies import serve_then_seek_lanes

DEFAULT_STATE_BUDGET = 5_000_000
# rows x fan-out of one numpy pass in the builder, bounding its temporaries
_CHUNK = 1 << 18


class StateSpaceTooLargeError(RuntimeError):
    """Enumeration would exceed the configured state budget."""


class ConvergenceError(RuntimeError):
    """Value iteration used every sweep it was allowed without reaching
    the tolerance."""


@dataclass(frozen=True, eq=False)
class OrbitIndex:
    """Canonical form and rank of ordered states.

    A location's key is its queue length, plus cap + 1 where no robot
    stands.  Sorting the keys within each rate class lists the class's
    occupied locations first, each part in ascending queue order: that is
    the orbit's canonical representative.  Its code has one mixed-radix
    digit per class, the colex rank of the class's sorted keys read as a
    multiset; codes holds every orbit's code in ascending order, so an
    orbit's id is the rank of its code.
    """

    radix: int
    classes: tuple[list[int], ...]
    weights: tuple[int, ...]
    binom: np.ndarray
    codes: np.ndarray

    def rank(self, keys: np.ndarray) -> np.ndarray:
        """Codes of the orbits of the key vectors along keys' last axis."""
        code = np.zeros(keys.shape[:-1], dtype=np.int64)
        for cols, weight in zip(self.classes, self.weights):
            part = np.sort(keys[..., cols], axis=-1)
            for j in range(len(cols)):
                code += weight * self.binom[part[..., j] + j, j + 1]
        return code

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """Orbit ids of the key vectors along keys' last axis."""
        code = self.rank(keys)
        ids = np.searchsorted(self.codes, code)
        found = self.codes[np.minimum(ids, len(self.codes) - 1)] == code
        if not found.all():
            raise RuntimeError("kernel points outside the state space")
        return ids


@dataclass(frozen=True, eq=False)
class TruncatedMdp:
    """The capped problem on location orbits.

    states[s] is orbit s's canonical representative as location keys
    (OrbitIndex): the queue length, plus cap + 1 where no robot stands.
    Orbit s owns actions[sa_offsets[s]:sa_offsets[s+1]], one per distinct
    post-service orbit it can reach, in post order.  actions[k] holds two
    location bitmasks on the representative, where robots serve and where
    they end the slot; sa_post[k] is the post-service orbit, after service
    and travel; sa_cost[k] is the owning orbit's stage cost.  Orbit j owns
    the arrival row tr_offsets[j]:tr_offsets[j+1] in (tr_next, tr_prob):
    each next orbit once, with the summed probability of the arrival
    patterns that reach it.
    """

    config: ModelConfig
    cap: int
    states: np.ndarray
    actions: np.ndarray
    sa_offsets: np.ndarray
    sa_cost: np.ndarray
    sa_post: np.ndarray
    tr_offsets: np.ndarray
    tr_next: np.ndarray
    tr_prob: np.ndarray
    orbits: OrbitIndex


@dataclass(frozen=True)
class ValueTable:
    """Converged values, one per orbit, plus the iteration trail.

    residual is the sup-norm of the last sweep's change; error_bound
    bounds |values - V*| at every state, V* the capped model's fixed point.
    """

    values: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    error_bound: float


def count_states(config: ModelConfig, cap: int) -> int:
    """Ordered states: placements times queue vectors."""
    placements = math.perm(config.num_locations, config.num_robots)
    return placements * (cap + 1) ** config.num_locations


def _rate_classes(config: ModelConfig) -> tuple[list[int], ...]:
    """Locations grouped by arrival rate, each class in location order and
    the classes in order of their first location."""
    classes: dict[float, list[int]] = {}
    for loc, p in enumerate(config.arrival_probs):
        classes.setdefault(p, []).append(loc)
    return tuple(classes.values())


def _splits(classes, m: int):
    """Every way to spread m robots over the rate classes: robots per class."""
    return [
        split
        for split in itertools.product(*(range(len(c) + 1) for c in classes))
        if sum(split) == m
    ]


def count_orbits(config: ModelConfig, cap: int) -> int:
    """Solver states: for each split of the robots over the rate classes,
    the product over classes of C(cap + k, k) * C(cap + n - k, n - k),
    the sorted queues at a class's k occupied and n - k unoccupied
    locations."""
    classes = _rate_classes(config)
    return sum(
        math.prod(
            math.comb(cap + k, k) * math.comb(cap + len(c) - k, len(c) - k)
            for c, k in zip(classes, split)
        )
        for split in _splits(classes, config.num_robots)
    )


def _orbit_index(
    config: ModelConfig, cap: int
) -> tuple[OrbitIndex, np.ndarray]:
    """The index and every orbit's canonical keys, in id order.

    Orbits are enumerated per split of the robots over the rate classes:
    in each class, every sorted tuple of occupied queues
    (combinations_with_replacement) with every sorted tuple of unoccupied
    ones, crossed over the classes.
    """
    n, m, radix = config.num_locations, config.num_robots, cap + 1
    classes = _rate_classes(config)
    sizes = [math.comb(2 * radix + len(c) - 1, len(c)) for c in classes]
    if math.prod(sizes) >= 1 << 62:
        raise StateSpaceTooLargeError("state space too large")
    weights = tuple(math.prod(sizes[:i]) for i in range(len(classes)))
    binom = np.array(
        [[math.comb(x, j) for j in range(n + 1)]
         for x in range(2 * radix + n)],
        dtype=np.int64,
    )
    blocks = []
    for split in _splits(classes, m):
        keys = np.zeros((1, n), dtype=np.int64)
        for cols, k in zip(classes, split):
            occ = list(itertools.combinations_with_replacement(
                range(radix), k))
            free = list(itertools.combinations_with_replacement(
                range(radix, 2 * radix), len(cols) - k))
            part = np.array(
                [a + b for a in occ for b in free], dtype=np.int64
            ).reshape(len(occ) * len(free), len(cols))
            keys = np.repeat(keys, len(part), axis=0)
            keys[:, cols] = np.tile(part, (len(keys) // len(part), 1))
        blocks.append(keys)
    keys = np.concatenate(blocks)
    index = OrbitIndex(radix, classes, weights, binom, np.empty(0, np.int64))
    codes = index.rank(keys)
    order = np.argsort(codes)
    index = OrbitIndex(radix, classes, weights, binom, codes[order])
    return index, keys[order]


def _templates(occupied: list[int], n: int):
    """Served counts (T, n), end flags (T, n) and their bitmasks for every
    serve / idle / leave choice of the robots on `occupied`, the leavers
    going to each set of unoccupied locations."""
    free = [loc for loc in range(n) if loc not in occupied]
    served, ends = [], []
    menu = (SERVE, IDLE, SWITCH)
    for kinds in itertools.product(menu, repeat=len(occupied)):
        stay = [loc for loc, k in zip(occupied, kinds) if k != SWITCH]
        serve = [loc for loc, k in zip(occupied, kinds) if k == SERVE]
        for dests in itertools.combinations(free, len(occupied) - len(stay)):
            served.append([loc in serve for loc in range(n)])
            ends.append([loc in stay or loc in dests for loc in range(n)])
    served = np.array(served, dtype=np.int64).reshape(-1, n)
    ends = np.array(ends, dtype=bool).reshape(-1, n)
    bits = 1 << np.arange(n, dtype=np.int64)
    return served, ends, served @ bits, ends @ bits


def _chunks(count: int, fan: int):
    """Slices of range(count), each row fanning out to `fan` entries."""
    step = max(1, _CHUNK // max(fan, 1))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def build_truncated_mdp(
    config: ModelConfig,
    cap: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TruncatedMdp:
    """Enumerate orbits, their actions and their arrival rows.

    Actions: a canonical representative's occupied locations depend only
    on how many robots each rate class holds, so one set of templates
    serves all orbits with that occupancy.  A template lets each robot
    serve, idle or leave, and sends the leavers to a set of unoccupied
    locations.  Applied to the orbits as arrays, feasible where every
    served queue is nonempty and canonicalised, it yields (orbit, post)
    pairs, of which the unique ones are kept.  These cover every ordered
    joint action: a joint is fixed, up to its post-service state, by where
    robots serve and where they end, and swaps or cycles among occupied
    locations only give up service.

    Arrivals: from each orbit's representative, every pattern of arrivals
    at the locations with 0 < p < 1, in itertools.product order ("no
    arrival" first), adds one task below the cap, as p = 1 always does.
    A pattern's probability is multiplied left to right from 1.0, the
    factor being 0 where it would add a task at the cap.  The next states
    are canonicalised and each row's duplicate next orbits merged by
    summing their probabilities.

    Raises StateSpaceTooLargeError before allocating anything when the
    orbit count exceeds the budget, and RuntimeError if a next state's
    orbit is not in the index.
    """
    if cap < 1:
        raise ValueError("queue cap must be at least 1")
    if count_orbits(config, cap) > state_budget:
        raise StateSpaceTooLargeError("state space too large")
    n, radix = config.num_locations, cap + 1
    probs = config.arrival_probs
    index, keys = _orbit_index(config, cap)
    size = len(keys)
    queues = keys % radix
    occupied = keys < radix

    # one action per (orbit, post) pair, kept as orbit * size + post
    bits = 1 << np.arange(n, dtype=np.int64)
    pattern = occupied @ bits
    pair_keys, pair_acts = [], []
    for pat in np.unique(pattern).tolist():
        rows = np.flatnonzero(pattern == pat)
        served, ends, served_bits, end_bits = _templates(
            [loc for loc in range(n) if pat >> loc & 1], n
        )
        for part in _chunks(len(rows), len(served)):
            post = queues[rows[part], None, :] - served
            orbit, t = np.nonzero((post >= 0).all(axis=-1))
            post = index.ids(post[orbit, t] + radix * ~ends[t])
            key, first = np.unique(
                rows[part][orbit] * size + post, return_index=True
            )
            pair_keys.append(key)
            pair_acts.append(
                np.stack([served_bits[t[first]], end_bits[t[first]]], axis=1)
            )
    key = np.concatenate(pair_keys)
    order = np.argsort(key)
    actions = np.concatenate(pair_acts)[order]
    sa_orbit, sa_post = np.divmod(key[order], size)
    sa_offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(sa_orbit, minlength=size)))
    )

    # one arrival row per orbit, duplicate next orbits merged
    branch = [i for i, p in enumerate(probs) if 0.0 < p < 1.0]
    forced = np.array([p == 1.0 for p in probs])
    arrive = np.zeros((1 << len(branch), n), dtype=np.int64)
    arrive[:, branch] = list(itertools.product((0, 1), repeat=len(branch)))
    row_lens, tr_next, tr_prob = [], [], []
    for part in _chunks(size, len(arrive)):
        below = queues[part] < cap
        nxt = queues[part, None, :] + below[:, None, :] * (arrive + forced)
        ids = index.ids(nxt + radix * ~occupied[part, None, :])
        prob = np.ones(ids.shape)
        for i in branch:
            hit = arrive[:, i] == 1
            prob *= np.where(
                hit,
                np.where(below[:, i], probs[i], 0.0)[:, None],
                np.where(below[:, i], 1.0 - probs[i], 1.0)[:, None],
            )
        by_id = np.argsort(ids, axis=1, kind="stable")
        ids = np.take_along_axis(ids, by_id, axis=1)
        prob = np.take_along_axis(prob, by_id, axis=1)
        new = np.ones(ids.shape, dtype=bool)
        new[:, 1:] = ids[:, 1:] != ids[:, :-1]
        starts = np.flatnonzero(new)
        tr_next.append(ids.ravel()[starts])
        tr_prob.append(np.add.reduceat(prob.ravel(), starts))
        row_lens.append(new.sum(axis=1))
    return TruncatedMdp(
        config=config,
        cap=cap,
        states=keys,
        actions=actions,
        sa_offsets=sa_offsets,
        sa_cost=queues.sum(axis=1)[sa_orbit].astype(np.float64),
        sa_post=sa_post,
        tr_offsets=np.concatenate(([0], np.cumsum(np.concatenate(row_lens)))),
        tr_next=np.concatenate(tr_next),
        tr_prob=np.concatenate(tr_prob),
        orbits=index,
    )


def _ids(mdp: TruncatedMdp, queues: np.ndarray, occupied: np.ndarray):
    """Orbit ids of ordered states given as queue and occupancy vectors
    (broadcast against each other along the last axis)."""
    return mdp.orbits.ids(queues + (mdp.cap + 1) * ~occupied)


def orbit_id(mdp: TruncatedMdp, state: SystemState) -> int:
    """The id of the orbit an ordered state belongs to."""
    queues = np.array(state.queues, dtype=np.int64)
    if len(queues) != mdp.config.num_locations or not (
        0 <= queues.min() and queues.max() <= mdp.cap
    ):
        raise ValueError(f"{state} is not a state of this capped model")
    occupied = np.zeros(len(queues), dtype=bool)
    occupied[list(state.robots)] = True
    return int(_ids(mdp, queues, occupied))


def expected_values(mdp: TruncatedMdp, values: np.ndarray) -> np.ndarray:
    """W[j] = E[v(next)] over orbit j's arrival row."""
    return np.add.reduceat(
        mdp.tr_prob * values[mdp.tr_next], mdp.tr_offsets[:-1]
    )


def q_table(mdp: TruncatedMdp, values: np.ndarray) -> np.ndarray:
    """Q = stage cost + beta * W[post] for every orbit-action, read from
    the orbit table v."""
    return mdp.sa_cost + mdp.config.discount * expected_values(
        mdp, values
    )[mdp.sa_post]


def bellman_update(mdp: TruncatedMdp, values: np.ndarray) -> np.ndarray:
    """One Bellman sweep: the table T v, each orbit's minimum Q over v."""
    return np.minimum.reduceat(q_table(mdp, values), mdp.sa_offsets[:-1])


def _rounding(config: ModelConfig) -> float:
    """Relative float error of one sweep, carried through 1 / (1 - beta).

    One computed sweep is within (L + G + N + 2) * u * (max cost +
    max |T v|) of the exact one, L the longest arrival row, G the most
    pattern products merged into one probability, N the locations and u
    the unit roundoff (products, row sums, the merge, the probabilities'
    N factors and the scaled add).  L and G are at most 2^B, B the
    locations with 0 < p < 1.
    """
    fan = 2 ** sum(0.0 < p < 1.0 for p in config.arrival_probs)
    return (2 * fan + config.num_locations + 2) * np.finfo(
        np.float64
    ).eps / 2 / (1.0 - config.discount)


def min_tolerance(config: ModelConfig, cap: int) -> float:
    """The smallest tol that value_iteration can honour on this instance:
    twice the rounding allowance of its error_bound, bounded before
    solving: every |T v| is at most max cost / (1 - beta).  Above it the
    returned error_bound stays below tol; below it the float sweep can
    stall short of MacQueen's band."""
    max_cost = config.num_locations * cap
    return 2 * _rounding(config) * max_cost * (
        1.0 + 1.0 / (1.0 - config.discount)
    )


def value_iteration(
    mdp: TruncatedMdp, tol: float, max_sweeps: int = 100_000
) -> ValueTable:
    """Two-buffer Bellman iteration stopped on MacQueen's bounds.

    Each sweep reads the previous table v and writes a fresh one, T v.
    With d = T v - v and k = beta / (1 - beta), the truncated fixed point
    lies between T v + k * min(d) and T v + k * max(d) at every state
    (MacQueen, J. Math. Anal. Appl. 14, 1966).  Iteration stops once that
    band is narrower than tol and returns its midpoint, which is within
    k * (max d - min d) / 2 < tol / 2 of the fixed point everywhere.

    error_bound adds the rounding of float arithmetic to that half-width:
    _rounding's relative error times max cost + max |T v|.  The allowance
    matters only at large beta and a tol near the rounding floor
    (min_tolerance); there a float fixed point of the sweep can stop the
    iteration with d = 0 while the values still differ from the fixed
    point.

    residual_history keeps the sup-norm of d for each sweep.  Raises
    ConvergenceError when max_sweeps pass without the band closing.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    beta = mdp.config.discount
    k = beta / (1.0 - beta)
    rounding = _rounding(mdp.config)
    max_cost = float(mdp.sa_cost.max())
    values = np.zeros(len(mdp.states))
    history: list[float] = []
    for sweep in range(1, max_sweeps + 1):
        new_values = bellman_update(mdp, values)
        diff = new_values - values
        lo, hi = float(diff.min()), float(diff.max())
        history.append(max(hi, -lo))
        values = new_values
        if k * (hi - lo) < tol:
            return ValueTable(
                values + k * (hi + lo) / 2,
                sweep,
                history[-1],
                tuple(history),
                k * (hi - lo) / 2
                + rounding * (max_cost + float(np.abs(values).max())),
            )
    raise ConvergenceError(
        f"value iteration did not converge within {max_sweeps} sweeps "
        f"(last residual {history[-1] if history else float('nan'):.3g}, "
        f"tol {tol:.3g})"
    )


def _representative(mdp: TruncatedMdp, keys: np.ndarray) -> SystemState:
    """The ordered state standing for the orbit with these canonical keys:
    their queues, with the robots on the occupied locations in ascending
    order."""
    radix = mdp.cap + 1
    return SystemState(
        tuple(np.flatnonzero(keys < radix).tolist()),
        tuple((keys % radix).tolist()),
    )


def _orbit_size(mdp: TruncatedMdp, keys: np.ndarray) -> int:
    """The ordered states in the orbit with these canonical keys: the m!
    orders of the robots times, per rate class, the distinct arrangements
    of the class's keys over its locations, which is C(|c|, k) times the
    multinomials of its occupied and of its unoccupied queues."""
    size = math.factorial(mdp.config.num_robots)
    row = keys.tolist()
    for cols in mdp.orbits.classes:
        # canonical keys are sorted within a class, so equal keys are runs
        size *= math.factorial(len(cols)) // math.prod(
            math.factorial(len(list(run)))
            for _, run in itertools.groupby(row[c] for c in cols)
        )
    return size


@dataclass(frozen=True)
class Violation:
    """One failed optimality comparison at an orbit's representative.
    members counts the orbit's ordered states, each of which fails the
    matching comparison by the same gap."""

    state: SystemState
    kind: str
    gap: float
    robot: int | None = None
    alternative: JointAction | None = None
    members: int = 1


def _joint(serve: list, end: list) -> JointAction:
    """The joint action of served flags and end locations, for robots
    standing on locations 0..M-1."""
    return tuple(
        SERVE_ACTION if served else IDLE_ACTION if dest == r
        else switch_to(dest)
        for r, (served, dest) in enumerate(zip(serve, end))
    )


_KINDS = ("rule-action-infeasible", "not-argmin", "serve-not-strict",
          "idle-not-strict", "shorter-not-strict")


def check_esl_optimality(
    mdp: TruncatedMdp,
    table: ValueTable,
    margin: int,
    tie_tol: float = 1e-9,
    longest_first: bool = True,
) -> list[Violation]:
    """Audit serve-longest, or switch-shortest when longest_first is
    false (policies.serve_then_seek), against the exact Q-values.

    A verdict at an ordered state is its orbit's: relabelling the
    locations maps the Q-values, the rule's post-service orbit and every
    single-robot deviation onto the matching ones at any other member.  So
    the audit checks each interior orbit at its representative, which has
    its robots on locations 0..M-1 and its queues in key order: the
    representatives are lanes of the array rule
    (policies.serve_then_seek_lanes).  A joint action's Q is cost +
    beta * W[orbit(post)], W the solved values' expected next value per
    post-service orbit, and the minimum Q at a state is its orbit's own
    minimum, the sweep's.  At every interior representative the rule's
    joint action must be feasible (model.lane_feasible; else
    rule-action-infeasible is the orbit's one failure), and (a) attain
    the minimum Q up to tie_tol, (b) for each robot with local work, beat
    every single-robot deviation to idle or switch strictly, and (c) for
    each robot the rule sends to a queue, beat both idling and switching
    to any strictly shorter nonempty queue.  A deviation moves one robot's
    end (to its own location for idling) and drops its service; it is
    feasible where no other robot ends there.  Equal-length targets may
    tie (the arrival rates are symmetric in the instances we check), which
    is why only strictly shorter targets are compared.

    Returns all failures, each with its orbit's members, so
    sum(v.members) counts them over the ordered interior; an empty list
    means the rule passed.  They come in orbit id order and within an
    orbit not-argmin first, then per robot idling and the switches by
    location.  Raises ValueError for an instance with more than one rate
    class: there the rule's index tie-break between equal-length targets
    in different classes reaches different orbits.
    """
    if margin < 1 or margin >= mdp.cap:
        raise ValueError("margin must satisfy 1 <= margin < cap")
    if len(mdp.orbits.classes) > 1:
        raise ValueError(
            "the orbit audit needs one rate class: with several, ties "
            "between equal-length targets reach different orbits"
        )
    n, m = mdp.config.num_locations, mdp.config.num_robots
    radix, beta = mdp.cap + 1, mdp.config.discount
    w = expected_values(mdp, table.values)
    interior = np.flatnonzero((mdp.states % radix < radix - margin).all(1))
    queues = mdp.states[interior] % radix
    robots = np.tile(np.arange(m), (len(interior), 1))
    serve, end = serve_then_seek_lanes(
        robots, queues, longest_first=longest_first
    )
    feasible = lane_feasible(robots, queues[:, :m], serve, end, n)

    # the clauses read the lanes where the rule's action is feasible
    lane = np.flatnonzero(feasible)
    cost = queues[lane].sum(axis=1).astype(np.float64)
    ends = np.zeros((len(lane), n), dtype=bool)
    np.put_along_axis(ends, end[lane], True, axis=1)
    served = np.pad(serve[lane], ((0, 0), (0, n - m)))  # robot r is at r

    def q_at(k, served, ends):
        """Q at lanes lane[k] for served and end flags per
        location."""
        post = mdp.orbits.ids(queues[lane[k]] - served + radix * ~ends)
        return cost[k] + beta * w[post]

    # (a): the rule's Q against the orbit's minimum
    q_rule = q_at(slice(None), served, ends)
    q_min = bellman_update(mdp, table.values)[interior[lane]]
    worse = q_rule > q_min + tie_tol

    # (b) and (c): candidates (k, r, j), robot r of lane[k] ending at j
    # (j = r is idling), masked to the deviations each clause compares
    moved = end[lane]
    here, loc = np.arange(m)[:, None], np.arange(n)
    work = queues[lane, :m] > 0
    seeks = ~work & (moved != here.T)
    at_j = queues[lane, None, :]
    target = np.take_along_axis(queues[lane], moved, axis=1)[:, :, None]
    eligible = work[:, :, None] | seeks[:, :, None] & (
        (loc == here) | (at_j > 0) & (at_j < target)
    )
    free = ~ends[:, None, :] | (moved[:, :, None] == loc)
    k, r, j = np.nonzero(eligible & free)
    q_alt = np.empty(len(k))
    for part in _chunks(len(k), n):
        kp, rp, row = k[part], r[part], np.arange(len(k[part]))
        alt_served, alt_ends = served[kp], ends[kp]
        alt_served[row, rp] = False
        alt_ends[row, moved[kp, rp]] = False
        alt_ends[row, j[part]] = True
        q_alt[part] = q_at(kp, alt_served, alt_ends)
    tie = q_alt <= q_rule[k] + tie_tol
    k, r, j = k[tie], r[tie], j[tie]

    # every failure as (orbit, kind, gap, robot, dest), robot and dest -1
    # where no deviation is compared
    parts = (
        (np.flatnonzero(~feasible), 0, math.inf, -1, -1),
        (lane[worse], 1, (q_rule - q_min)[worse], -1, -1),
        (lane[k], np.where(work[k, r], 2, np.where(j == r, 3, 4)),
         q_rule[k] - q_alt[tie], r, j),
    )
    orbit, kind, gap, robot, dest = (
        np.concatenate([np.broadcast_to(p[i], p[0].shape) for p in parts])
        for i in range(5)
    )
    by = np.lexsort((dest, dest != robot, robot, orbit))
    violations: list[Violation] = []
    reps: dict[int, tuple[SystemState, int]] = {}
    for s, c, g, rb, d in zip(
        *(a[by].tolist() for a in (orbit, kind, gap, robot, dest))
    ):
        if s not in reps:
            reps[s] = (
                SystemState(tuple(range(m)), tuple(queues[s].tolist())),
                _orbit_size(mdp, mdp.states[interior[s]]),
            )
        state, members = reps[s]
        alt = None
        if rb >= 0:
            alt_serve, alt_end = serve[s].tolist(), end[s].tolist()
            alt_serve[rb], alt_end[rb] = False, d
            alt = _joint(alt_serve, alt_end)
        violations.append(Violation(
            state, _KINDS[c], g, None if rb < 0 else rb, alt, members
        ))
    return violations


def monotonicity_violations(
    mdp: TruncatedMdp, table: ValueTable, tol: float = 1e-9
) -> list[tuple[SystemState, int, int]]:
    """Orbits where adding one task at some location lowers the value.

    The optimal cost must be coordinate-wise non-decreasing in the queue
    vector.  A relabelling maps an ordered state's dips onto its orbit
    representative's (_representative), so each orbit is checked there.
    Returns (representative, location, members) for every location where
    one more task lowers the value by more than tol, in orbit id then
    location order; members counts the orbit's ordered states, each with
    the matching dip, so the members sum to the ordered count.
    """
    keys, values = mdp.states, table.values
    below = keys % (mdp.cap + 1) < mdp.cap
    dips = np.zeros(keys.shape, dtype=bool)
    for i in range(mdp.config.num_locations):
        bumped = keys.copy()
        bumped[:, i] += below[:, i]
        rise = values[mdp.orbits.ids(bumped)] - values
        dips[:, i] = below[:, i] & (rise < -tol)
    return [
        (_representative(mdp, keys[s]), i, _orbit_size(mdp, keys[s]))
        for s, i in np.argwhere(dips).tolist()
    ]
