"""The paired slot loop of the coupling scenarios, one scenario and one seed
at a time, kept as the oracle that eslsim.coupling.coupled_runs must match
report for report.

coupled_run steps G and PI as SystemState tuples through model.step, with
one model.sample_arrivals draw per slot from default_rng(seed); PI reads
that draw with streams 0 and 1 swapped where the scenario says so.  Each
scenario's scalar moves and meeting test sit in a subclass of its eslsim
script, which keeps the default instance, precondition and gap shape;
coupling._finish builds the report, so the two engines share the closing
sum.  step and sample_arrivals are looked up here, so a test can plant a
fault in them with monkeypatch.setattr(scalar_coupling, "step", ...).
"""

import numpy as np

from eslsim import coupling
from eslsim.coupling import (
    CouplingReport,
    CouplingScenario,
    _extend_powers,
    _finish,
    _next_free,
)
from eslsim.model import (
    IDLE_ACTION,
    SERVE_ACTION,
    RobotAction,
    SystemState,
    sample_arrivals,
    step,
    switch_to,
)


def _swap01(vec: tuple[int, ...]) -> tuple[int, ...]:
    return (vec[1], vec[0]) + vec[2:]


_SWAP_LOC = {0: 1, 1: 0}


def _serve_or_idle(state: SystemState) -> RobotAction:
    return (
        SERVE_ACTION if state.queues[state.robots[0]] > 0 else IDLE_ACTION
    )


class Prop1A(coupling._Prop1A):
    """moves gives robot 0's moves in G and PI at slot t (at slot 0 both
    sides are the start state); met says whether the pair has met after
    slot t, and raises RuntimeError where the scenario's argument says it
    must have.  The other three scripts follow the same form."""

    def moves(self, t, g, pi):
        loc, n = g.robots[0], len(g.queues)
        if t == 0:
            self.home = loc
            self.parked = frozenset(g.robots[1:])
        elif self.tau is None and loc == self.home:
            self.tau = t
        if t > 0 and g.queues[loc] > 0:
            g_act = SERVE_ACTION
        else:
            g_act = switch_to(_next_free(loc, n, self.parked))
        pi_act = SERVE_ACTION if t == 0 else self.last
        self.last = g_act
        return g_act, pi_act

    def met(self, t, g, pi):
        if t != self.tau:
            return False
        if g != pi:
            raise RuntimeError(
                "paired states failed to meet at the return slot"
            )
        return True


class Prop1B(coupling._Prop1B):
    def moves(self, t, g, pi):
        return (
            IDLE_ACTION if t == 0 else _serve_or_idle(g),
            _serve_or_idle(pi),
        )

    def met(self, t, g, pi):
        if g != pi:
            return False
        self.tau = t
        return True


class Prop2(coupling._Prop2):
    def moves(self, t, g, pi):
        if t == 0:
            return IDLE_ACTION, switch_to(1)
        return _serve_or_idle(g), _serve_or_idle(pi)

    def met(self, t, g, pi):
        if g.queues[0] != pi.queues[1]:
            return False
        self.tau = t + 1
        return True


class Prop4(coupling._Prop4):
    def moves(self, t, g, pi):
        if t == 0:
            self.k = g.queues[1] - g.queues[0]
            return switch_to(0), switch_to(1)
        # G side: drain the short queue, cross, then park.
        if g.robots[0] != 0:
            g_act = _serve_or_idle(g)
        elif g.queues[0] > 0:
            g_act = SERVE_ACTION
        else:
            if self.tau is not None:
                raise RuntimeError(
                    "short queue emptied twice before the crossing"
                )
            self.tau = t
            g_act = switch_to(1)
        # PI side: serve the long queue until tau, then exactly k catch-up
        # serves, then cross.
        if self.tau is None or t < self.tau + self.k:
            if pi.queues[1] <= 0:
                raise RuntimeError("long queue ran dry before the crossing")
            pi_act = SERVE_ACTION
        else:
            pi_act = switch_to(0)
        return g_act, pi_act

    def met(self, t, g, pi):
        if self.tau is None or t != self.tau + self.k:
            return False
        mirrored = SystemState(
            tuple(_SWAP_LOC.get(loc, loc) for loc in pi.robots),
            _swap01(pi.queues),
        )
        if mirrored != g:
            raise RuntimeError(
                "paired states failed to meet after the crossing"
            )
        return True


SCRIPTS = {"prop1A": Prop1A, "prop1B": Prop1B, "prop2": Prop2, "prop4": Prop4}


def _joint(state: SystemState, lead: RobotAction) -> tuple[RobotAction, ...]:
    """Robot 0 takes lead; parked robots serve their own queue if nonempty."""
    robots, queues = state
    joint = [lead]
    for loc in robots[1:]:
        joint.append(SERVE_ACTION if queues[loc] > 0 else IDLE_ACTION)
    return tuple(joint)


def _record_gap(
    gap: list[int], g: SystemState, pi: SystemState, departure_gap: int
) -> None:
    gap.append(departure_gap)
    backlog_diff = sum(g.queues) - sum(pi.queues)
    if backlog_diff != gap[-1]:
        raise RuntimeError(
            "conservation identity broken inside the coupling harness"
        )


def coupled_run(
    scenario: CouplingScenario, horizon: int, seed: int
) -> CouplingReport:
    """Run one paired experiment; see eslsim.coupling for the semantics."""
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    script = SCRIPTS[scenario.name]()
    script.tau = None
    probs = scenario.model.arrival_probs
    rng = np.random.default_rng(seed)
    g = pi = scenario.initial_state
    g_out = pi_out = 0
    gap = [0]
    coupling_time = None
    for t in range(horizon):
        g_act, pi_act = script.moves(t, g, pi)
        arrivals = sample_arrivals(probs, rng)
        g, delta = step(g, _joint(g, g_act), arrivals)
        g_out += sum(delta.departures)
        if script.swap:
            arrivals = _swap01(arrivals)
        pi, delta = step(pi, _joint(pi, pi_act), arrivals)
        pi_out += sum(delta.departures)
        _record_gap(gap, g, pi, pi_out - g_out)
        if script.met(t, g, pi):
            coupling_time = t + 1
            break
    return _finish(
        scenario, seed, horizon, gap, script.tau, script.k, coupling_time,
        _extend_powers([], scenario.model.discount, len(gap)),
    )
