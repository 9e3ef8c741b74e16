"""The fixed-dwell cyclic patrol as a per-robot state machine, kept as the
oracle that eslsim.policies.cyclic_decide must match slot for slot.

Each robot carries a cursor into its block and a counter of dwell slots
left there, and the plan is rebuilt every slot.  eslsim now states the same
patrol as a closed form in the slot index; test_policies.py and
test_acceptance.py run both along episodes and compare the joints.
"""

from dataclasses import dataclass

from eslsim.model import (
    IDLE_ACTION,
    SERVE_ACTION,
    JointAction,
    RobotAction,
    SystemState,
    switch_to,
)


@dataclass(frozen=True)
class CyclicPlan:
    """Patrol bookkeeping for the fixed-dwell cyclic policy.

    Locations are split into contiguous blocks, one per robot.  cursors[r]
    is the index within blocks[r] the robot is currently committed to;
    counters[r] is how many dwell slots remain there.  Travel slots do not
    consume dwell.
    """

    blocks: tuple[tuple[int, ...], ...]
    t_dwell: int
    cursors: tuple[int, ...]
    counters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t_dwell < 1:
            raise ValueError("dwell must be at least one slot")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("every robot needs a nonempty block")
            for loc in block:
                if loc in seen:
                    raise ValueError("blocks must not overlap")
                seen.add(loc)

    def _moved(
        self, cursors: tuple[int, ...], counters: tuple[int, ...]
    ) -> "CyclicPlan":
        """This plan at new cursors and counters.  The blocks and the dwell
        were checked when the plan was made, so they are not walked again:
        this is the per-slot update of cyclic_decide."""
        plan = object.__new__(CyclicPlan)
        plan.__dict__.update(self.__dict__, cursors=cursors, counters=counters)
        return plan

    @classmethod
    def build(
        cls, num_locations: int, num_robots: int, t_dwell: int
    ) -> "CyclicPlan":
        """Split 0..N-1 into contiguous, nearly equal blocks."""
        sizes = [
            num_locations // num_robots
            + (1 if r < num_locations % num_robots else 0)
            for r in range(num_robots)
        ]
        blocks = []
        start = 0
        for size in sizes:
            blocks.append(tuple(range(start, start + size)))
            start += size
        return cls(
            tuple(blocks), t_dwell, (0,) * num_robots, (t_dwell,) * num_robots
        )


def cyclic_decide(
    state: SystemState, plan: CyclicPlan
) -> tuple[JointAction, CyclicPlan]:
    """One slot of fixed-dwell patrol; returns the action and updated plan.

    Each robot heads for the block location its cursor points at, dwells
    there for t_dwell slots serving whatever is present (idling on empty
    slots), then moves to the next location in its block.  A robot that
    finds itself off its post, including at episode start, spends the slot
    travelling there; block heads are distinct so those moves never collide.
    """
    robots, queues = state
    actions: list[RobotAction] = []
    cursors = list(plan.cursors)
    counters = list(plan.counters)
    for r, loc in enumerate(robots):
        block = plan.blocks[r]
        target = block[cursors[r]]
        if loc != target:
            actions.append(switch_to(target))
        elif len(block) == 1:
            actions.append(SERVE_ACTION if queues[loc] > 0 else IDLE_ACTION)
        elif counters[r] > 0:
            actions.append(SERVE_ACTION if queues[loc] > 0 else IDLE_ACTION)
            counters[r] -= 1
        else:
            cursors[r] = (cursors[r] + 1) % len(block)
            counters[r] = plan.t_dwell
            actions.append(switch_to(block[cursors[r]]))
    return tuple(actions), plan._moved(tuple(cursors), tuple(counters))
