"""Wrap eslsim's public functions from outside the package and turn the
measured calls into per-layer metrics.

Nothing here edits the program.  Each wrapper replaces a name where its
caller looks it up (the modules import by name), so ``eslsim.evaluator.step``
covers the episode loop while ``eslsim.coupling.step`` covers the paired
runs; ``eslsim.model.is_feasible`` is reached from inside ``step`` and from
the solver's action enumeration.

Per-slot calls run millions of times, so every wrapper only adds to a call
count, a total time and a self time (total minus the time spent in wrapped
callees).  Spans are recorded only at the command, cell, episode, dwell
tuning, instance, build, sweep-loop, audit and coupling-seed level, kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

SPAN_LAYERS = frozenset(
    {
        "cli.cmd",
        "evaluator.episode",
        "evaluator.aggregate",
        "policies.dwell",
        "mdp.build",
        "mdp.vi",
        "mdp.audit",
        "coupling.run",
    }
)

# (module, attribute, layer).  Several names may feed one layer; a layer
# entered again from inside itself (dwell_metadata -> optimize_dwell) is
# timed once, at the outermost call.
WRAPS = (
    ("eslsim.cli", "cmd_simulate", "cli.cmd"),
    ("eslsim.cli", "cmd_verify", "cli.cmd"),
    ("eslsim.evaluator", "run_episode", "evaluator.episode"),
    ("eslsim.evaluator", "_pregen_arrivals", "evaluator.arrivals"),
    ("eslsim.evaluator", "aggregate", "evaluator.aggregate"),
    ("eslsim.evaluator", "step", "model.step@evaluator"),
    ("eslsim.coupling", "step", "model.step@coupling"),
    ("eslsim.model", "is_feasible", "model.is_feasible"),
    ("eslsim.coupling", "sample_arrivals", "model.sample_arrivals"),
    ("eslsim.policies", "EslPolicy.decide", "policies.esl.decide"),
    ("eslsim.policies", "FcfsPolicy.decide", "policies.fcfs.decide"),
    ("eslsim.policies", "CyclicPolicy.decide", "policies.cyclic.decide"),
    ("eslsim.policies", "FcfsPolicy.observe", "policies.fcfs.observe"),
    ("eslsim.policies", "tuned_dwell", "policies.dwell"),
    ("eslsim.policies", "optimize_dwell", "policies.dwell"),
    ("eslsim.evaluator", "dwell_metadata", "policies.dwell"),
    ("eslsim.cli", "build_truncated_mdp", "mdp.build"),
    ("eslsim.cli", "value_iteration", "mdp.vi"),
    ("eslsim.cli", "check_esl_optimality", "mdp.audit"),
    ("eslsim.cli", "coupled_run", "coupling.run"),
    ("eslsim.cli", "check_gap_pattern", "coupling.check"),
)

KERNEL_ARRAYS = ("sa_offsets", "sa_cost", "tr_offsets", "tr_next", "tr_prob")


class Tracer:
    """Call counts, total and self times per layer, plus coarse spans."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.errors: dict[str, dict[str, int]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []  # [id, layer, parent id, start_s, dur_s]
        self.absent: dict[str, str] = {}
        self._sweep_bytes = None  # of the last instance built
        self._child = [0.0]
        self._span_stack = [None]
        self._active: dict[str, int] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, layer: str, on_return=None):
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        errors = self.errors.setdefault(layer, {})
        active = self._active
        active.setdefault(layer, 0)
        child = self._child
        span_stack = self._span_stack
        spans = self.spans
        origin = self.origin
        is_span = layer in SPAN_LAYERS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] = 1
            if is_span:
                span_id = len(spans)
                spans.append([span_id, layer, span_stack[-1], 0.0, 0.0])
                span_stack.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                active[layer] = 0
                if is_span:
                    span_stack.pop()
                    spans[span_id][3] = t0 - origin
                    spans[span_id][4] = dt
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every name in WRAPS; a missing name is recorded, not fatal."""
        hooks = {
            "mdp.build": self._on_build,
            "mdp.vi": self._on_vi,
            "mdp.audit": self._on_audit,
            "coupling.run": self._on_coupled_run,
            "coupling.check": self._on_check,
        }
        for module_name, attr, layer in WRAPS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except AttributeError:
                self.absent[layer] = f"{module_name}.{attr} not found"
                continue
            setattr(owner, name, self.wrap(fn, layer, hooks.get(layer)))

    def _on_build(self, mdp, args, kwargs) -> None:
        self.count("mdp.instances")
        states = getattr(mdp, "states", None)
        actions = getattr(mdp, "actions", None)
        if states is None or actions is None:
            self.absent["mdp.enumeration"] = "TruncatedMdp.states/actions not found"
            return
        self.count("mdp.states", len(states))
        self.count("mdp.state_actions", len(actions))
        arrays = [getattr(mdp, name, None) for name in KERNEL_ARRAYS]
        if any(a is None for a in arrays):
            self.absent["mdp.kernel"] = "TruncatedMdp kernel arrays not found"
            return
        sa_offsets, sa_cost, tr_offsets, tr_next, tr_prob = arrays
        self.count("mdp.transitions", tr_next.size)
        kernel_mb = sum(a.nbytes for a in arrays) / 2**20
        self.counts["mdp.kernel_mb"] = max(
            self.counts.get("mdp.kernel_mb", 0.0), kernel_mb
        )
        # bytes one value_iteration sweep reads: the probabilities, the
        # next-state ids and the values they gather, the stage costs, both
        # segment offset arrays and the old value table
        sweep = (
            tr_prob.nbytes
            + tr_next.nbytes
            + tr_next.size * 8
            + sa_cost.nbytes
            + tr_offsets.nbytes
            + sa_offsets.nbytes
            + len(states) * 8
        )
        self._sweep_bytes = sweep

    def _on_vi(self, table, args, kwargs) -> None:
        self.count("mdp.vi_sweeps", table.iterations)
        if self._sweep_bytes is not None:
            self.count("mdp.vi_bytes", self._sweep_bytes * table.iterations)

    def _on_audit(self, violations, args, kwargs) -> None:
        mdp, margin = args[0], args[2] if len(args) > 2 else kwargs["margin"]
        cfg = mdp.config
        interior = math.perm(cfg.num_locations, cfg.num_robots) * (
            mdp.cap - margin + 1
        ) ** cfg.num_locations
        self.count("mdp.audit_states", interior)
        self.count("mdp.audit_violations", len(violations))

    def _on_coupled_run(self, report, args, kwargs) -> None:
        self.count("coupling.paired_slots", len(report.gap) - 1)
        if not report.coupled:
            self.count("coupling.uncoupled")

    def _on_check(self, problems, args, kwargs) -> None:
        if problems:
            self.count("coupling.pattern_failures")

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "errors": self.errors,
            "counts": self.counts,
            "absent": self.absent,
            "spans": self.spans,
        }


def _calls(data, layer):
    return data["stats"].get(layer, (0, 0.0, 0.0))[0]


def _total(data, layer):
    return data["stats"].get(layer, (0, 0.0, 0.0))[1]


def _self(data, layer):
    return data["stats"].get(layer, (0, 0.0, 0.0))[2]


def _per(value, base, scale=1.0):
    return value / base * scale if base else 0.0


def tail(samples):
    """Median, and the highest of p99.9 / p99 / p90 with at least ten
    samples beyond it (nearest rank).  With fewer than 100 samples no such
    percentile exists, and the tail is the median at level 50."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    for per_mille in (999, 990, 900):
        if n * (1000 - per_mille) >= 10 * 1000:
            rank = -(-per_mille * n // 1000)
            return median, ordered[rank - 1], per_mille / 10
    return median, median, 50.0


def synthesize_spans(spans):
    """Add cell spans (first episode of a cell to its aggregate) and
    instance spans (build start to audit end) to the recorded list."""
    out = list(spans)
    pending_start = None
    build_start = None
    for span_id, layer, parent, start, dur in spans:
        if layer == "evaluator.episode" and pending_start is None:
            pending_start = start
        elif layer == "evaluator.aggregate" and pending_start is not None:
            out.append(
                [len(out), "evaluator.cell", parent, pending_start,
                 start + dur - pending_start]
            )
            pending_start = None
        elif layer == "mdp.build":
            build_start = start
        elif layer == "mdp.audit" and build_start is not None:
            out.append(
                [len(out), "mdp.instance", parent, build_start,
                 start + dur - build_start]
            )
            build_start = None
    return out


# per-layer metric -> (unit, layers or counters it reads)
PER_LAYER = {
    "evaluator.cells": ("count", ("evaluator.aggregate",)),
    "evaluator.episodes": ("count", ("evaluator.episode",)),
    "evaluator.slots": ("count", ("model.step@evaluator",)),
    "evaluator.episode_s_p50": ("s", ("evaluator.episode",)),
    "evaluator.episode_s_tail": ("s", ("evaluator.episode",)),
    "evaluator.episode_s_tail_pct": ("%", ("evaluator.episode",)),
    "evaluator.loop_us_per_slot": ("us", ("evaluator.episode",)),
    "evaluator.arrivals_us_per_slot": ("us", ("evaluator.arrivals",)),
    "evaluator.aggregate_ms_per_cell": ("ms", ("evaluator.aggregate",)),
    "policies.esl.decide_us": ("us", ("policies.esl.decide",)),
    "policies.esl.decide_calls": ("count", ("policies.esl.decide",)),
    "policies.fcfs.decide_us": ("us", ("policies.fcfs.decide",)),
    "policies.fcfs.decide_calls": ("count", ("policies.fcfs.decide",)),
    "policies.cyclic.decide_us": ("us", ("policies.cyclic.decide",)),
    "policies.cyclic.decide_calls": ("count", ("policies.cyclic.decide",)),
    "policies.fcfs.observe_us": ("us", ("policies.fcfs.observe",)),
    "policies.fcfs.observe_calls": ("count", ("policies.fcfs.observe",)),
    "policies.dwell_s": ("s", ("policies.dwell",)),
    "policies.dwell_calls": ("count", ("policies.dwell",)),
    "model.step_us": ("us", ("model.step@evaluator", "model.step@coupling")),
    "model.step_calls": ("count", ("model.step@evaluator", "model.step@coupling")),
    "model.is_feasible_us": ("us", ("model.is_feasible",)),
    "model.is_feasible_calls": ("count", ("model.is_feasible",)),
    "model.infeasible": ("count", ("model.step@evaluator", "model.step@coupling")),
    "model.sample_arrivals_us": ("us", ("model.sample_arrivals",)),
    "model.sample_arrivals_calls": ("count", ("model.sample_arrivals",)),
    "mdp.instances": ("count", ("mdp.build",)),
    "mdp.build_s": ("s", ("mdp.build",)),
    "mdp.build_s_per_instance": ("s", ("mdp.build",)),
    "mdp.states": ("count", ("mdp.build", "mdp.enumeration")),
    "mdp.state_actions": ("count", ("mdp.build", "mdp.enumeration")),
    "mdp.transitions": ("count", ("mdp.build", "mdp.enumeration", "mdp.kernel")),
    "mdp.kernel_mb": ("MB", ("mdp.build", "mdp.enumeration", "mdp.kernel")),
    "mdp.vi_s": ("s", ("mdp.vi",)),
    "mdp.vi_sweeps": ("count", ("mdp.vi",)),
    "mdp.vi_ms_per_sweep": ("ms", ("mdp.vi",)),
    "mdp.vi_mb_per_sweep": (
        "MB", ("mdp.vi", "mdp.enumeration", "mdp.kernel")
    ),
    "mdp.audit_s": ("s", ("mdp.audit",)),
    "mdp.audit_states": ("count", ("mdp.audit",)),
    "mdp.audit_violations": ("count", ("mdp.audit",)),
    "coupling.seeds": ("count", ("coupling.run",)),
    "coupling.run_us_p50": ("us", ("coupling.run",)),
    "coupling.run_us_tail": ("us", ("coupling.run",)),
    "coupling.run_us_tail_pct": ("%", ("coupling.run",)),
    "coupling.check_us": ("us", ("coupling.check",)),
    "coupling.slots_per_seed": ("count", ("coupling.run",)),
    "coupling.uncoupled": ("count", ("coupling.run",)),
    "coupling.pattern_failures": ("count", ("coupling.check",)),
    "cli.self_s": ("s", ("cli.cmd",)),
    "trace.wall_s": ("s", ()),
    "trace.untraced_wall_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
    "trace.accounted_frac": ("ratio", ()),
}


def layer_metrics(data: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from a Tracer.dump(); a metric whose wrapped
    function no longer exists is reported with value None."""
    counts = data["counts"]
    steps_ev = _calls(data, "model.step@evaluator")
    step_layers = ("model.step@evaluator", "model.step@coupling")
    step_calls = sum(_calls(data, name) for name in step_layers)
    episodes = [s[4] for s in data["spans"] if s[1] == "evaluator.episode"]
    runs = [s[4] * 1e6 for s in data["spans"] if s[1] == "coupling.run"]
    ep_p50, ep_tail, ep_level = tail(episodes)
    run_p50, run_tail, run_level = tail(runs)
    seeds = _calls(data, "coupling.run")
    instances = counts.get("mdp.instances", 0)
    sweeps = counts.get("mdp.vi_sweeps", 0)
    accounted = sum(stat[2] for stat in data["stats"].values())
    values = {
        "evaluator.cells": _calls(data, "evaluator.aggregate"),
        "evaluator.episodes": _calls(data, "evaluator.episode"),
        "evaluator.slots": steps_ev,
        "evaluator.episode_s_p50": ep_p50,
        "evaluator.episode_s_tail": ep_tail,
        "evaluator.episode_s_tail_pct": ep_level,
        "evaluator.loop_us_per_slot": _per(
            _self(data, "evaluator.episode"), steps_ev, 1e6
        ),
        "evaluator.arrivals_us_per_slot": _per(
            _total(data, "evaluator.arrivals"), steps_ev, 1e6
        ),
        "evaluator.aggregate_ms_per_cell": _per(
            _total(data, "evaluator.aggregate"),
            _calls(data, "evaluator.aggregate"),
            1e3,
        ),
        "policies.dwell_s": _total(data, "policies.dwell"),
        "policies.dwell_calls": _calls(data, "policies.dwell"),
        "model.step_us": _per(
            sum(_self(data, name) for name in step_layers), step_calls, 1e6
        ),
        "model.step_calls": step_calls,
        "model.is_feasible_us": _per(
            _self(data, "model.is_feasible"),
            _calls(data, "model.is_feasible"),
            1e6,
        ),
        "model.is_feasible_calls": _calls(data, "model.is_feasible"),
        "model.infeasible": sum(
            data["errors"].get(name, {}).get("InfeasibleActionError", 0)
            for name in step_layers
        ),
        "model.sample_arrivals_us": _per(
            _self(data, "model.sample_arrivals"),
            _calls(data, "model.sample_arrivals"),
            1e6,
        ),
        "model.sample_arrivals_calls": _calls(data, "model.sample_arrivals"),
        "mdp.instances": instances,
        "mdp.build_s": _total(data, "mdp.build"),
        "mdp.build_s_per_instance": _per(_total(data, "mdp.build"), instances),
        "mdp.states": counts.get("mdp.states", 0),
        "mdp.state_actions": counts.get("mdp.state_actions", 0),
        "mdp.transitions": counts.get("mdp.transitions", 0),
        "mdp.kernel_mb": counts.get("mdp.kernel_mb", 0.0),
        "mdp.vi_s": _total(data, "mdp.vi"),
        "mdp.vi_sweeps": sweeps,
        "mdp.vi_ms_per_sweep": _per(_total(data, "mdp.vi"), sweeps, 1e3),
        "mdp.vi_mb_per_sweep": _per(counts.get("mdp.vi_bytes", 0), sweeps)
        / 2**20,
        "mdp.audit_s": _total(data, "mdp.audit"),
        "mdp.audit_states": counts.get("mdp.audit_states", 0),
        "mdp.audit_violations": counts.get("mdp.audit_violations", 0),
        "coupling.seeds": seeds,
        "coupling.run_us_p50": run_p50,
        "coupling.run_us_tail": run_tail,
        "coupling.run_us_tail_pct": run_level,
        "coupling.check_us": _per(
            _total(data, "coupling.check"), _calls(data, "coupling.check"), 1e6
        ),
        "coupling.slots_per_seed": _per(
            counts.get("coupling.paired_slots", 0), seeds
        ),
        "coupling.uncoupled": counts.get("coupling.uncoupled", 0),
        "coupling.pattern_failures": counts.get("coupling.pattern_failures", 0),
        "cli.self_s": _self(data, "cli.cmd"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.accounted_frac": accounted / traced_wall,
    }
    for policy in ("esl", "fcfs", "cyclic"):
        layer = f"policies.{policy}.decide"
        values[f"{layer}_us"] = _per(_self(data, layer), _calls(data, layer), 1e6)
        values[f"{layer}_calls"] = _calls(data, layer)
    values["policies.fcfs.observe_us"] = _per(
        _self(data, "policies.fcfs.observe"),
        _calls(data, "policies.fcfs.observe"),
        1e6,
    )
    values["policies.fcfs.observe_calls"] = _calls(data, "policies.fcfs.observe")

    absent = data["absent"]
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = [layer for layer in needs if layer in absent]
        if missing:
            out[name] = {"value": None, "unit": unit,
                         "absent": absent[missing[0]]}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
