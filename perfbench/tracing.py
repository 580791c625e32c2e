"""Per-layer trace recorded from outside qmcbounds.

``Tracer.install`` wraps each layer's public functions and rebinds the
wrapper in every ``qmcbounds`` module namespace that holds the original,
because ``cli`` and ``bounds`` bind them with ``from ... import``.  A
wrapper records one span (group, start, end, parent, round) and, after
the span has closed, counts the work the call did.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

# (group, module, function); a group's inclusive time counts only spans
# with no ancestor of the same group, so nested calls are not counted twice
LAYERS = [
    ("spectral.pseudoresolvent_norm", "spectral", "pseudoresolvent_norm"),
    ("spectral.is_irreducible", "spectral", "is_irreducible"),
    ("spectral.gap_report", "spectral", "multiplicative_gap_report"),
    ("spectral.gap_report", "spectral", "additive_gap_report"),
    ("spectral.invariant_state", "spectral", "invariant_state"),
    ("spectral.invariant_state", "spectral", "gkls_steady_state"),
    ("operators.superoperator_matrix", "operators", "superoperator_matrix"),
    ("bounds.constants", "bounds", "bernstein_constants"),
    ("bounds.constants", "bounds", "hoeffding_constants"),
    ("bounds.constants", "bounds", "counting_constants"),
    ("bounds.constants", "bounds", "time_dependent_bernstein"),
    ("bounds.constants", "bounds", "time_dependent_hoeffding"),
    ("bounds.constants", "bounds", "multitime_hoeffding"),
    ("bounds.constants", "bounds", "reducible_bound"),
    ("trajectory.dp", "trajectory", "score_distribution_dp"),
    ("trajectory.dp", "trajectory", "score_distribution_windowed"),
    ("classical", "classical", "exact_flux_tail"),
    ("classical", "classical", "flux_bernstein"),
    ("classical", "classical", "flux_hoeffding"),
    ("classical", "classical", "stationary_distribution"),
    ("classical", "classical", "is_chain_irreducible"),
    ("classical", "classical", "chain_pseudoresolvent_norm"),
    ("classical", "classical", "edge_stationary_law"),
    ("trajectory.mc", "trajectory", "mc_tail"),
    ("trajectory.sample_discrete", "trajectory", "sample_discrete"),
    ("trajectory.counting", "trajectory", "counting_counts"),
    ("trajectory.counting", "trajectory", "sample_counting"),
    ("modelfile.load_model", "modelfile", "load_model"),
    ("cli.analyze", "cli", "cmd_analyze"),
    ("cli.bound", "cli", "cmd_bound"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.simulate", "cli", "cmd_simulate"),
]

# (metric, unit, better) in the order BENCHMARK.json lists them
METRICS = [
    ("spectral.pseudoresolvent_norm.ms", "ms", "lower"),
    ("spectral.is_irreducible.calls", "count", "lower"),
    ("spectral.is_irreducible.ms", "ms", "lower"),
    ("spectral.gap_report.ms", "ms", "lower"),
    ("spectral.invariant_state.calls", "count", "lower"),
    ("spectral.invariant_state.ms", "ms", "lower"),
    ("operators.superoperator_matrix.builds_per_channel", "builds/channel", "lower"),
    ("bounds.constants.self_ms", "ms", "lower"),
    ("trajectory.dp.ms", "ms", "lower"),
    ("trajectory.dp.conjugations_per_s", "1/s", "higher"),
    ("classical.ms", "ms", "lower"),
    ("trajectory.mc.steps_per_s", "1/s", "higher"),
    ("trajectory.mc.sampled_per_needed", "ratio", "lower"),
    ("trajectory.sample_discrete.ms", "ms", "lower"),
    ("trajectory.counting.jumps_per_s", "1/s", "higher"),
    ("modelfile.load_model.ms", "ms", "lower"),
    ("cli.analyze.self_ms", "ms", "lower"),
    ("cli.bound.self_ms", "ms", "lower"),
    ("cli.verify.self_ms", "ms", "lower"),
    ("cli.simulate.self_ms", "ms", "lower"),
]


def _lattice(values) -> list[int]:
    fracs = [Fraction(float(v)).limit_denominator(10**6) for v in values]
    denom = 1
    for fr in fracs:
        denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
    return [int(fr * denom) for fr in fracs]


@functools.lru_cache(maxsize=64)
def score_dp_conjugations(nums: tuple[int, ...], n: int) -> int:
    """V T V^* products a score DP makes: k per reachable score per step."""
    lo, hi = min(0, min(nums)) * n, max(0, max(nums)) * n
    reach = np.zeros(hi - lo + 1, dtype=bool)
    reach[-lo] = True
    total = 0
    for _ in range(n):
        total += int(reach.sum()) * len(nums)
        new = np.zeros_like(reach)
        for s in nums:
            new[max(s, 0):len(reach) + min(s, 0)] |= reach[max(-s, 0):len(reach) - max(s, 0)]
        reach = new
    return total


@functools.lru_cache(maxsize=64)
def windowed_dp_conjugations(window_nums: tuple[tuple[int, ...], ...], m: int,
                             n: int) -> int:
    """Same count for the windowed DP, whose state is (last m-1 outcomes, score).

    ``window_nums[a][b]`` is the lattice payoff of the window ending in
    outcome b after history a; only m = 2 is needed here.
    """
    if m != 2:
        raise ValueError("only two-outcome windows are counted")
    k = len(window_nums)
    flat = [v for row in window_nums for v in row]
    lo, hi = min(0, min(flat)) * n, max(0, max(flat)) * n
    total = k  # the unscored first outcome: one product per label from the start state
    reach = np.zeros((k, hi - lo + 1), dtype=bool)
    reach[:, -lo] = True  # every label is a possible history, at score 0
    width = reach.shape[1]
    for _ in range(n):
        total += int(reach.sum()) * k
        new = np.zeros_like(reach)
        for a in range(k):
            for b in range(k):
                s = window_nums[a][b]
                new[b, max(s, 0):width + min(s, 0)] |= reach[a, max(-s, 0):width - max(s, 0)]
        reach = new
    return total


class Tracer:
    """Spans and work counts of one run, kept in memory."""

    def __init__(self):
        self.spans: list = []          # [group, start_ns, end_ns, parent, round]
        self.work: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, group: str, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = [group, start, end, parent, self.round]
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.work[self.round], bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        import qmcbounds  # noqa: F401  (loads every submodule)
        from qmcbounds.operators import Superoperator, observation_vector

        def builds(work, a, result):
            if not isinstance(a["mapping"], Superoperator):
                work["builds"] += 1

        def channels(work, a, result):
            if result.kind in ("kraus", "gkls"):
                work["channels"] += 1

        def score_dp(work, a, result):
            fv = observation_vector(a["f"], a["channel"].labels)
            work["conjugations"] += score_dp_conjugations(tuple(_lattice(fv)), a["n"])

        def windowed_dp(work, a, result):
            labels = a["channel"].labels
            f = a["f"]
            m = len(next(iter(f)))
            keys = [(x, y) for x in labels for y in labels]
            nums = _lattice([f[key] for key in keys])
            k = len(labels)
            rows = tuple(tuple(nums[i * k:(i + 1) * k]) for i in range(k))
            work["conjugations"] += windowed_dp_conjugations(rows, m, a["n"])

        def mc(work, a, result):
            work["mc_steps"] += a["trials"] * a["n"]
            work["sampled"] += a["trials"]

        def one_trajectory(work, a, result):
            work["sampled"] += 1

        def counting_batch(work, a, result):
            work["jumps"] += int(result.sum())
            work["sampled"] += a["trials"]

        def counting_one(work, a, result):
            work["jumps"] += len(result.events)
            work["sampled"] += 1

        counters = {
            "superoperator_matrix": builds, "load_model": channels,
            "score_distribution_dp": score_dp, "score_distribution_windowed": windowed_dp,
            "mc_tail": mc, "sample_discrete": one_trajectory,
            "counting_counts": counting_batch, "sample_counting": counting_one,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "qmcbounds" or name.startswith("qmcbounds.")]
        for group, mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"qmcbounds.{mod_name}"], fn_name)
            wrapper = self._wrap(group, original, counters.get(fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- derived metrics -----------------------------------------------------

    def _per_round(self, rounds) -> tuple[dict, dict, dict]:
        """Per round and group: inclusive ns, self ns and call counts."""
        inclusive = defaultdict(Counter)
        own = defaultdict(Counter)
        calls = defaultdict(Counter)
        child_ns = Counter()
        for span in self.spans:
            if span[3] is not None:
                child_ns[span[3]] += span[2] - span[1]
        for idx, (group, start, end, parent, rnd) in enumerate(self.spans):
            if rnd not in rounds:
                continue
            calls[rnd][group] += 1
            own[rnd][group] += (end - start) - child_ns[idx]
            ancestor = parent
            nested = False
            while ancestor is not None:
                if self.spans[ancestor][0] == group:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                inclusive[rnd][group] += end - start
        return inclusive, own, calls

    def metrics(self, rounds: list[int]) -> dict:
        inclusive, own, calls = self._per_round(rounds)

        def median_ms(table, group):
            return statistics.median(table[r][group] for r in rounds) / 1e6

        def total_s(group):
            return sum(inclusive[r][group] for r in rounds) / 1e9

        def work(name):
            return sum(self.work[r][name] for r in rounds)

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        out = {
            "spectral.pseudoresolvent_norm.ms": median_ms(inclusive, "spectral.pseudoresolvent_norm"),
            "spectral.is_irreducible.calls": statistics.median(
                calls[r]["spectral.is_irreducible"] for r in rounds),
            "spectral.is_irreducible.ms": median_ms(inclusive, "spectral.is_irreducible"),
            "spectral.gap_report.ms": median_ms(inclusive, "spectral.gap_report"),
            "spectral.invariant_state.calls": statistics.median(
                calls[r]["spectral.invariant_state"] for r in rounds),
            "spectral.invariant_state.ms": median_ms(inclusive, "spectral.invariant_state"),
            "operators.superoperator_matrix.builds_per_channel":
                rate(work("builds"), work("channels")),
            "bounds.constants.self_ms": median_ms(own, "bounds.constants"),
            "trajectory.dp.ms": median_ms(inclusive, "trajectory.dp"),
            "trajectory.dp.conjugations_per_s":
                rate(work("conjugations"), total_s("trajectory.dp")),
            "classical.ms": median_ms(inclusive, "classical"),
            "trajectory.mc.steps_per_s": rate(work("mc_steps"), total_s("trajectory.mc")),
            "trajectory.mc.sampled_per_needed": rate(work("sampled"), work("needed")),
            "trajectory.sample_discrete.ms": median_ms(inclusive, "trajectory.sample_discrete"),
            "trajectory.counting.jumps_per_s":
                rate(work("jumps"), total_s("trajectory.counting")),
            "modelfile.load_model.ms": median_ms(inclusive, "modelfile.load_model"),
        }
        for cmd in ("analyze", "bound", "verify", "simulate"):
            out[f"cli.{cmd}.self_ms"] = median_ms(own, f"cli.{cmd}")
        return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in METRICS}

    def dump(self) -> dict:
        return {"spans": self.spans, "work": {r: dict(c) for r, c in self.work.items()}}
