"""Outside-in span tracer for cellbeam's public callables.

The tracer replaces each traced callable at every place the program looks
it up: the class attribute for methods (including every agent subclass
that overrides ``act``, ``observe`` or ``train_step``) and every cellbeam
module attribute that holds the function, since ``from x import f`` copies
the name into the importing module.  Each call records one span (name,
start, end, parent span) in compact arrays kept in memory; per-callable
calls, busy time and self time are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Every span name a traced run reports.  ``Mlp.forward`` is split by batch
# size at call time: ``.b1`` for a single state, ``.bN`` for a minibatch.
FORWARD_B1 = "neuralnet.Mlp.forward.b1"
FORWARD_BN = "neuralnet.Mlp.forward.bN"
SPAN_NAMES = (
    FORWARD_B1, FORWARD_BN, "neuralnet.Mlp.backward", "neuralnet.AdamOptimizer.step",
    "neuralnet.soft_update", "neuralnet.Mlp.save",
    "agents.train_step", "agents.replay.sample", "agents.replay.push", "agents.act",
    "agents.observe", "agents.run_episode", "agents.make_agent",
    "environment.step", "environment.reset",
    "channel.draw_channels", "channel.step_mobility", "channel.compute_sinr",
    "channel.init_topology", "beamcode.steering_matrix",
    "harness.run_cell", "harness.build_env",
    "metrics.write_episode_csv", "metrics.write_json_summary", "metrics.write_summary_csv",
    "metrics.write_ccdf_csv", "metrics.ccdf",
)

# Extra counters recorded at the same boundaries as the spans.
FLOPS = "neuralnet.Mlp.forward.flops"
STEER_BYTES = "beamcode.steering_matrix.bytes"
USEFUL_TRAIN = "agents.train_step.useful"
ABORTED_STEPS = "environment.aborted_steps"


class Tracer:
    """Records nested spans around patched callables; one per traced run."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")   # 1 when no span of the same name encloses it
        self.counts = Counter()
        self._stack = [-1]
        self._depth = [0] * len(SPAN_NAMES)
        self._undo = []
        self._functions = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        ids, stack, depth = self._ids, self._stack, self._depth
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        outermost, clock = self.outermost, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = ids[name_of(args)]
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            outermost.append(depth[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, name, after=None):
        fn = cls.__dict__[attr]
        name_of = name if callable(name) else (lambda args, _n=name: _n)
        self._set(cls, attr, self._wrap(fn, name_of, after))

    def patch_function(self, fn, name, after=None):
        """Replace ``fn`` in every loaded cellbeam module that holds it."""
        traced = self._wrap(fn, lambda args, _n=name: _n, after)
        self._functions.append(fn)
        for mod in _cellbeam_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def missed_sites(self) -> list:
        """Loaded cellbeam module names that still hold an untraced function.

        Empty while the tracer is installed; a name listed here is a lookup
        site whose calls would go unrecorded.
        """
        return [f"{mod.__name__}.{attr}" for mod in _cellbeam_modules()
                for attr, value in vars(mod).items()
                if any(value is fn for fn in self._functions)]

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_times(self) -> dict:
        """{span name: (calls, busy_s, self_s)} for every span name.

        busy_s sums the outermost spans of a name, so a recursive or
        delegating call (h-DDPG's act calling its controller's act) is not
        counted twice; self_s subtracts the time covered by child spans.
        """
        n = len(self.name_ids)
        ids = np.frombuffer(self.name_ids, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.ends, dtype=np.float64, count=n)
               - np.frombuffer(self.starts, dtype=np.float64, count=n))
        outer = np.frombuffer(self.outermost, dtype=np.int8, count=n).astype(bool)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {name: (int(calls[i]), float(busy[i]), float(self_s[i]))
                for i, name in enumerate(SPAN_NAMES)}

    def spans(self) -> dict:
        """All spans as arrays, for writing out after the run."""
        n = len(self.name_ids)
        return {"names": np.array(SPAN_NAMES),
                "name_id": np.frombuffer(self.name_ids, dtype=np.int32, count=n).copy(),
                "parent": np.frombuffer(self.parents, dtype=np.int64, count=n).copy(),
                "start": np.frombuffer(self.starts, dtype=np.float64, count=n).copy(),
                "end": np.frombuffer(self.ends, dtype=np.float64, count=n).copy()}


def _cellbeam_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "cellbeam" or name.startswith("cellbeam.")]


def _matmul_flops(widths) -> int:
    return 2 * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def install(tracer: Tracer) -> None:
    """Patch every traced callable at each of its lookup sites."""
    from cellbeam import agents, beamcode, channel, environment, harness, metrics, neuralnet
    from cellbeam.agents.common import BaseAgent, ReplayBuffer

    counts = tracer.counts

    def forward_name(args):
        x = args[1]
        return FORWARD_B1 if np.ndim(x) == 1 or len(x) == 1 else FORWARD_BN

    def count_forward(args, result):
        # multiply-adds of the dense layers, two flops each; tanh and bias
        # adds are left out
        x = args[1]
        batch = 1 if np.ndim(x) == 1 else len(x)
        counts[FLOPS] += batch * _matmul_flops(args[0].widths)

    def count_steer_bytes(args, result):
        counts[STEER_BYTES] += result.nbytes

    def count_useful(args, result):
        if result is not None:
            counts[USEFUL_TRAIN] += 1

    def count_abort(args, result):
        if result.info["aborted"]:
            counts[ABORTED_STEPS] += 1

    tracer.patch_method(neuralnet.Mlp, "forward", forward_name, count_forward)
    tracer.patch_method(neuralnet.Mlp, "backward", "neuralnet.Mlp.backward")
    tracer.patch_method(neuralnet.Mlp, "save", "neuralnet.Mlp.save")
    tracer.patch_method(neuralnet.AdamOptimizer, "step", "neuralnet.AdamOptimizer.step")
    tracer.patch_method(ReplayBuffer, "sample", "agents.replay.sample")
    tracer.patch_method(ReplayBuffer, "push", "agents.replay.push")
    tracer.patch_method(environment.DownlinkEnv, "step", "environment.step", count_abort)
    tracer.patch_method(environment.DownlinkEnv, "reset", "environment.reset")

    for cls in _subclasses(BaseAgent):
        for attr, after in (("act", None), ("observe", None), ("train_step", count_useful),
                            ("run_episode", None)):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, f"agents.{attr}", after)

    functions = (
        (neuralnet.soft_update, "neuralnet.soft_update", None),
        (agents.make_agent, "agents.make_agent", None),
        (channel.draw_channels, "channel.draw_channels", None),
        (channel.step_mobility, "channel.step_mobility", None),
        (channel.compute_sinr, "channel.compute_sinr", None),
        (channel.init_topology, "channel.init_topology", None),
        (beamcode.steering_matrix, "beamcode.steering_matrix", count_steer_bytes),
        (harness.run_cell, "harness.run_cell", None),
        (harness.build_env, "harness.build_env", None),
        (metrics.write_episode_csv, "metrics.write_episode_csv", None),
        (metrics.write_json_summary, "metrics.write_json_summary", None),
        (metrics.write_summary_csv, "metrics.write_summary_csv", None),
        (metrics.write_ccdf_csv, "metrics.write_ccdf_csv", None),
        (metrics.ccdf, "metrics.ccdf", None),
    )
    for fn, name, after in functions:
        tracer.patch_function(fn, name, after)
