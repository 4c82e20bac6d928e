"""Per-layer spans recorded from outside the program.

Each traced callable is wrapped where its callers look it up: a module
global such as ``punctrl.train.forward_cached`` or an attribute of a class
such as ``PuncturingSim.step``. Nothing under ``src/`` changes. A span keeps
every call duration in memory, its self time (duration minus the time of
the spans it encloses) and, for writers, the bytes of the file written.
"""

import inspect
import importlib
import os
import time
from array import array
from statistics import median

import numpy as np

# span name -> the sites "module:attr" or "module:Class.attr" that callers use
SITES = {
    "net.forward_cached": ("punctrl.train:forward_cached",),
    "net.forward": ("punctrl.train:forward", "punctrl.estimator:forward"),
    "net.backward": ("punctrl.train:backward",),
    "net.Adam.step": ("punctrl.net:Adam.step",),
    "net.TargetPair.polyak_update": ("punctrl.net:TargetPair.polyak_update",),
    "net.NetworkParams.init": ("punctrl.net:NetworkParams.init",),
    "agents.select_action": ("punctrl.train:select_action",),
    "agents.td_components": ("punctrl.train:td_components",),
    "agents.loss_eg": ("punctrl.train:loss_eg",),
    "agents.loss_vb": ("punctrl.train:loss_vb",),
    "agents.loss_me": ("punctrl.train:loss_me",),
    "sim.PuncturingSim.step": ("punctrl.sim:PuncturingSim.step",),
    "sim.PuncturingSim.reset": ("punctrl.sim:PuncturingSim.reset",),
    "train.train": ("punctrl.cli:train",),
    "train.manual_baseline": ("punctrl.cli:manual_baseline",),
    "train.manual_action": ("punctrl.train:manual_action",),
    "train.probe_adaptation": ("punctrl.cli:probe_adaptation",),
    "train.probe_reaction": ("punctrl.cli:probe_reaction",),
    "train.save_checkpoint": ("punctrl.train:save_checkpoint",),
    "train.load_checkpoint": ("punctrl.cli:load_checkpoint",),
    "estimator.DqnScheduler.predict": ("punctrl.estimator:DqnScheduler.predict",),
    "metrics.write_csv": ("punctrl.cli:write_csv",),
    "metrics.read_csv": ("punctrl.cli:read_csv",),
    "metrics.aggregate_episodes": ("punctrl.cli:aggregate_episodes",),
    "metrics.aggregate_probes": ("punctrl.cli:aggregate_probes",),
    "svgchart.emit_linechart": ("punctrl.cli:emit_linechart",),
    "config.write_manifest": ("punctrl.cli:write_manifest",),
    "config.load_config": ("punctrl.cli:load_config",),
    "seeding.substream": ("punctrl.train:substream", "punctrl.cli:substream"),
    "cli.cmd_train": ("punctrl.cli:cmd_train",),
    "cli.cmd_baseline": ("punctrl.cli:cmd_baseline",),
    "cli.cmd_probe": ("punctrl.cli:cmd_probe",),
    "cli.cmd_report": ("punctrl.cli:cmd_report",),
}

# spans called thousands of times per pass: they also report a p99
HOT = (
    "net.forward_cached", "net.forward", "net.backward", "net.Adam.step",
    "net.TargetPair.polyak_update", "agents.select_action", "agents.td_components",
    "agents.loss_eg", "agents.loss_vb", "agents.loss_me", "sim.PuncturingSim.step",
    "train.manual_action",
)
# spans called a few times per pass: calls and median only
RARE = (
    "sim.PuncturingSim.reset", "train.save_checkpoint", "train.load_checkpoint",
    "train.probe_reaction", "metrics.write_csv", "metrics.read_csv",
    "metrics.aggregate_episodes", "metrics.aggregate_probes", "svgchart.emit_linechart",
    "config.write_manifest", "config.load_config", "seeding.substream",
    "net.NetworkParams.init",
)
# writers and the position of their path argument
WRITERS = {
    "train.save_checkpoint": 0,
    "metrics.write_csv": 1,
    "config.write_manifest": 1,
    "svgchart.emit_linechart": 1,
}
CLI_SPANS = ("cli.cmd_train", "cli.cmd_baseline", "cli.cmd_probe", "cli.cmd_report")
STEP_CONTAINERS = ("train.train", "train.manual_baseline")


class TraceError(RuntimeError):
    """A traced name is gone, or a span a workload must hit was never hit."""


class Span:
    __slots__ = ("durations", "self_ns", "bytes", "steps", "capped", "cap_reps")

    def __init__(self):
        self.durations = array("q")
        self.self_ns = 0
        self.bytes = 0
        self.steps = 0
        self.capped = 0
        self.cap_reps = 0


def _resolve(site):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise TraceError(f"traced name {site} no longer exists")
        owner = getattr(owner, part)
    name = parts[-1]
    if not hasattr(owner, name):
        raise TraceError(f"traced name {site} no longer exists")
    return owner, name


class Tracer:
    """Installs span wrappers on every site in SITES and removes them again."""

    def __init__(self):
        self.spans = {name: Span() for name in SITES}
        self.root_ns = 0
        self._stack = []
        self._saved = []
        # fail before any timing when a traced name has gone
        for sites in SITES.values():
            for site in sites:
                _resolve(site)

    def install(self) -> None:
        for name, sites in SITES.items():
            for site in sites:
                owner, attr = _resolve(site)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn):
        span = self.spans[name]
        durations = span.durations
        stack = self._stack
        clock = time.perf_counter_ns
        post = self._post_hook(name, fn)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.self_ns += dt - stack.pop()
                durations.append(dt)
                if stack:
                    stack[-1] += dt
                else:
                    self.root_ns += dt
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _post_hook(self, name, fn):
        span = self.spans[name]
        if name in WRITERS:
            index = WRITERS[name]

            def count_bytes(args, kwargs, result):
                span.bytes += os.path.getsize(args[index])

            return count_bytes
        if name in STEP_CONTAINERS:

            def count_steps(args, kwargs, result):
                span.steps += result.total_steps

            return count_steps
        if name == "train.probe_adaptation":
            signature = inspect.signature(fn)

            def count_capped(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.cap_reps += 1
                span.capped += int(result == bound.arguments["cap"])

            return count_capped
        return None

    def check_coverage(self, must_hit, must_not_hit=()) -> None:
        missed = [name for name in must_hit if not self.spans[name].durations]
        if missed:
            raise TraceError(f"spans this workload must hit recorded no calls: {missed}")
        stray = [
            name
            for prefix in must_not_hit
            for name, span in self.spans.items()
            if name.startswith(prefix) and span.durations
        ]
        if stray:
            raise TraceError(f"spans this workload must not hit recorded calls: {stray}")

    def share(self, prefixes, container) -> float:
        """Time inside spans whose names start with ``prefixes``, over the container's time."""
        inside = sum(
            sum(span.durations)
            for name, span in self.spans.items()
            if name.startswith(prefixes)
        )
        total = sum(self.spans[container].durations)
        return inside / total if total else 0.0

    def metrics(self, passes: int, traced_walls, untraced_walls, computed: dict,
                predict_rows: int) -> dict:
        """Per-layer metrics per traced pass; the stats of a span never hit read 0."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in HOT + RARE:
            span = self.spans[name]
            put(f"{name}.calls", len(span.durations) / passes, "count")
            put(f"{name}.us_p50", _percentile_us(span.durations, 50), "us")
            if name in HOT:
                # a p99 needs ten samples beyond it
                p99 = _percentile_us(span.durations, 99) if len(span.durations) >= 1000 else 0.0
                put(f"{name}.us_p99", p99, "us")
            if name in WRITERS:
                put(f"{name}.bytes", span.bytes / passes, "B")
        for name in STEP_CONTAINERS:
            span = self.spans[name]
            put(f"{name}.calls", len(span.durations) / passes, "count")
            per_step = span.self_ns / 1e3 / span.steps if span.steps else 0.0
            put(f"{name}.self_us_per_step", per_step, "us")
        adapt = self.spans["train.probe_adaptation"]
        put("train.probe_adaptation.calls", len(adapt.durations) / passes, "count")
        put("train.probe_adaptation.self_s", adapt.self_ns / 1e9 / passes, "s")
        put("train.probe_adaptation.capped_ratio",
            adapt.capped / adapt.cap_reps if adapt.cap_reps else 0.0, "ratio")
        predict = self.spans["estimator.DqnScheduler.predict"]
        put("estimator.DqnScheduler.predict.calls", len(predict.durations) / passes, "count")
        put("estimator.DqnScheduler.predict.us_p50", _percentile_us(predict.durations, 50), "us")
        put("estimator.DqnScheduler.predict.us_per_row",
            sum(predict.durations) / 1e3 / (predict_rows * len(predict.durations))
            if predict.durations else 0.0, "us")
        for name in CLI_SPANS:
            put(f"{name}.self_s", self.spans[name].self_ns / 1e9 / passes, "s")

        put("net.forward_cached.flops_computed", computed["forward_flops"], "flop")
        put("net.backward.flops_computed", computed["backward_flops"], "flop")
        put("net.Adam.step.bytes_computed", computed["adam_bytes"], "B")
        put("net.TargetPair.polyak_update.bytes_computed", computed["polyak_bytes"], "B")
        adam_us = out["net.Adam.step.us_p50"]["value"]
        put("net.Adam.step.gb_per_s", computed["adam_bytes"] / adam_us / 1e3 if adam_us else 0.0,
            "GB/s")

        put("trace.overhead_ratio", median(traced_walls) / median(untraced_walls) - 1.0, "ratio")
        covered_s = self.root_ns / 1e9
        put("trace.uncovered_share", max(0.0, 1.0 - covered_s / sum(traced_walls)), "ratio")
        return out


def _percentile_us(durations, q) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.frombuffer(durations, dtype=np.int64), q)) / 1e3
