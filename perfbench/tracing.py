"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own code: the public functions below
are replaced, wherever a ``maxsurf`` module binds them, by a wrapper that
records (name, start, end, parent, run id); ``DiskGrid`` methods are wrapped
on the class. Profile evaluations are counted through a copy of the scenario
profile whose callables count their calls. Spans stay in memory and are
written out once the run ends. A layer is a module; its self time is its
spans minus their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute)
FUNCTIONS = {
    "config.parse_config": ("maxsurf.config", "parse_config"),
    "scenarios.build_scenario": ("maxsurf.scenarios", "build_scenario"),
    "flow.run": ("maxsurf.flow", "run"),
    "geometry.geometry": ("maxsurf.geometry", "geometry"),
    "geometry.laplace_beltrami": ("maxsurf.geometry", "laplace_beltrami"),
    "monitors.evolution_residuals": ("maxsurf.monitors", "evolution_residuals"),
    "monitors.boundary_identities": ("maxsurf.monitors", "boundary_identities"),
    "monitors.estimate_monitors": ("maxsurf.monitors", "estimate_monitors"),
    "monitors.volume_identity": ("maxsurf.monitors", "volume_identity"),
    "runner.run_scenario": ("maxsurf.runner", "run_scenario"),
    "runner.write_timeseries": ("maxsurf.runner", "write_timeseries"),
    "runner.write_profile": ("maxsurf.runner", "write_profile"),
    "runner.write_summary": ("maxsurf.runner", "write_summary"),
}
# span name -> (module, class, method)
METHODS = {
    "disk.grid_build": ("maxsurf.disk", "DiskGrid", "__init__"),
    "disk.fill_ghosts": ("maxsurf.disk", "DiskGrid", "fill_ghosts"),
    "disk.rim_values": ("maxsurf.disk", "DiskGrid", "rim_values"),
    "disk.radial_derivative_at_rim": ("maxsurf.disk", "DiskGrid", "radial_derivative_at_rim"),
}
SAMPLES_PER_RUN = 4     # snapshot states per flow.run kept for the step/record replay
REPLAY_REPS = 5

# per-layer metric -> unit; the order is the report order
UNITS = {
    "config.parse_s": "s", "scenarios.build_s": "s", "disk.grid_build_s": "s",
    "flow.steps": "count", "flow.run_s": "s", "flow.us_per_step": "us",
    "flow.step_us": "us", "flow.record_us": "us",
    "flow.snapshots": "count", "flow.snapshot_bytes": "bytes",
    "disk.fill_ghosts_calls": "count", "disk.fill_ghosts_us": "us",
    "disk.rim_sampler_calls": "count", "disk.rim_sampler_us": "us",
    "profiles.evals_per_step": "evals/step",
    "geometry.calls": "count", "geometry.us": "us",
    "geometry.laplace_beltrami_calls": "count", "monitors.triples": "count",
    "monitors.evolution_residuals_s": "s", "monitors.boundary_identities_s": "s",
    "monitors.estimate_monitors_s": "s", "monitors.volume_identity_s": "s",
    "runner.write_timeseries_s": "s", "runner.timeseries_rows": "count",
    "runner.timeseries_bytes": "bytes",
    "runner.write_profile_s": "s", "runner.write_summary_s": "s",
}
# metric -> the span names it is made from; a metric is absent when none was wrapped
SOURCES = {
    "config.parse_s": ["config.parse_config"],
    "scenarios.build_s": ["scenarios.build_scenario"],
    "disk.grid_build_s": ["disk.grid_build"],
    "flow.steps": ["flow.run"], "flow.run_s": ["flow.run"], "flow.us_per_step": ["flow.run"],
    "flow.snapshots": ["flow.run"], "flow.snapshot_bytes": ["flow.run"],
    "profiles.evals_per_step": ["flow.run", "scenarios.build_scenario"],
    "disk.fill_ghosts_calls": ["disk.fill_ghosts"], "disk.fill_ghosts_us": ["disk.fill_ghosts"],
    "disk.rim_sampler_calls": ["disk.rim_values", "disk.radial_derivative_at_rim"],
    "disk.rim_sampler_us": ["disk.rim_values", "disk.radial_derivative_at_rim"],
    "geometry.calls": ["geometry.geometry"], "geometry.us": ["geometry.geometry"],
    "geometry.laplace_beltrami_calls": ["geometry.laplace_beltrami"],
    "monitors.triples": ["monitors.evolution_residuals"],
    "monitors.evolution_residuals_s": ["monitors.evolution_residuals"],
    "monitors.boundary_identities_s": ["monitors.boundary_identities"],
    "monitors.estimate_monitors_s": ["monitors.estimate_monitors"],
    "monitors.volume_identity_s": ["monitors.volume_identity"],
    "runner.write_timeseries_s": ["runner.write_timeseries"],
    "runner.timeseries_rows": ["runner.write_timeseries"],
    "runner.write_profile_s": ["runner.write_profile"],
    "runner.write_summary_s": ["runner.write_summary"],
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, run id, profile evals at start, at end]
        self.spans = []
        self.stack = []
        self.evals = 0
        self.missing = {}
        self.stats = defaultdict(int)
        self.samples = []           # (state, ctrl, profile) replayed after the run
        self._undo = []
        self._hooks = {
            "scenarios.build_scenario": self._after_build,
            "flow.run": self._after_run,
            "monitors.evolution_residuals": self._after_residuals,
            "runner.write_timeseries": self._after_write_timeseries,
        }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self.stack, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            run_id = spans[stack[0]][4] if stack else idx
            span = [name, 0.0, 0.0, parent, run_id, self.evals, 0]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = t0
                span[6] = self.evals
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "maxsurf" or n.startswith("maxsurf."))]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if not callable(orig):
                self.missing[name] = f"{modname}.{attr} does not exist"
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for name, (modname, clsname, meth) in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if not callable(orig):
                self.missing[name] = f"{modname}.{clsname}.{meth} does not exist"
                continue
            setattr(cls, meth, self._wrap(name, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- result hooks (run outside the span that produced the result) ----------

    def _counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.evals += 1
            return fn(*args, **kwargs)
        return counted

    def _after_build(self, args, kwargs, scenario):
        profile = scenario.profile
        if dataclasses.is_dataclass(profile):
            scenario.profile = dataclasses.replace(profile, **{
                f.name: self._counting(getattr(profile, f.name))
                for f in dataclasses.fields(profile) if callable(getattr(profile, f.name))})

    def _after_run(self, args, kwargs, traj):
        self.stats["steps"] += int(traj.records.shape[0] - 1)
        self.stats["snapshots"] += len(traj.states)
        self.stats["snapshot_bytes"] += sum(int(s.u.nbytes) for s in traj.states)
        ctrl = args[1] if len(args) > 1 else kwargs["ctrl"]
        profile = args[2] if len(args) > 2 else kwargs["profile"]
        candidates = traj.states[:-1] or traj.states
        pick = max(1, len(candidates) // SAMPLES_PER_RUN)
        for s in candidates[::pick][:SAMPLES_PER_RUN]:
            self.samples.append((s.copy(), ctrl, profile))

    def _after_residuals(self, args, kwargs, result):
        self.stats["triples"] += int(result.get("triples", 0))

    def _after_write_timeseries(self, args, kwargs, result):
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        self.stats["timeseries_rows"] += int(traj.records.shape[0])

    # -- replay of the public step and record on sampled states ------------------

    def replay(self):
        """Median microseconds of one ``step`` and one ``record_state`` call."""
        flow = sys.modules["maxsurf.flow"]
        fns = {"step": getattr(flow, "step", None), "record": getattr(flow, "record_state", None)}
        out = {}
        for key, fn in fns.items():
            if fn is None:
                continue
            per_state = []
            for state, ctrl, profile in self.samples:
                reps = []
                try:
                    for _ in range(REPLAY_REPS):
                        t0 = time.perf_counter()
                        fn(state, ctrl, profile)
                        reps.append(time.perf_counter() - t0)
                except Exception:   # e.g. a state at t_end has no step left
                    continue
                per_state.append(statistics.median(reps))
            if per_state:
                out[key] = 1e6 * statistics.median(per_state)
        return out

    # -- reduction ---------------------------------------------------------------

    def durations(self):
        by_name = defaultdict(list)
        for name, t0, t1, *_ in self.spans:
            by_name[name].append(t1 - t0)
        return by_name

    def self_times(self):
        """Seconds per layer (module) with the time of child spans removed."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, *_) in enumerate(self.spans):
            out[name.split(".")[0]] += (t1 - t0) - child[k]
        return dict(out)

    def metrics(self, out_root):
        """Every per-layer metric, plus {metric: reason} for the absent ones."""
        d = self.durations()
        total = lambda *names: sum(sum(d[n]) for n in names)
        calls = lambda *names: sum(len(d[n]) for n in names)
        mean_us = lambda *names: 1e6 * total(*names) / calls(*names) if calls(*names) else 0.0
        steps = self.stats["steps"]
        run_s = total("flow.run")
        evals = sum(s[6] - s[5] for s in self.spans if s[0] == "flow.run")
        replayed = self.replay()
        values = {
            "config.parse_s": total("config.parse_config"),
            "scenarios.build_s": total("scenarios.build_scenario"),
            "disk.grid_build_s": total("disk.grid_build"),
            "flow.steps": steps,
            "flow.run_s": run_s,
            "flow.us_per_step": 1e6 * run_s / steps if steps else 0.0,
            "flow.step_us": replayed.get("step", 0.0),
            "flow.record_us": replayed.get("record", 0.0),
            "flow.snapshots": self.stats["snapshots"],
            "flow.snapshot_bytes": self.stats["snapshot_bytes"],
            "disk.fill_ghosts_calls": calls("disk.fill_ghosts"),
            "disk.fill_ghosts_us": mean_us("disk.fill_ghosts"),
            "disk.rim_sampler_calls": calls("disk.rim_values", "disk.radial_derivative_at_rim"),
            "disk.rim_sampler_us": mean_us("disk.rim_values", "disk.radial_derivative_at_rim"),
            "profiles.evals_per_step": evals / steps if steps else 0.0,
            "geometry.calls": calls("geometry.geometry"),
            "geometry.us": mean_us("geometry.geometry"),
            "geometry.laplace_beltrami_calls": calls("geometry.laplace_beltrami"),
            "monitors.triples": self.stats["triples"],
            "monitors.evolution_residuals_s": total("monitors.evolution_residuals"),
            "monitors.boundary_identities_s": total("monitors.boundary_identities"),
            "monitors.estimate_monitors_s": total("monitors.estimate_monitors"),
            "monitors.volume_identity_s": total("monitors.volume_identity"),
            "runner.write_timeseries_s": total("runner.write_timeseries"),
            "runner.timeseries_rows": self.stats["timeseries_rows"],
            "runner.timeseries_bytes": _file_bytes(out_root, "timeseries.csv"),
            "runner.write_profile_s": total("runner.write_profile"),
            "runner.write_summary_s": total("runner.write_summary"),
        }
        absent = {}
        for metric, names in SOURCES.items():
            gone = [self.missing[n] for n in names if n in self.missing]
            if gone:
                absent[metric] = "; ".join(gone)
            elif calls(*names) == 0:
                absent[metric] = "not called on this workload"
        if "step" not in replayed:
            absent["flow.step_us"] = "no snapshot state could be replayed with flow.step"
        if "record" not in replayed:
            absent["flow.record_us"] = "no snapshot state could be replayed with flow.record_state"
        if "runner.timeseries_rows" in absent:
            absent["runner.timeseries_bytes"] = absent["runner.timeseries_rows"]
        return values, absent

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "run_id"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}, f)


def _file_bytes(root, filename):
    total = 0
    for dirpath, _, files in os.walk(root):
        if filename in files:
            total += os.path.getsize(os.path.join(dirpath, filename))
    return total
