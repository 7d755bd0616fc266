"""Spans around the public entry point of each dgbo layer, for the traced run.

``ENTRY_POINTS`` is the one table of what is traced. ``Tracer.install``
replaces each entry point's function object everywhere a loaded ``dgbo.*``
module (or a class in one) binds it, so callers that imported the name
directly are caught too; ``uninstall`` puts the originals back. Nothing in
``src/`` is edited. An entry point that does not exist is recorded in
``Tracer.missing`` and its metrics are left out, not faked.

A span is ``[name, start, end, parent index, operation id]``. Spans are kept
in memory; the caller writes them out when the run ends. A span's self time
is its duration minus the durations of its direct children.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


def _matrix_mib(counters, result):
    counters["linearized.matrix_mb"] = max(
        counters["linearized.matrix_mb"], result.matrix.nbytes / 2**20)


def _gs_iters(counters, result):
    counters["ground_state.iters"] += result.iterations


def _newton_iters(counters, result):
    counters["modulation.decompose.ok"] += 1
    counters["modulation.decompose.newton_iters"] += result.iterations


# (span name, module, attribute path, hook on the returned value)
ENTRY_POINTS = (
    ("spectral.resample_scaled", "dgbo.spectral", "Grid.resample_scaled", None),
    ("dynamics.step", "dgbo.dynamics", "Stepper.step_spectrum", None),
    ("dynamics.stepper_init", "dgbo.dynamics", "Stepper.__init__", None),
    ("dynamics.evolve", "dgbo.dynamics", "evolve", None),
    ("ground_state.solve", "dgbo.ground_state", "solve_ground_state", _gs_iters),
    ("linearized.assemble", "dgbo.linearized", "assemble", _matrix_mib),
    ("linearized.spectrum", "dgbo.linearized", "spectrum", None),
    ("linearized.coercivity", "dgbo.linearized", "coercivity_probe", None),
    ("linearized.flow", "dgbo.linearized", "evolve_linearized", None),
    ("modulation.decompose", "dgbo.modulation", "decompose", _newton_iters),
    ("modulation.track", "dgbo.modulation", "track", None),
    ("monotonicity.check", "dgbo.monotonicity", "check_right_monotonicity", None),
    ("monotonicity.check", "dgbo.monotonicity", "check_left_monotonicity", None),
    ("monotonicity.check", "dgbo.monotonicity", "check_eta_monotonicity", None),
    ("monotonicity.calibrate", "dgbo.monotonicity", "calibrate_budget", None),
    ("monotonicity.calibrate", "dgbo.monotonicity", "calibrate_eta_budget", None),
    ("artifacts.write", "dgbo.artifacts", "write_json", None),
    ("artifacts.write", "dgbo.artifacts", "write_field", None),
    ("artifacts.write", "dgbo.artifacts", "write_ground_state", None),
    ("artifacts.write", "dgbo.artifacts", "write_run", None),
    ("artifacts.write", "dgbo.artifacts", "write_spectrum", None),
    ("artifacts.write", "dgbo.artifacts", "write_track", None),
    ("artifacts.write", "dgbo.artifacts", "write_monotonicity", None),
    ("artifacts.write", "dgbo.artifacts", "write_plot_script", None),
    ("artifacts.read", "dgbo.artifacts", "read_json", None),
    ("artifacts.read", "dgbo.artifacts", "read_field", None),
    ("artifacts.read", "dgbo.artifacts", "read_ground_state", None),
    ("artifacts.read", "dgbo.artifacts", "read_run", None),
    ("artifacts.read", "dgbo.artifacts", "read_chi0", None),
    ("cli.ground_state", "dgbo.cli", "_cmd_ground_state", None),
    ("cli.spectrum", "dgbo.cli", "_cmd_spectrum", None),
    ("cli.evolve", "dgbo.cli", "_cmd_evolve", None),
    ("cli.modulate", "dgbo.cli", "_cmd_modulate", None),
    ("cli.monotonicity", "dgbo.cli", "_cmd_monotonicity", None),
    ("cli.liouville_probe", "dgbo.cli", "_cmd_liouville_probe", None),
    ("cli.blowup_scan", "dgbo.cli", "blowup_scan", None),
)

def _calls(s, c):
    return int(s["calls"])


def _self_s(s, c):
    return s["self_s"]


def _incl(s, c):
    return s["s"]


# per-layer metrics: (name, span whose entry points they need, value from that
# span's statistics and the pass's counters); their units are in BENCHMARK.json
LAYER_METRICS = (
    ("spectral.resample_scaled.calls", "spectral.resample_scaled", _calls),
    ("spectral.resample_scaled.self_s", "spectral.resample_scaled", _self_s),
    ("dynamics.step.calls", "dynamics.step", _calls),
    ("dynamics.step.self_s", "dynamics.step", _self_s),
    ("dynamics.step.us_per_call", "dynamics.step",
     lambda s, c: 1e6 * s["self_s"] / s["calls"] if s["calls"] else 0.0),
    ("dynamics.stepper_init.s", "dynamics.stepper_init", _incl),
    ("dynamics.evolve.calls", "dynamics.evolve", _calls),
    ("dynamics.evolve.self_s", "dynamics.evolve", _self_s),
    ("ground_state.solve.calls", "ground_state.solve", _calls),
    ("ground_state.solve.self_s", "ground_state.solve", _self_s),
    ("ground_state.iters", "ground_state.solve", lambda s, c: int(c["ground_state.iters"])),
    ("ground_state.ms_per_iter", "ground_state.solve",
     lambda s, c: 1e3 * s["s"] / c["ground_state.iters"] if c["ground_state.iters"] else 0.0),
    ("linearized.assemble.s", "linearized.assemble", _incl),
    ("linearized.spectrum.s", "linearized.spectrum", _incl),
    ("linearized.coercivity.s", "linearized.coercivity", _incl),
    ("linearized.matrix_mb", "linearized.assemble", lambda s, c: c["linearized.matrix_mb"]),
    ("linearized.flow.calls", "linearized.flow", _calls),
    ("linearized.flow.s", "linearized.flow", _incl),
    ("modulation.decompose.calls", "modulation.decompose", _calls),
    ("modulation.decompose.self_s", "modulation.decompose", _self_s),
    ("modulation.decompose.newton_iters", "modulation.decompose",
     lambda s, c: int(c["modulation.decompose.newton_iters"])),
    ("modulation.decompose.ok_ratio", "modulation.decompose",
     lambda s, c: c["modulation.decompose.ok"] / s["calls"] if s["calls"] else 0.0),
    ("modulation.track.s", "modulation.track", _incl),
    ("monotonicity.check.calls", "monotonicity.check", _calls),
    ("monotonicity.check.s", "monotonicity.check", _incl),
    ("monotonicity.calibrate.s", "monotonicity.calibrate", _incl),
    ("artifacts.write.s", "artifacts.write", _incl),
    ("artifacts.read.s", "artifacts.read", _incl),
    ("cli.ground_state.s", "cli.ground_state", _incl),
    ("cli.spectrum.s", "cli.spectrum", _incl),
    ("cli.evolve.s", "cli.evolve", _incl),
    ("cli.modulate.s", "cli.modulate", _incl),
    ("cli.monotonicity.s", "cli.monotonicity", _incl),
    ("cli.liouville_probe.s", "cli.liouville_probe", _incl),
    ("cli.blowup_scan.s", "cli.blowup_scan", _incl),
)

def _resolve(module_name, path):
    """The entry point's function, or None when it is gone."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op = 0
        self.missing = []
        self.missing_spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return traced

    def install(self):
        self.missing = []
        resolved = []
        for name, module_name, path, hook in ENTRY_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
            else:
                resolved.append((name, found, hook))
        # span names none of whose entry points exist
        self.missing_spans = sorted({e[0] for e in ENTRY_POINTS} - {r[0] for r in resolved})
        owners = _bindings()
        for name, original, hook in resolved:
            traced = self._wrap(name, original, hook)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def begin(self, op):
        """Start operation ``op``: fresh counters; returns its first span index."""
        self.op = op
        self.counters = defaultdict(float)
        return len(self.spans)


def _bindings():
    """Every loaded dgbo module and every class defined in one."""
    owners = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dgbo" or mod_name.startswith("dgbo.")):
            continue
        owners.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("dgbo"):
                owners.append(value)
    # a class bound in several modules is one owner
    return list({id(o): o for o in owners}.values())


def span_stats(spans, first=0):
    """Per span name over spans[first:]: calls, outermost inclusive seconds, self seconds.

    Parent indices are positions in the whole ``spans`` list.
    """
    dur = {i: spans[i][2] - spans[i][1] for i in range(first, len(spans))}
    self_s = dict(dur)
    for i in dur:
        if spans[i][3] >= first:
            self_s[spans[i][3]] -= dur[i]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i in dur:
        name = spans[i][0]
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += self_s[i]
        # inclusive time counts only spans with no ancestor of the same name
        p = spans[i][3]
        while p >= first and spans[p][0] != name:
            p = spans[p][3]
        if p < first:
            st["s"] += dur[i]
    return stats


def layer_metrics(spans, counters, first=0, missing_spans=()):
    """LAYER_METRICS of the pass traced in spans[first:] with its counters.

    Metrics whose span has no entry point left are omitted.
    """
    st = span_stats(spans, first)
    return {name: value(st[span], counters) for name, span, value in LAYER_METRICS
            if span not in missing_spans}
