"""Spans around the public entry points of curved_rs, recorded from outside.

The package binds many functions by name (``from .spin_frame import
gamma_set_at`` in several modules), so a wrapper installed on one module
would miss the others.  ``Tracer`` therefore replaces the original function
at every binding site it finds in the loaded ``curved_rs`` modules, and puts
the originals back on ``uninstall``.

Each span records its name, parent span (same thread), operation id, start
and end, plus the thread CPU time it used.  Spans live in per-thread
``array`` buffers, so worker threads of the package never contend, and are
written out once at the end.  A span's self time is its CPU time minus that
of its direct children: the package checks points on worker threads, and
their wall-clock spans would also count the time spent waiting for the
interpreter lock.  Recursive calls inside ``exprparse.evaluate`` fold into
the outermost span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

#: (module, attribute) -> span name; ``fields.FieldSampler.__call__`` is
#: patched on the class, which is its only binding site
TARGETS = {
    ("fields", "FieldSampler.__call__"): "fields.sampler",
    ("numerics", "partial4"): "numerics.partial4",
    ("geometry", "eval_metric"): "geometry.eval_metric",
    ("geometry", "christoffel"): "geometry.christoffel",
    ("geometry", "curvature"): "geometry.curvature",
    ("exprparse", "evaluate"): "exprparse.evaluate",
    ("spin_frame", "gamma_set_at"): "spin_frame.gamma_set_at",
    ("spin_frame", "spin_connection"): "spin_frame.spin_connection",
    ("rs_operator", "covariant_derivative"): "rs_operator.covariant_derivative",
    ("rs_operator", "rs_residual"): "rs_operator.rs_residual",
    ("rs_operator", "build_alpha_beta"): "rs_operator.build_alpha_beta",
    ("rs_operator", "transform_CS"): "rs_operator.transform_CS",
    ("rs_operator", "tilde_closed_form"): "rs_operator.tilde_closed_form",
    ("gauge", "gauge_criterion"): "gauge.gauge_criterion",
    ("gauge", "massless_residual"): "gauge.massless_residual",
    ("spacetimes", "load_preset"): "spacetimes.load_preset",
    ("spacetimes", "parse_metric_config"): "spacetimes.parse_metric_config",
    ("spacetimes", "spec_from_config"): "spacetimes.spec_from_config",
    ("identity_suite", "run_suite"): "identity_suite.run_suite",
    ("cli", "main"): "cli.main",
}
FOLDED = {"exprparse.evaluate"}
#: entry points whose returned MetricSpec gets counting wrappers
SPEC_BUILDERS = {"spacetimes.load_preset", "spacetimes.spec_from_config"}
COUNTERS = ("geometry.metric_evals", "geometry.guard_calls")


class _ThreadBuffer:
    __slots__ = ("name", "parent", "op", "start", "end", "cpu", "stack",
                 "counts", "folding")

    def __init__(self):
        self.name = array("h")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.stack = []
        self.counts = {}
        self.folding = False


class Tracer:
    """Installs span wrappers at every binding site of ``TARGETS``."""

    def __init__(self):
        self.names = list(TARGETS.values())
        self.active = False
        self.op = -1
        self._buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sites = []  # (namespace, key, original, wrapper)
        self._resolve_sites()

    # -- installation -------------------------------------------------------

    def _resolve_sites(self):
        package = {
            name: mod for name, mod in sys.modules.items()
            if (name == "curved_rs" or name.startswith("curved_rs."))
            and mod is not None
        }
        for name_id, ((module, attr), span) in enumerate(TARGETS.items()):
            owner = package[f"curved_rs.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._sites.append((cls, meth, original,
                                    self._wrap(original, name_id, span)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name_id, span)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def binding_sites(self) -> dict:
        """span name -> list of 'module.attribute' sites patched."""
        out = {}
        for ns, key, original, wrapper in self._sites:
            span = wrapper.span_name
            out.setdefault(span, []).append(f"{ns.__name__}.{key}")
        return out

    def install(self):
        for ns, key, _, wrapper in self._sites:
            setattr(ns, key, wrapper)
        self.active = True

    def uninstall(self):
        self.active = False
        for ns, key, original, _ in self._sites:
            setattr(ns, key, original)

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name_id, span):
        clock = time.perf_counter
        cpu_clock = time.thread_time
        tracer = self
        folded = span in FOLDED
        builds_spec = span in SPEC_BUILDERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            if folded:
                if buf.folding:
                    return fn(*args, **kwargs)
                buf.folding = True
            idx = len(buf.name)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.op.append(tracer.op)
            buf.end.append(0.0)
            buf.cpu.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            cpu0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.cpu[idx] = cpu_clock() - cpu0
                buf.end[idx] = clock()
                buf.stack.pop()
                if folded:
                    buf.folding = False
            if builds_spec:
                tracer.count_spec(result)
            return result

        wrapper.span_name = span
        return wrapper

    def count_spec(self, spec):
        """Count the spec's metric evaluations and domain-guard calls while
        tracing is on and an operation is running."""
        for attr, counter in (("component_fn", COUNTERS[0]),
                              ("domain_guard", COUNTERS[1])):
            setattr(spec, attr, self._counting(getattr(spec, attr), counter))

    def _counting(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer.op >= 0:
                counts = tracer._buffer().counts
                counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as arrays; parent ids index the same arrays."""
        parts = {k: [] for k in ("name", "parent", "op", "thread", "start",
                                 "end", "cpu")}
        offset = 0
        for t, buf in enumerate(self._buffers):
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int16)[:n])
            parts["parent"].append(parent)
            parts["op"].append(np.frombuffer(buf.op, dtype=np.int64)[:n])
            parts["thread"].append(np.full(n, t, dtype=np.int32))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64)[:n])
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:n])
            parts["cpu"].append(np.frombuffer(buf.cpu, dtype=np.float64)[:n])
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in parts.items()}

    def counts(self) -> dict:
        total = dict.fromkeys(COUNTERS, 0)
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] += value
        return total

    def layer_totals(self, spans: dict, ops=None) -> dict:
        """span name -> (calls, inclusive wall seconds, self CPU seconds)
        over the spans of the given operation ids (default: all spans)."""
        dur = spans["end"] - spans["start"]
        cpu = spans["cpu"]
        child = np.zeros(len(cpu))
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], cpu[has_parent])
        if ops is None:
            selected = np.ones(len(cpu), dtype=bool)
        else:
            selected = np.isin(spans["op"], np.asarray(ops, dtype=np.int64))
        n = len(self.names)
        name = spans["name"].astype(np.int64)
        calls = np.bincount(name[selected], minlength=n)
        incl = np.bincount(name[selected], weights=dur[selected], minlength=n)
        self_s = np.bincount(name[selected], weights=(cpu - child)[selected],
                             minlength=n)
        return {s: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, s in enumerate(self.names)}

    def write(self, path, spans: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **spans)
