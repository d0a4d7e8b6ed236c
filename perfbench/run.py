#!/usr/bin/env python3
"""Run one benchmark workload against curved_rs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
One client runs one operation after another (a closed loop) until the
operations' summed time reaches ``--seconds``, and every operation's output
is checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the environment and
every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

# the shipped default worker count is what users get, so measure that
os.environ.pop("CURVED_RS_THREADS", None)

import numpy as np  # noqa: E402
import workloads  # noqa: E402 - after the environment is fixed

SETUP_REPEATS = 11
#: end-to-end metrics in the result line; the others are printed only (see
#: README.md for why they are not declared in BENCHMARK.json)
DECLARED = ("setup_s", "op_time_norm", "rss_peak_mb")
#: seconds between two timings of the reference work, and how far before and
#: after an op the timings that op is divided by may lie (see ``HostSpeed``)
SAMPLE_EVERY_S = 0.05
SAMPLE_WINDOW_S = 0.25
PROBE_TIMEOUT_S = 120
#: check ids whose report ``runtime_s`` is a per-layer metric
TIMED_CHECKS = (
    "eq_1_7_derivative_chain",
    "eq_2_7b_massless_gradient",
    "eq_2_8c_gauge_criterion",
    "eq_1_9_commutator_decomposition",
    "eq_1_10c_curvature_bridge",
    "eq_1_2a_operator_form",
)
#: entry points that must record calls on each workload; a binding the
#: tracer misses then fails the run instead of reading as fast
EXPECTED_CALLS = {
    "suite_presets": (
        "fields.sampler", "numerics.partial4",
        "rs_operator.covariant_derivative", "rs_operator.rs_residual",
        "gauge.gauge_criterion", "gauge.massless_residual",
        "geometry.curvature", "geometry.christoffel", "geometry.eval_metric",
        "spin_frame.gamma_set_at", "spin_frame.spin_connection",
        "rs_operator.build_alpha_beta", "rs_operator.transform_CS",
        "rs_operator.tilde_closed_form", "spacetimes.load_preset",
        "identity_suite.run_suite", "cli.main",
        "geometry.metric_evals", "geometry.guard_calls",
    ),
    "frames_sweep": (
        "geometry.curvature", "geometry.christoffel", "geometry.eval_metric",
        "spin_frame.gamma_set_at", "spin_frame.spin_connection",
        "rs_operator.build_alpha_beta", "rs_operator.transform_CS",
        "rs_operator.tilde_closed_form", "spacetimes.load_preset",
        "geometry.metric_evals", "geometry.guard_calls",
    ),
    "config_documents": (
        "geometry.curvature", "geometry.christoffel", "geometry.eval_metric",
        "exprparse.evaluate", "spin_frame.gamma_set_at",
        "spin_frame.spin_connection", "rs_operator.build_alpha_beta",
        "rs_operator.transform_CS", "rs_operator.tilde_closed_form",
        "spacetimes.parse_metric_config", "spacetimes.spec_from_config",
        "geometry.metric_evals", "geometry.guard_calls",
    ),
}
#: layers reported as calls and self time per traced operation
CALL_LAYERS = (
    "fields.sampler", "numerics.partial4",
    "rs_operator.covariant_derivative", "rs_operator.rs_residual",
    "gauge.gauge_criterion", "gauge.massless_residual",
    "geometry.curvature", "geometry.christoffel", "geometry.eval_metric",
    "exprparse.evaluate", "spin_frame.gamma_set_at",
    "spin_frame.spin_connection", "rs_operator.build_alpha_beta",
    "rs_operator.transform_CS", "rs_operator.tilde_closed_form",
)
#: layers reported as mean seconds per call, set-up included
SETUP_LAYERS = (
    "spacetimes.load_preset", "spacetimes.parse_metric_config",
    "spacetimes.spec_from_config",
)
#: layers reported as self time per traced operation only
SELF_LAYERS = ("identity_suite.run_suite", "cli.main")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter (see setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "setup_probe.py"),
         workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((4, 4, 4))
_REF_B = _REF_RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)


def reference_work() -> float:
    """A fixed mix of small numpy and LAPACK calls and interpreted Python,
    about 0.3 ms, that uses no curved_rs code.  Timed next to the ops, it
    tracks how fast the host runs them at that moment."""
    acc = 0.0
    for _ in range(10):
        c = np.einsum("abc,cd->abd", _REF_A, _REF_B)
        acc += float(np.linalg.solve(_REF_B, c[0, 0]).sum())
        acc += sum({j: j * 1.5 for j in range(20)}.values())
    return acc


class HostSpeed:
    """Timings of the reference work, taken every ``SAMPLE_EVERY_S`` while
    the ``with`` block runs, as CPU time of the thread that runs it.

    Between ops the op loop takes them itself (``between_ops``), on the
    thread and core that run the ops.  A suite op lasts seconds, and the
    host changes speed within that, so while one op has run for longer than
    ``SAMPLE_EVERY_S`` a thread of its own takes them.  That thread is idle
    during millisecond ops: timed there, next to them, the reference drifts
    from the ops by up to a third within minutes.
    """

    def __init__(self):
        self.samples = []  # (start, cpu seconds)
        self.op_start = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._during_ops, daemon=True)

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.sort()
        self.starts = [start for start, _ in self.samples]

    def _sample(self):
        start, c0 = time.perf_counter(), time.thread_time()
        reference_work()
        self.samples.append((start, time.thread_time() - c0))

    def _during_ops(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            op_start = self.op_start
            if op_start is not None and time.perf_counter() - op_start > SAMPLE_EVERY_S:
                self._sample()

    def between_ops(self):
        if time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self._sample()

    def around(self, t0: float, t1: float) -> float:
        """Mean timing of the samples within ``SAMPLE_WINDOW_S`` of [t0, t1],
        or of the nearest ones when there are none; after the block ends."""
        i = bisect.bisect_left(self.starts, t0 - SAMPLE_WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + SAMPLE_WINDOW_S)
        if i == j:
            i, j = max(0, i - 1), min(len(self.starts), j + 1)
        return statistics.fmean(cpu for _, cpu in self.samples[i:j])


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(seed: int) -> dict:
    import numpy as np
    from curved_rs import numerics

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "thread_count": numerics.thread_count(),
        "seed": seed,
    }


class Tally:
    """Attempted, failed and wrong operations, operations that failed only
    known defects, and the worst headroom."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = self.known = 0
        self.headroom = 0.0
        self.details = []

    def add(self, verdict):
        self.attempted += 1
        self.failed += verdict.failed
        self.wrong += verdict.wrong
        self.known += verdict.known
        self.headroom = max(self.headroom, verdict.headroom)
        if verdict.detail and len(self.details) < 20:
            self.details.append(verdict.detail)


def timed_op(wl, inp):
    """(seconds, output); the output is the exception if the op raised."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # noqa: BLE001 - an op that raises has failed
        out = exc
    return time.perf_counter() - t0, out


def check(wl, inp, out, tally):
    if isinstance(out, Exception):
        tally.add(workloads.Verdict(True, False, float("inf"), f"{inp[0]}: {out!r}"))
    else:
        tally.add(wl.check(inp, out))


def emit(tally, metrics, lines, declared):
    """Print every metric, then the result line with the declared ones."""
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for detail in tally.details:
        print(f"failed: {detail}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared},
    }))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args):
    """Ops run until their summed time reaches ``--seconds`` and every key
    has run once.  Set-up probes are spread over that time, between ops,
    so that they meet the same changes in host speed as the ops do.  Each
    op's time is also divided by the reference work timed around it (see
    ``HostSpeed``)."""
    wl = workloads.setup(args.workload, args.seed)
    env = environment(args.seed)
    tally = Tally()
    per_key = {key: [] for key in wl.keys}
    times, setups, spans = [], [], []
    rss_mb = None
    begin = time.perf_counter()
    busy = 0.0
    k = 0
    with HostSpeed() as host:
        while busy < args.seconds or k < len(wl.keys):
            if len(setups) < SETUP_REPEATS and busy >= len(setups) * args.seconds / SETUP_REPEATS:
                setups.append(probe_setup(args.workload, args.seed))
            inp = wl.next_input(k)
            host.op_start = time.perf_counter()
            dt, out = timed_op(wl, inp)
            host.op_start = None
            spans.append((inp[0], time.perf_counter() - dt, dt))
            check(wl, inp, out, tally)
            host.between_ops()
            times.append(dt)
            per_key[inp[0]].append(dt)
            busy += dt
            k += 1
            if k == wl.rss_ops:
                rss_mb = peak_rss_mb()
    wall = time.perf_counter() - begin
    while len(setups) < SETUP_REPEATS:
        setups.append(probe_setup(args.workload, args.seed))
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    tail_value, tail_pct, beyond = tail(times)
    key_mean = statistics.fmean(statistics.fmean(ts) for ts in per_key.values())
    per_key_norm = {key: [] for key in wl.keys}
    for key, t0, dt in spans:
        per_key_norm[key].append(dt / host.around(t0, t0 + dt))
    key_norm = statistics.fmean(statistics.fmean(r) for r in per_key_norm.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "op_time_norm": (key_norm, "ratio"),
        "ops_per_s": (1.0 / key_mean, "1/s"),
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "max_headroom": (tally.headroom, "ratio"),
        "rss_peak_mb": (rss_mb, "MB"),
        "known_defect_ratio": (tally.known / tally.attempted, "ratio"),
    }
    lines = [
        "env " + json.dumps(env, sort_keys=True),
        f"workload {args.workload}: {len(times)} ops taking {busy:.2f} s "
        f"in {wall:.2f} s of wall time, one client, closed loop",
        f"op_s.tail is p{tail_pct:.3f} over {len(times)} ops "
        f"({beyond} beyond it)",
        "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups),
        f"rss_peak_mb is the peak after the first {min(k, wl.rss_ops)} ops",
        f"op_time_norm divides op times by the reference work, median "
        f"{statistics.median(c for _, c in host.samples) * 1e3:.4f} ms over "
        f"{len(host.samples)} timings",
        f"known defects: {tally.known} of {tally.attempted} ops failed only "
        f"checks listed in workloads.KNOWN_DEFECTS",
    ]
    emit(tally, metrics, lines, DECLARED)


def run_traced(args):
    """Operations alternate untraced and traced on inputs of the same key;
    the difference of their times is the tracing overhead.  The run ends
    after the first whole key cycle that finishes past ``--seconds``, so
    per-operation averages weigh every key equally."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    wl = workloads.setup(args.workload, args.seed)
    tracer.uninstall()

    tally = Tally()
    traced_ops, overheads, check_s = [], [], {}
    same_input = isinstance(wl, workloads.SuitePresets)
    begin = time.perf_counter()
    k = 0
    while True:
        for _ in wl.keys:
            inp = wl.next_input(k)
            base, out = timed_op(wl, inp)
            check(wl, inp, out, tally)
            if same_input:
                for cid, sec in wl.check_seconds().items():
                    check_s.setdefault(cid, []).append(sec)
            else:
                inp = wl.next_input(k)
            tracer.op = k
            tracer.install()
            try:
                traced, out = timed_op(wl, inp)
            finally:
                tracer.uninstall()
            check(wl, inp, out, tally)
            traced_ops.append(k)
            overheads.append(traced - base)
            k += 1
        if time.perf_counter() - begin >= args.seconds:
            break

    spans = tracer.spans()
    layers = tracer.layer_totals(spans, traced_ops)
    all_spans = tracer.layer_totals(spans)
    counts = tracer.counts()
    n = len(traced_ops)
    points = n * wl.points_per_op
    metrics = {}
    for layer in CALL_LAYERS:
        calls, _, self_s = layers[layer]
        metrics[f"{layer}.calls"] = (calls / n, "1/op")
        metrics[f"{layer}.self_s"] = (self_s / n, "s/op")
    for cid in TIMED_CHECKS:
        metrics[f"identity_suite.check.{cid}.s"] = (
            statistics.median(check_s[cid]) if cid in check_s else 0.0, "s/suite")
    evals = layers["geometry.eval_metric"][0]
    for counter in ("geometry.metric_evals", "geometry.guard_calls"):
        metrics[counter] = (counts[counter] / points, "1/pt")
        metrics[f"{counter}_per_eval_metric"] = (
            counts[counter] / evals if evals else 0.0, "ratio")
    for layer in SETUP_LAYERS:
        calls, incl, _ = all_spans[layer]
        metrics[f"{layer}.s"] = (incl / calls if calls else 0.0, "s/call")
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer][2] / n, "s/op")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s/op")
    metrics["identity_suite.known_defect_fails"] = (tally.known / tally.attempted, "1/op")

    observed = {name: calls for name, (calls, _, _) in layers.items()}
    observed.update({name: calls for name, (calls, _, _) in all_spans.items()
                     if name in SETUP_LAYERS})
    observed.update(counts)
    missing = [name for name in EXPECTED_CALLS[args.workload] if not observed[name]]
    if missing:
        sites = tracer.binding_sites()
        for name in missing:
            print(f"error: no calls recorded for {name} "
                  f"(patched sites: {sites.get(name, [])})", file=sys.stderr)
        sys.exit(1)

    path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(path, spans)
    lines = [
        f"workload {args.workload}: {n} traced and {n} untraced ops, "
        f"{len(spans['name'])} spans written to {path.relative_to(workloads.ROOT)}",
        f"tracing overhead: median {statistics.median(overheads):.6g} s per op "
        f"over {n} pairs of traced and untraced ops",
    ]
    emit(tally, metrics, lines, metrics)


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads.import_package()
    except (FileNotFoundError, ImportError) as exc:
        sys.exit(f"error: {exc}")
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
