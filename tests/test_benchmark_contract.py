"""What the benchmark in ``perfbench/`` reads of the package, checked here so
that a change which breaks the benchmark fails the tests and not only a
benchmark run.  ``perfbench/run.py`` is read as text, not imported: it
edits the process environment when imported."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from curved_rs import geometry, identity_suite, spacetimes, spin_frame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
workloads.import_package()


def _run_constant(name):
    """A literal assigned at the top level of run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"run.py assigns no {name}")


def test_every_trace_target_resolves():
    sites = tracing.Tracer().binding_sites()
    assert set(sites) == set(tracing.TARGETS.values())


def test_expected_calls_name_traced_spans_or_counters():
    known = set(tracing.TARGETS.values()) | set(tracing.COUNTERS)
    for workload, names in _run_constant("EXPECTED_CALLS").items():
        assert workload in workloads.WORKLOADS
        assert set(names) <= known, workload


def test_tolerances_the_workloads_read_exist():
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"suite\.(TOL_\w+)", text))
    assert names  # the pattern still finds the reads
    for name in names:
        assert isinstance(getattr(identity_suite, name), float), name


def test_workload_keys_and_documents():
    for key, (preset, params) in workloads.DOCUMENTS.items():
        assert spacetimes.load_preset(preset).params == params
        assert (workloads.DOCUMENT_DIR / f"{key}.metric").is_file()
    assert set(workloads.VACUUM_PRESETS) <= set(spacetimes.PRESET_NAMES)


def _preset():
    return spacetimes.load_preset("schwarzschild")


def _document():
    text = (workloads.DOCUMENT_DIR / "schwarzschild.metric").read_text()
    return spacetimes.spec_from_config(
        spacetimes.parse_metric_config(text, name="schwarzschild"))


@pytest.mark.parametrize("make", [_preset, _document], ids=["preset", "document"])
@pytest.mark.parametrize("entry", ["eval_metric", "curvature", "build_frame"])
def test_spec_counters_see_every_entry(make, entry):
    # the traced run wraps component_fn and domain_guard on the spec and
    # fails when the metric-evaluation or guard counters stay at zero
    tracer = tracing.Tracer()
    spec = make()
    tracer.count_spec(spec)
    tracer.active, tracer.op = True, 0
    x = identity_suite.sample_points(spec, 1, 3)[0]
    if entry == "build_frame":
        frame = spin_frame.build_frame(spec, np.array([x.coords]))
        assert frame.gammas and frame.connection.shape == (1, 4, 4, 4)
    else:
        getattr(geometry, entry)(spec, x)
    counts = tracer.counts()
    assert counts["geometry.metric_evals"] > 0
    assert counts["geometry.guard_calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_record_every_expected_call(name):
    # what ``run.py --trace 1`` checks, on one cycle of the workload's keys:
    # an entry point the package stops calling, or an output the workload's
    # check can no longer read or accept, fails here, not only there
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = workloads.setup(name, 1)
    finally:
        tracer.uninstall()
    verdicts = []
    for k in range(len(wl.keys)):
        tracer.op = k
        inp = wl.next_input(k)
        tracer.install()
        try:
            out = wl.run(inp)
        finally:
            tracer.uninstall()
        verdicts.append(wl.check(inp, out))
    # the outputs still read as the workload's check expects them
    assert [v.detail for v in verdicts if v.failed or v.wrong] == []
    # as run.py counts them: set-up layers over every span, the others over
    # the spans of ops only, so that calls made while setting up cannot
    # stand in for calls the ops stopped making
    spans = tracer.spans()
    setup = _run_constant("SETUP_LAYERS")
    observed = {span: calls for span, (calls, _, _)
                in tracer.layer_totals(spans, range(len(wl.keys))).items()}
    observed.update({span: calls for span, (calls, _, _)
                     in tracer.layer_totals(spans).items() if span in setup})
    observed.update(tracer.counts())
    expected = _run_constant("EXPECTED_CALLS")[name]
    assert [n for n in expected if not observed[n]] == []
