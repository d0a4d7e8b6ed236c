"""Compiled evaluation of metric documents: each document structure's
guard and each metric order are one function over a list of rows,
compiled once per process and shared by every spec of that structure,
whose values are bit for bit those of walking the ASTs one point at a
time, at each spec's own parameter values."""

import builtins
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from curved_rs import exprparse, spacetimes
from curved_rs.errors import EvalError, OutOfDomain
from curved_rs.exprparse import diff, evaluate, parse_expression, to_text
from curved_rs.geometry import Point, metric_jet
from curved_rs.identity_suite import (SAMPLE_DRAWS_PER_POINT, run_suite,
                                      sample_points)
from curved_rs.spacetimes import COMPONENT_LIMIT, PRESET_DOCUMENTS

from conftest import DOCUMENT_DIR, DOCUMENTS
from oracles import (guard_at, loop_sample_points, tree_evaluate, tree_guard,
                     value_of)


#: the six presets and the benchmark's three documents, the documents by
#: file name (two share a preset's name, and differ from its text)
SPEC_KEYS = spacetimes.PRESET_NAMES + tuple(f"{name}.metric"
                                            for name in DOCUMENTS)
#: the test ids of SPEC_KEYS: a name that a preset and a document share
#: carries 0 for the preset and 1 for the document
SPEC_IDS = [key.removesuffix(".metric") for key in SPEC_KEYS]
SPEC_IDS = [key + str(int(key != full)) if SPEC_IDS.count(key) > 1 else key
            for key, full in zip(SPEC_IDS, SPEC_KEYS)]


def _config(key):
    """(config, spec) of a preset name or a ``perfbench/documents`` file
    name."""
    if key in PRESET_DOCUMENTS:
        cfg = spacetimes.parse_metric_config(PRESET_DOCUMENTS[key], name=key)
        return cfg, spacetimes.load_preset(key)
    text = (DOCUMENT_DIR / key).read_text()
    cfg = spacetimes.parse_metric_config(text, name=key)
    return cfg, spacetimes.spec_from_config(cfg)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _tree_order(cfg, rows, k) -> np.ndarray:
    """Order ``k`` of the metric on rows, one AST and one row at a time."""
    table = spacetimes._derivative_tables(cfg)[k]
    out = np.zeros((len(rows),) + (4,) * (k + 2))
    for i, row in enumerate(rows):
        bindings = cfg.params | dict(zip(cfg.coord_names, row.tolist()))
        for index, _, ast in table:
            out[i][index] = tree_evaluate(ast, bindings)
    return out


def test_spec_keys_load_every_document():
    """Each of the three documents is read from its file: none is a
    preset's text under the document's name."""
    for key in SPEC_KEYS[len(spacetimes.PRESET_NAMES):]:
        cfg, spec = _config(key)
        text = (DOCUMENT_DIR / key).read_text()
        assert cfg == spacetimes.parse_metric_config(text, name=key), key
        assert text not in PRESET_DOCUMENTS.values(), key
        assert spec.chart_id.startswith("config:"), key


@pytest.mark.parametrize("key", SPEC_KEYS, ids=SPEC_IDS)
def test_rows_equal_each_row_alone_bit_for_bit(key):
    """n rows at once give each row's values alone and the tree walk's,
    to the bit, for the guard and every order."""
    cfg, spec = _config(key)
    rows = np.array([x.coords for x in sample_points(spec, 7, 5)])
    for k in range(3):
        batch = spec.component_fn(rows, k)
        alone = np.array([spec.component_fn(r[None], k)[0] for r in rows])
        assert batch.shape == (7,) + (4,) * (k + 2)
        assert _bits(batch) == _bits(alone)
        assert _bits(batch) == _bits(_tree_order(cfg, rows, k))
    # rows of a box twice as wide reach outside most domains
    box = np.asarray(spec.sample_box)
    centre, half = box.mean(axis=1), box[:, 1] - box[:, 0]
    wide = np.random.default_rng(3).uniform(centre - half, centre + half,
                                            size=(40, 4))
    wide[0, 0] = np.nan
    inside = spec.domain_guard(wide)
    assert inside.dtype == bool and inside.shape == (40,)
    assert inside.tolist() == [tree_guard(cfg, r, COMPONENT_LIMIT) for r in wide]
    assert inside.tolist() == [spec.domain_guard(r[None])[0] for r in wide]


def _document(g11, domain=""):
    text = ("[coords]\nnames = t, x, y, z\n[metric]\ng00 = 1\n"
            f"g11 = {g11}\ng22 = -1\ng33 = -1\n[domain]\n{domain}\n"
            "[sampling]\nt = 0, 1\nx = 1, 2\ny = 0, 1\nz = 0, 1\n")
    return spacetimes.spec_from_config(spacetimes.parse_metric_config(text))


@pytest.mark.parametrize("g11, domain, bad", [
    ("-1 - 1/x", "", 0.0),
    ("-1 - sqrt(x)", "", -1.0),
    ("-1 - log(x)^2", "", 0.0),
    ("-1 - x^0.5", "", -2.0),
    ("-exp(x)", "", 800.0),
    ("-1", "log(x) > -10", 0.0),
    ("-1", "1 < 1/x", 0.0),
], ids=["division_by_zero", "sqrt_of_negative", "log_of_zero",
        "fractional_power_of_negative", "exp_overflow", "domain_log_of_zero",
        "domain_division_by_zero"])
def test_an_expression_that_cannot_be_evaluated_fails_the_guard(g11, domain, bad):
    spec = _document(g11, domain)
    good = [0.0, 0.5, 0.0, 0.0]
    rows = np.array([good, [0.0, bad, 0.0, 0.0], good])
    assert spec.domain_guard(rows).tolist() == [True, False, True]
    assert guard_at(spec, Point(good))
    assert not guard_at(spec, Point(rows[1]))
    # the jet's one guard call names the row that fails
    row = np.array2string(rows[1], precision=6)
    with pytest.raises(OutOfDomain, match=re.escape(f"point {row} is outside")):
        metric_jet(spec, rows).order(0)


def test_out_of_domain_names_the_label_the_expression_and_the_row():
    """A derivative that cannot be evaluated on a row the guard passes:
    the error names the table entry, its expression and the row."""
    spec = _document("-1 - sqrt(x)^3")
    rows = np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.25, 0.0]])
    assert spec.domain_guard(rows).all()
    assert metric_jet(spec, rows).order(0).shape == (2, 4, 4)
    d = diff(parse_expression("-1 - sqrt(x)^3"), "x")
    with pytest.raises(EvalError) as oracle:
        tree_evaluate(d, {"t": 0.5, "x": 0.0, "y": 0.25, "z": 0.0})
    expected = (f"d_x g11 = {to_text(d)} cannot be evaluated at "
                f"[0.5  0.   0.25 0.  ]: {oracle.value}")
    with pytest.raises(OutOfDomain) as err:
        metric_jet(spec, rows).order(1)
    assert str(err.value) == expected
    with pytest.raises(OutOfDomain) as err:
        spec.component_fn(rows[1:2], 1)
    assert str(err.value) == expected


def test_python_names_are_plain_names():
    """Coordinates and parameters named like Python keywords and builtins
    evaluate as any other name: none of them reaches compiled code."""
    text = ("[coords]\nnames = t, lambda, __import__, print\n[metric]\n"
            "g00 = 1 + exec * lambda^2\ng11 = -1 - print^2 / 10\n"
            "g22 = -(1 + __import__^2)\ng33 = -exp(exec)\n[params]\nexec = 0.25\n"
            "[domain]\nlambda > -5\n"
            "[sampling]\nt = 0, 1\nlambda = 0, 1\n__import__ = 0, 1\nprint = 0, 1\n")
    cfg = spacetimes.parse_metric_config(text)
    spec = spacetimes.spec_from_config(cfg)
    rows = np.array([x.coords for x in sample_points(spec, 4, 2)])
    for k in range(3):
        assert _bits(spec.component_fn(rows, k)) == _bits(_tree_order(cfg, rows, k))
    expr = parse_expression("lambda + __import__ * print - exec")
    names = {"lambda": 1.0, "__import__": 2.0, "print": 3.0, "exec": 0.5}
    assert value_of(expr, names) == 6.5
    program = exprparse.Program((expr,), ("lambda", "__import__", "print"),
                                ("exec",))
    assert evaluate(program, [[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]],
                    (0.5,)) == [6.5, 0.5]


@pytest.fixture
def compiles(monkeypatch):
    """The programs compiled from here on, in a process that has seen no
    document: ``spacetimes``' kernel map starts empty, and the process's
    map is restored afterwards."""
    monkeypatch.setattr(spacetimes, "_KERNELS", {})
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return builtins.compile(*args)

    monkeypatch.setattr(exprparse, "compile", counting, raising=False)
    return compiled


@pytest.mark.parametrize("name", PRESET_DOCUMENTS)
def test_a_new_document_compiles_its_box_then_the_rest(compiles, name):
    """``diff`` folds constant subtrees (frw_dust's exponent 2.0 / 3.0)
    with the helpers compiled code calls, so loading a preset the process
    has not seen compiles one program, its sampling box; its first suite
    compiles the guard and the three metric orders, and a second suite
    nothing."""
    spec = spacetimes.load_preset(name)
    assert compiles == ["<exprparse>"]
    run_suite(spec, n_points=2, seed=1)
    assert compiles == ["<exprparse>"] * 5
    run_suite(spec, n_points=2, seed=2)
    assert len(compiles) == 5


def _schwarzschild_document(m):
    return spacetimes.spec_from_config(spacetimes.parse_metric_config(
        PRESET_DOCUMENTS["schwarzschild"].replace("M = 1.0", f"M = {m!r}")))


@pytest.mark.parametrize("second", [
    lambda: spacetimes.load_preset("schwarzschild"),
    lambda: spacetimes.load_preset("schwarzschild", M=2.5),
    lambda: _schwarzschild_document(1.0),
    lambda: _schwarzschild_document(2.5),
], ids=["preset_same_values", "preset_other_values", "document_same_values",
        "document_other_values"])
def test_a_second_spec_of_a_document_compiles_nothing(compiles, second):
    """A preset or a config document of the structure that a suite has
    run on compiles nothing, at the same parameter values or others."""
    run_suite(spacetimes.load_preset("schwarzschild"), n_points=2, seed=1)
    assert len(compiles) == 5
    run_suite(second(), n_points=2, seed=3)
    assert len(compiles) == 5


def test_six_presets_at_two_values_compile_five_programs_each(compiles):
    """Each preset's sampling box, guard and three orders compile once,
    whichever parameter values its specs bind."""
    for name in spacetimes.PRESET_NAMES:
        before = len(compiles)
        defaults = spacetimes.load_preset(name).params
        for params in ({}, {key: 1.5 * v for key, v in defaults.items()}):
            spec = spacetimes.load_preset(name, **params)
            rows = np.array([x.coords for x in sample_points(spec, 3, 1)])
            spec.domain_guard(rows)
            for k in range(3):
                spec.component_fn(rows, k)
        assert len(compiles) - before == 5, name
    assert len(spacetimes._KERNELS) == len(spacetimes.PRESET_NAMES)


@pytest.mark.parametrize("name, key, value", [
    ("schwarzschild", "M", 2.5), ("de_sitter_static", "alpha", 3.0),
    ("anti_de_sitter_static", "alpha", 0.4), ("frw_dust", "a0", 0.7)])
def test_two_specs_of_one_document_each_walk_their_own_values(name, key, value):
    """Two specs of one kernel, at two values of a parameter, each give the
    tree walk's values at their own binding, to the bit: the metric
    orders, the guard and the sampling box."""
    text = PRESET_DOCUMENTS[name]
    base = spacetimes.parse_metric_config(text, name=name)
    for params in (base.params, {key: value}):
        spec = spacetimes.load_preset(name, **params)
        cfg = replace(base, params=spec.params)
        assert spacetimes._kernel(cfg) is spacetimes._kernel(base)
        rows = np.array([x.coords for x in sample_points(spec, 5, 3)])
        for k in range(3):
            assert _bits(spec.component_fn(rows, k)) == _bits(
                _tree_order(cfg, rows, k))
        box = np.asarray(spec.sample_box)
        assert _bits(box) == _bits([[tree_evaluate(e, cfg.params) for e in
                                     cfg.sampling[n]] for n in cfg.coord_names])
        centre, half = box.mean(axis=1), box[:, 1] - box[:, 0]
        wide = np.random.default_rng(5).uniform(centre - half, centre + half,
                                                size=(30, 4))
        assert spec.domain_guard(wide).tolist() == [
            tree_guard(cfg, r, COMPONENT_LIMIT) for r in wide]


@pytest.mark.parametrize("build", [
    lambda: spacetimes.load_preset("frw_dust"),
    lambda: _schwarzschild_document(1.0),
], ids=["preset", "document"])
def test_each_call_returns_a_fresh_spec(build):
    """Specs share their kernel, never themselves: wrapping one spec's
    callables, as a tracer does, leaves another's as they were."""
    first, second = build(), build()
    assert first is not second
    component_fn, domain_guard = second.component_fn, second.domain_guard
    calls = []

    def wrapped(*args):
        calls.append(args)
        return component_fn(*args)

    first.component_fn = wrapped
    rows = np.array([x.coords for x in sample_points(second, 2, 1)])
    second.component_fn(rows, 1)
    second.domain_guard(rows)
    assert calls == []
    assert (second.component_fn, second.domain_guard) == (component_fn,
                                                          domain_guard)


def test_a_kernel_cannot_be_changed_through_a_spec():
    """The shared tables are tuples and the scatters read-only arrays."""
    cfg = spacetimes.parse_metric_config(PRESET_DOCUMENTS["frw_dust"])
    kernel = spacetimes._kernel(cfg)
    assert all(isinstance(t, tuple) for t in kernel.tables + kernel.scatters)
    for positions, columns in kernel.scatters:
        with pytest.raises(ValueError, match="read-only"):
            positions[...] = 0
        assert not columns.flags.writeable


def test_documents_that_differ_in_one_line_do_not_share_a_kernel(compiles):
    """One domain line or one sampling bound makes another structure,
    which compiles its own programs and keeps its own test and box."""
    text = PRESET_DOCUMENTS["schwarzschild"]
    domain = text.replace("r > 2*M + 0.001", "r > 2*M + 0.01")
    sampling = text.replace("r = 3*M, 8*M", "r = 3*M, 7*M")
    assert len({text, domain, sampling}) == 3
    specs = [spacetimes.spec_from_config(spacetimes.parse_metric_config(t))
             for t in (text, domain, sampling)]
    assert compiles == ["<exprparse>"] * 3
    assert len(spacetimes._KERNELS) == 3
    near = np.array([[0.0, 2.005, 1.0, 1.0]])
    assert [s.domain_guard(near)[0] for s in specs] == [True, False, True]
    assert [s.sample_box[1] for s in specs] == [(3.0, 8.0), (3.0, 8.0),
                                               (3.0, 7.0)]


#: each derivative table entry as ``label = to_text(AST)``, recorded from the
#: folding that evaluated constant subtrees through compiled code
DERIVATIVE_TABLES = Path(__file__).with_name("derivative_tables.json")


def test_derivative_tables_print_as_recorded():
    """The first and second metric derivatives of the six presets and the
    three documents print exactly as recorded: folding without compiling
    changes no float and no tree."""
    recorded = json.loads(DERIVATIVE_TABLES.read_text())
    got = {}
    for kind, names in (("preset", PRESET_DOCUMENTS),
                        ("document", DOCUMENTS)):
        for name in names:
            text = (PRESET_DOCUMENTS[name] if kind == "preset"
                    else (DOCUMENT_DIR / f"{name}.metric").read_text())
            cfg = spacetimes.parse_metric_config(text, name=name)
            got[f"{kind}:{name}"] = [
                f"{label} = {to_text(ast)}"
                for table in spacetimes._derivative_tables(cfg)[1:]
                for _, label, ast in table]
    assert got == recorded


def _document_with_a_cut_box():
    # r in [1, 5] against r > 3: about half the draws fall outside
    text = PRESET_DOCUMENTS["schwarzschild"].replace(
        "r > 2*M + 0.001", "r > 3").replace("r = 3*M, 8*M", "r = 1, 5")
    assert "r = 1, 5" in text
    return spacetimes.spec_from_config(spacetimes.parse_metric_config(text))


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("n", [1, 20])
def test_sample_points_are_the_draws_of_one_at_a_time(seed, n):
    """Guarding the draws in blocks keeps the points of drawing and
    guarding one at a time."""
    specs = [spacetimes.load_preset(name)
             for name in ("schwarzschild", "frw_dust", "minkowski_spherical")]
    for spec in specs + [_document_with_a_cut_box()]:
        got = sample_points(spec, n, seed)
        ref = loop_sample_points(spec, n, seed, SAMPLE_DRAWS_PER_POINT)
        assert _bits([x.coords for x in got]) == _bits([x.coords for x in ref])
        assert all(x.chart_id == spec.chart_id for x in got)
