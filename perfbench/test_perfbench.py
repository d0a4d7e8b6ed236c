"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _inputs(name, seed, n):
    wl = workloads.setup(name, seed)
    return wl, [wl.next_input(k) for k in range(n)]


def _input_bytes(inputs) -> bytes:
    out = b""
    for key, value in inputs:
        out += key.encode()
        out += value.coords.tobytes() if hasattr(value, "coords") else str(value).encode()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    _, a = _inputs(name, 11, 40)
    _, b = _inputs(name, 11, 40)
    _, c = _inputs(name, 12, 40)
    assert _input_bytes(a) == _input_bytes(b)
    assert _input_bytes(a) != _input_bytes(c)


@pytest.mark.parametrize("name", ["frames_sweep", "config_documents"])
def test_same_seed_gives_identical_verdicts(name):
    verdicts = []
    for _ in range(2):
        wl, inputs = _inputs(name, 5, 12)
        verdicts.append([wl.check(inp, wl.run(inp)) for inp in inputs])
    assert verdicts[0] == verdicts[1]
    assert not any(v.failed for v in verdicts[0])


def test_same_seed_gives_identical_suite_reports():
    reports = []
    for _ in range(2):
        wl, (inp,) = _inputs("suite_presets", 5, 1)
        verdict = wl.check(inp, wl.run(inp))
        report = json.loads(wl.report_path.read_text())
        for c in report["checks"]:
            c.pop("runtime_s")
        report.pop("runtime_s")
        reports.append((verdict, json.dumps(report, sort_keys=True)))
    assert reports[0] == reports[1]


def test_wrong_reference_verdict_counts_as_failed():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    reference["minkowski_cartesian"] = reference["minkowski_cartesian"][1:]
    wl = workloads.SuitePresets(5, reference=reference)
    tally = run.Tally()
    inp = wl.next_input(0)
    assert inp[0] == "minkowski_cartesian"
    dt, out = run.timed_op(wl, inp)
    run.check(wl, inp, out, tally)
    assert tally.failed == 1 and tally.wrong == 1
    assert tally.failed / tally.attempted > 0


def _synthetic_check(preset, failing_headroom):
    """Verdict on a report where every applicable check of ``preset``
    passes except ``eps_determinant_contraction``, at the given headroom."""
    wl = workloads.SuitePresets(5)
    checks = [{"id": cid, "passed": True, "max_rel_error": 1e-12, "tolerance": 1e-8}
              for cid in wl.reference[preset]]
    for c in checks:
        if c["id"] == "eps_determinant_contraction":
            c["max_rel_error"] = failing_headroom * c["tolerance"]
            c["passed"] = False
    wl.report_path.write_text(json.dumps({"passed": False, "checks": checks}))
    return wl.check((preset, 0), 1)


def test_known_defect_is_counted_apart_and_bounded():
    verdict = _synthetic_check("minkowski_spherical", 2.0)
    assert verdict.known and not verdict.failed and not verdict.wrong
    limit = workloads.KNOWN_DEFECTS[("minkowski_spherical", "eps_determinant_contraction")]
    verdict = _synthetic_check("minkowski_spherical", 2 * limit)
    assert verdict.failed and not verdict.known
    verdict = _synthetic_check("schwarzschild", 2.0)
    assert verdict.failed and not verdict.known


def test_wrong_closed_form_counts_as_failed():
    wl, (inp,) = _inputs("frames_sweep", 5, 1)
    bundle, transformed, (alpha_t, beta_t) = wl.run(inp)
    assert not wl.check(inp, (bundle, transformed, (alpha_t, beta_t))).failed
    beta_t.blocks[0, 0] += 1e-9
    verdict = wl.check(inp, (bundle, transformed, (alpha_t, beta_t)))
    assert verdict.failed and verdict.wrong


def test_tail_has_ten_samples_beyond():
    times = list(np.arange(100.0))
    value, pct, beyond = run.tail(times)
    assert sum(t > value for t in times) == beyond == 10
    assert pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_file_names_are_valid():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_file(trace, key):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "frames_sweep",
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
        cwd=HERE.parent,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME.fullmatch(k) for k in result["metrics"])
