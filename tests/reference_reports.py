"""The reference reports: ``identities``, ``gauge`` and ``constraints`` on
the six presets and the three benchmark documents, at seeds 42 and 7, with
20 points (54 reports), each reduced to what a change must keep.

For each report ``reference_reports.json`` holds the exit code, the
curvature class, each check's verdict, ``max_rel_error`` and tolerance,
the gauge verdict and the mass scan.  ``test_reference_reports.py``
regenerates the reports and compares them with the file: exit codes,
classes, check sets and verdicts exactly, each error to within
``ERROR_SHIFT`` of its tolerance, the mass scan to ``SCAN_RTOL``.

Rewrite the file from the current tree with

    PYTHONPATH=src python tests/reference_reports.py

and record the diff of a rewrite in CHANGES.md.
"""

import contextlib
import io
import json
import math
from pathlib import Path

from curved_rs import cli
from curved_rs.spacetimes import PRESET_NAMES

from conftest import DOCUMENT_DIR, DOCUMENTS

REFERENCE = Path(__file__).resolve().parent / "reference_reports.json"

COMMANDS = ("identities", "gauge", "constraints")
SEEDS = (42, 7)
POINTS = 20
#: how far an error may move, as a fraction of its check's tolerance
ERROR_SHIFT = 1e-6
#: the relative agreement of the mass scan's numbers
SCAN_RTOL = 1e-12


def sources() -> dict:
    """Report-key prefix -> the CLI's metric arguments."""
    out = {name: ["--metric", name] for name in PRESET_NAMES}
    for stem in DOCUMENTS:
        out[f"document:{stem}"] = ["--metric-file",
                                   str(DOCUMENT_DIR / f"{stem}.metric")]
    return out


def summary(rc: int, report: dict) -> dict:
    """What the reference keeps of one JSON report."""
    out = {
        "exit": rc,
        "class": report["environment"]["curvature_class"],
        "checks": {c["id"]: {"passed": c["passed"],
                             "max_rel_error": c["max_rel_error"],
                             "tolerance": c["tolerance"]}
                   for c in report["checks"]},
    }
    for key in ("verdict", "mass_scan"):
        if key in report:
            out[key] = report[key]
    return out


def generate() -> dict:
    """Run the 54 commands in-process and summarise each report."""
    reports = {}
    for name, metric in sources().items():
        for command in COMMANDS:
            for seed in SEEDS:
                argv = [command, *metric, "--points", str(POINTS),
                        "--seed", str(seed), "--format", "json"]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
                reports[f"{command} {name} seed {seed}"] = summary(
                    rc, json.loads(out.getvalue()))
    return reports


def _close(a, b, rtol) -> bool:
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_close(x, y, rtol) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def differences(reference: dict, reports: dict) -> list:
    """One line per way in which ``reports`` leaves ``reference``."""
    found = []
    if set(reference) != set(reports):
        found.append(f"report keys differ: {sorted(set(reference) ^ set(reports))}")
    for key in sorted(set(reference) & set(reports)):
        ref, new = reference[key], reports[key]
        for field in ("exit", "class", "verdict"):
            if ref.get(field) != new.get(field):
                found.append(f"{key}: {field} {ref.get(field)!r} -> "
                             f"{new.get(field)!r}")
        if set(ref["checks"]) != set(new["checks"]):
            found.append(f"{key}: check set differs: "
                         f"{sorted(set(ref['checks']) ^ set(new['checks']))}")
        for cid in sorted(set(ref["checks"]) & set(new["checks"])):
            a, b = ref["checks"][cid], new["checks"][cid]
            if a["passed"] != b["passed"] or a["tolerance"] != b["tolerance"]:
                found.append(f"{key}: {cid} verdict or tolerance changed")
            e, f = a["max_rel_error"], b["max_rel_error"]
            if math.isnan(e) or math.isnan(f):
                if not (math.isnan(e) and math.isnan(f)):
                    found.append(f"{key}: {cid} error {e} -> {f}")
            elif abs(f - e) > ERROR_SHIFT * a["tolerance"]:
                found.append(f"{key}: {cid} error {e:.6e} -> {f:.6e} moved "
                             f"{abs(f - e) / a['tolerance']:.2e} of tolerance")
        a, b = ref.get("mass_scan"), new.get("mass_scan")
        if a is None or b is None:
            same = a is b
        else:
            same = all(_close(a[k], b[k], SCAN_RTOL)
                       for k in ("scalar", "zero_crossing", "table"))
        if not same:
            found.append(f"{key}: mass scan changed")
    return found


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")
