"""The benchmark's workloads: inputs made from a seed, one operation per
input, and the check of every operation's output.

Each workload cycles over a fixed list of keys (presets or configuration
documents).  Operation ``k`` takes the next input of key ``k mod len(keys)``,
and every key draws its inputs from its own generator seeded by
``(seed, key index)``, so the same seed gives the same inputs whatever the
run length.  The package is imported inside ``setup`` so that import time
counts as set-up time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference_checks.json"
DOCUMENT_DIR = HERE / "documents"

SUITE_POINTS = 20
#: (a, b, c) of the C/S transform that yields the closed form
CLOSED_FORM_ABC = (-1.0 / 3.0, -1.0, 2.0)
#: config document -> (analytic preset, its parameters) at the same coordinates
DOCUMENTS = {
    "schwarzschild": ("schwarzschild", {"M": 1.0}),
    "frw_dust": ("frw_dust", {"a0": 1.0}),
    "anti_de_sitter": ("anti_de_sitter_static", {"alpha": 1.0}),
}
VACUUM_PRESETS = ("minkowski_cartesian", "minkowski_spherical", "schwarzschild")
#: sign of R * alpha^2 / 12 on the constant-curvature presets
CONSTANT_CURVATURE_SIGN = {"de_sitter_static": -1.0, "anti_de_sitter_static": 1.0}
POINT_BLOCK = 1024
#: (preset, check id) -> largest error over tolerance accepted for a check
#: the program fails on its own for a known reason.  Such a suite is not a
#: failed op, but it is counted apart and printed on every run.  On a flat
#: metric ``eps_determinant_contraction`` divides by its 1e-3 floor, so the
#: finite-difference noise of the spherical chart lands at 0.3 to 2.7 times
#: the tolerance, depending on the suite seed.
KNOWN_DEFECTS = {("minkowski_spherical", "eps_determinant_contraction"): 10.0}


@dataclass
class Verdict:
    """Outcome of checking one operation.

    ``failed``: the operation missed any check, including a failure the
    program reported itself (a non-zero exit), except one listed in
    ``KNOWN_DEFECTS``.  ``wrong``: an output the program presented as right
    is not (a silent error).  ``headroom``: the worst error over its
    tolerance among the checked outputs.  ``known``: the program failed
    only checks listed in ``KNOWN_DEFECTS``, each within its limit there.
    """

    failed: bool
    wrong: bool
    headroom: float
    detail: str = ""
    known: bool = False


def import_package():
    """Import curved_rs from this checkout's ``src``, never from elsewhere."""
    import sys

    if not (SRC / "curved_rs" / "__init__.py").is_file():
        raise FileNotFoundError(f"no curved_rs package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curved_rs

    if Path(curved_rs.__file__).resolve().parent != (SRC / "curved_rs").resolve():
        raise ImportError(f"curved_rs imported from {curved_rs.__file__}")
    from curved_rs import (  # noqa: F401 - loads every traced module
        cli, exprparse, fields, gauge, geometry, identity_suite, numerics,
        rs_operator, spacetimes, spin_frame,
    )
    return curved_rs


def _key_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


class Workload:
    """Base: a key cycle, per-key input streams, ``run`` and ``check``."""

    name = ""
    keys: tuple = ()
    points_per_op = 1
    #: ops after which peak RSS is read: the package's caches grow with
    #: every new point, so a fixed amount of work keeps RSS comparable
    #: between a slower and a faster program
    rss_ops = 0

    def __init__(self, seed: int):
        import_package()
        from curved_rs import identity_suite

        self.seed = seed
        self.suite = identity_suite
        self.build()
        self._streams = [self._stream(i, key) for i, key in enumerate(self.keys)]
        self._primed = [next(s) for s in self._streams]

    def build(self):
        """Everything the ops share: keys, specs, documents, references."""
        raise NotImplementedError

    def _stream(self, index, key):
        raise NotImplementedError

    def next_input(self, k: int):
        """Input of operation ``k``: the next one of key ``k mod len(keys)``."""
        i = k % len(self.keys)
        if self._primed[i] is not None:
            inp, self._primed[i] = self._primed[i], None
            return inp
        return next(self._streams[i])

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# suite_presets: the `identities` command, in-process
# ---------------------------------------------------------------------------


class SuitePresets(Workload):
    name = "suite_presets"
    points_per_op = SUITE_POINTS
    rss_ops = 6

    def __init__(self, seed: int, reference: dict | None = None):
        if reference is None:
            reference = json.loads(REFERENCE_PATH.read_text())
        self.reference = {k: sorted(v) for k, v in reference.items()}
        super().__init__(seed)

    def build(self):
        from curved_rs import cli, spacetimes

        self.keys = tuple(spacetimes.PRESET_NAMES)
        self.cli = cli
        OUT_DIR.mkdir(exist_ok=True)
        self.report_path = OUT_DIR / "suite-report.json"

    def _stream(self, index, key):
        rng = _key_rng(self.seed, index)
        while True:
            yield key, int(rng.integers(0, 2**31 - 1))

    def run(self, inp):
        preset, suite_seed = inp
        self.report_path.unlink(missing_ok=True)
        return self.cli.main([
            "identities", "--metric", preset, "--points", str(SUITE_POINTS),
            "--seed", str(suite_seed), "--format", "json",
            "--output", str(self.report_path),
        ])

    def check(self, inp, rc) -> Verdict:
        preset, suite_seed = inp
        if not self.report_path.is_file():
            return Verdict(True, False, math.inf, f"exit {rc}, no report")
        report = json.loads(self.report_path.read_text())
        checks = report["checks"]
        headroom = max(c["max_rel_error"] / c["tolerance"] for c in checks)
        failing = sorted(c["id"] for c in checks if not c["passed"])
        known = [c["id"] for c in checks if not c["passed"]
                 and c["max_rel_error"] / c["tolerance"]
                 <= KNOWN_DEFECTS.get((preset, c["id"]), 0.0)]
        unexpected = [cid for cid in failing if cid not in known]
        problems = []
        ids = sorted(c["id"] for c in checks)
        if ids != self.reference.get(preset):
            problems.append(f"applicable checks {ids} differ from the reference")
        for c in checks:
            if c["passed"] != (c["max_rel_error"] <= c["tolerance"]):
                problems.append(f"{c['id']} verdict disagrees with its error")
        if report["passed"] != (not failing):
            problems.append("overall verdict disagrees with the checks")
        if rc != (0 if report["passed"] else 1):
            problems.append(f"exit {rc} disagrees with the verdict")
        detail = "; ".join(
            [f"{preset} seed {suite_seed}: exit {rc}"]
            + [f"failed {cid}" for cid in unexpected] + problems
        )
        failed = bool(unexpected) or bool(problems)
        return Verdict(failed, bool(problems), headroom, detail if failed else "",
                       known=bool(known) and not failed)

    def check_seconds(self) -> dict:
        """Per-check ``runtime_s`` of the last report."""
        report = json.loads(self.report_path.read_text())
        return {c["id"]: c["runtime_s"] for c in report["checks"]}


# ---------------------------------------------------------------------------
# frames_sweep and config_documents: one fresh point through the frame chain
# ---------------------------------------------------------------------------


def _rel(err, *scales) -> float:
    return float(err) / max([1e-300] + [abs(float(s)) for s in scales])


class FrameChain(Workload):
    """One op: curvature -> gammas -> connection -> operator blocks ->
    C/S transform and closed form, at a point no earlier op has seen."""

    def build(self):
        from curved_rs import geometry, rs_operator, spin_frame

        self.geometry = geometry
        self.spin_frame = spin_frame
        self.rso = rs_operator
        self.specs = self.build_specs()

    def build_specs(self) -> dict:
        """key -> MetricSpec; may also set ``keys``."""
        raise NotImplementedError

    def _stream(self, index, key):
        from curved_rs.geometry import Point

        spec = self.specs[key]
        box = np.asarray(spec.sample_box, dtype=float)
        rng = _key_rng(self.seed, index)
        while True:
            block = rng.uniform(box[:, 0], box[:, 1], size=(POINT_BLOCK, 4))
            for coords in block:
                yield key, Point(coords, spec.chart_id)

    def run(self, inp):
        key, x = inp
        spec = self.specs[key]
        bundle = self.geometry.curvature(spec, x)
        gs = self.spin_frame.gamma_set_at(spec, x)
        self.spin_frame.spin_connection(spec, x)
        alphas, beta = self.rso.build_alpha_beta(gs)
        transformed = self.rso.transform_CS(alphas, beta, gs, *CLOSED_FORM_ABC)
        closed = self.rso.tilde_closed_form(gs)
        return bundle, transformed, closed

    def errors(self, inp, out) -> list:
        """(name, error, tolerance) of every checked output."""
        _, transformed, (alpha_t, beta_t) = out
        err = _rel(np.max(np.abs(transformed.beta_tilde.blocks - beta_t.blocks)), 1.0)
        for nu in range(4):
            err = max(err, _rel(
                np.max(np.abs(transformed.alpha_tilde[nu].blocks - alpha_t[nu].blocks)),
                alpha_t[nu].max_abs(), 1.0))
        return [("closed_form", err, self.suite.TOL_TRANSFORM)]

    def check(self, inp, out) -> Verdict:
        errors = self.errors(inp, out)
        misses = [f"{name} {err:.3e} > {tol:.1e}" for name, err, tol in errors
                  if not err <= tol]
        headroom = max(err / tol for _, err, tol in errors)
        if not misses:
            return Verdict(False, False, headroom)
        where = np.array2string(inp[1].coords, precision=6)
        return Verdict(True, True, headroom, f"{inp[0]} at {where}: " + "; ".join(misses))


class FramesSweep(FrameChain):
    name = "frames_sweep"
    rss_ops = 3000

    def build_specs(self) -> dict:
        from curved_rs import spacetimes

        self.keys = tuple(spacetimes.PRESET_NAMES)
        return {name: spacetimes.load_preset(name) for name in self.keys}

    def errors(self, inp, out) -> list:
        key, _ = inp
        bundle = out[0]
        errors = super().errors(inp, out)
        tol = self.suite.TOL_EINSTEIN
        if key in VACUUM_PRESETS:
            riemann = float(np.max(np.abs(bundle.riemann_lower)))
            errors.append(("ricci", _rel(np.max(np.abs(bundle.ricci)),
                                         riemann, 1e-3), tol))
        if key in CONSTANT_CURVATURE_SIGN:
            alpha = self.specs[key].params["alpha"]
            target = CONSTANT_CURVATURE_SIGN[key] * 12.0 / alpha**2
            errors.append(("scalar", _rel(bundle.scalar - target, target), tol))
        return errors


class ConfigDocuments(FrameChain):
    name = "config_documents"
    keys = tuple(DOCUMENTS)
    rss_ops = 1000

    def build_specs(self) -> dict:
        from curved_rs import spacetimes

        specs = {}
        self.analytic = {}
        for key, (preset, params) in DOCUMENTS.items():
            text = (DOCUMENT_DIR / f"{key}.metric").read_text()
            cfg = spacetimes.parse_metric_config(text, name=key)
            specs[key] = spacetimes.spec_from_config(cfg)
            self.analytic[key] = spacetimes.load_preset(preset, **params)
        return specs

    def errors(self, inp, out) -> list:
        key, x = inp
        bundle = out[0]
        errors = super().errors(inp, out)
        ref_spec = self.analytic[key]
        ref = self.geometry.curvature(ref_spec, ref_spec.point(*x.coords))
        errors.append(("riemann_vs_preset", _rel(
            np.max(np.abs(bundle.riemann_lower - ref.riemann_lower)),
            np.max(np.abs(ref.riemann_lower))), self.suite.TOL_CURVCOMM_FD))
        return errors


WORKLOADS = {
    cls.name: cls for cls in (SuitePresets, FramesSweep, ConfigDocuments)
}


def setup(name: str, seed: int) -> Workload:
    """Import the package and build the workload's inputs."""
    return WORKLOADS[name](seed)
