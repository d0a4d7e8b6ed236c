"""The Dirac products of a GammaSet are formed on first read, once, and
the forms that replaced the sigma commutator's four metric einsums and
2.8b's rank-7 determinant equal their references in ``oracles``."""

import functools

import numpy as np
import pytest

from curved_rs import gauge, identity_suite
from curved_rs.geometry import ETA
from curved_rs.identity_suite import build_context, run_suite, sample_points
from curved_rs.spacetimes import (PRESET_NAMES, load_preset,
                                  parse_metric_config, spec_from_config)
from curved_rs.spin_frame import SIGMA_FLAT, GammaSet, build_frame

from conftest import DOCUMENT_DIR, DOCUMENTS, GAMMA_PRODUCTS
from oracles import four_einsum_sigma_defect, rank7_det_expanded

EPS_DETERMINANT = ("eps_determinant_contraction",)


#: the six presets and the benchmark's three documents (two of which
#: share a preset's name)
SPEC_KEYS = PRESET_NAMES + tuple(f"{name}.metric" for name in DOCUMENTS)


def _spec(key):
    """The spec of a preset name or a ``perfbench/documents`` file name."""
    if key in PRESET_NAMES:
        return load_preset(key)
    text = (DOCUMENT_DIR / key).read_text()
    return spec_from_config(parse_metric_config(text, name=key))


def _count_products(monkeypatch) -> dict:
    """The GammaSets each of ``GAMMA_PRODUCTS`` is formed on, by name."""
    formed = {name: [] for name in GAMMA_PRODUCTS}
    for name in GAMMA_PRODUCTS:
        form = GammaSet.__dict__[name].func

        def counting(gs, name=name, form=form):
            formed[name].append(gs)
            return form(gs)

        prop = functools.cached_property(counting)
        prop.__set_name__(GammaSet, name)
        monkeypatch.setattr(GammaSet, name, prop)
    return formed


def test_suite_forms_each_product_once_on_the_context_frame(frw_dust,
                                                           monkeypatch):
    """One suite at 20 points forms gamma_r gamma^s, i gamma5 eps gamma,
    sigma, eps^{abcd}, eps_r^{nsm} and the operator blocks once each, all
    on the context frame's GammaSet."""
    formed = _count_products(monkeypatch)
    contexts = []
    build = identity_suite.build_context

    def capturing(*args):
        contexts.append(build(*args))
        return contexts[-1]

    monkeypatch.setattr(identity_suite, "build_context", capturing)
    assert run_suite(frw_dust, n_points=20, seed=42).passed
    gs = contexts[0].frame.gammas
    assert {name: [g is gs for g in sets] for name, sets in formed.items()} \
        == {name: [True] for name in GAMMA_PRODUCTS}


def test_covariant_constancy_forms_no_product(schwarzschild, monkeypatch):
    """1.4 reads only gamma^nu of the one GammaSet that ``gamma_set_at``
    builds for its 8 n shifted rows (4 axes x 2 signs of each of the n
    points), and of the frame's: none forms sigma, the volume tensor or a
    gamma product."""
    ctx = build_context(schwarzschild, 20, seed=42, mass=1.0)
    formed = _count_products(monkeypatch)
    sets = []
    original = identity_suite.gamma_set_at

    def recording(spec, x):
        sets.append(original(spec, x))
        return sets[-1]

    monkeypatch.setattr(identity_suite, "gamma_set_at", recording)
    _, errs = identity_suite._chk_covariant_constancy(ctx)
    assert np.max(errs) <= identity_suite.TOL_FIRST_ORDER
    assert [len(gs.gamma_up) for gs in sets] == [8 * 20]
    assert formed == {name: [] for name in GAMMA_PRODUCTS}


def _independent_blocks(defect):
    """The (a < b, m < n) blocks of a defect [..., a, b, m, n, i, k], as
    [..., p, q, i, k] over the pairs of ``np.triu_indices(4, 1)``."""
    a, b = np.triu_indices(4, 1)
    return defect[..., a[:, None], b[:, None], a, b, :, :]


def test_flat_sigma_defect_is_the_four_einsum_defect():
    defect = identity_suite._sigma_commutator_defect(SIGMA_FLAT, ETA)
    assert defect.shape == (6, 6, 4, 4)
    assert np.array_equal(defect, _independent_blocks(
        four_einsum_sigma_defect(SIGMA_FLAT, ETA)))


@pytest.mark.parametrize("key", SPEC_KEYS)
def test_products_equal_their_oracles(key):
    """On 20 rows: the sigma commutator defect equals the (a < b, m < n)
    blocks of the four-einsum defect to the bit, and the largest entry of
    those blocks is the largest of all 256; and 2.8b's term-by-term determinant equals the
    rank-7 contraction within 1e-13 of the larger of max|raw|, max|R_abns|
    and 1e-3 (the yardstick 2.8b divides by; the raw contraction is
    roundoff on a vacuum)."""
    spec = _spec(key)
    frame = build_frame(spec, [x.coords for x in sample_points(spec, 20, 2)])
    sig, g_up = frame.gammas.sigma_curved, frame.metric.g_upper
    defect = identity_suite._sigma_commutator_defect(sig, g_up)
    full = four_einsum_sigma_defect(sig, g_up)
    assert np.array_equal(defect, _independent_blocks(full))
    assert np.array_equal(np.max(np.abs(defect), axis=(1, 2, 3, 4)),
                          np.max(np.abs(full), axis=(1, 2, 3, 4, 5, 6)))
    rep = gauge.epsilon_contraction_check(frame)
    scale = max(np.max(np.abs(rep["raw"])),
                np.max(np.abs(frame.curvature.riemann_lower)), 1e-3)
    assert np.max(np.abs(rep["det_expanded"] - rank7_det_expanded(frame))) \
        <= 1e-13 * scale


def test_scaled_determinant_term_fails_the_eps_determinant(monkeypatch):
    """The first determinant term, R_{rbns} g^{nb} g^{st}, times 1 + 1e-3:
    2.8b fails on frw_dust and anti-de Sitter.  Every term contracts
    Riemann to a Ricci tensor, so on a vacuum the terms vanish and the
    scaled term is an equivalent mutant: Schwarzschild still passes."""
    names = ("frw_dust", "anti_de_sitter_static", "schwarzschild")

    def verdicts():
        return [run_suite(load_preset(name), n_points=4, seed=5,
                          only=EPS_DETERMINANT).passed for name in names]

    assert verdicts() == [True, True, True]
    (sign, sub), *rest = gauge._DET_TERMS
    monkeypatch.setattr(gauge, "_DET_TERMS",
                        ((sign * (1.0 + 1e-3), sub), *rest))
    assert verdicts() == [False, False, True]


def _scale_lower(sig):
    a, b = np.tril_indices(4, -1)
    sig[..., a, b, :, :] *= 1.0 + 1e-6


def _fill_diagonal(sig):
    sig[..., range(4), range(4), :, :] = 1e-6 * np.eye(4)


@pytest.mark.parametrize("corrupt", (_scale_lower, _fill_diagonal))
def test_sigma_outside_the_independent_blocks_fails_the_check(corrupt,
                                                            monkeypatch):
    """sigma^{ba} (a < b) scaled by 1 + 1e-6, or each sigma^{aa} set to
    1e-6 times the identity: the commutator defect, which reads only the
    blocks a < b, does not change, and the antisymmetry term fails
    ``sigma_commutator``."""
    spec = load_preset("frw_dust")
    check = ("sigma_commutator",)
    assert run_suite(spec, n_points=4, seed=5, only=check).passed
    intact = GammaSet.__dict__["sigma_curved"].func

    def corrupted(gs):
        sig = intact(gs).copy()
        corrupt(sig)
        return sig

    frame = build_frame(spec, [x.coords for x in sample_points(spec, 4, 5)])
    sig, g_up = frame.gammas.sigma_curved, frame.metric.g_upper
    assert np.array_equal(
        identity_suite._sigma_commutator_defect(corrupted(frame.gammas), g_up),
        identity_suite._sigma_commutator_defect(sig, g_up))
    prop = functools.cached_property(corrupted)
    prop.__set_name__(GammaSet, "sigma_curved")
    monkeypatch.setattr(GammaSet, "sigma_curved", prop)
    rep = run_suite(spec, n_points=4, seed=5, only=check)
    assert not rep.passed
    assert rep.checks[0].max_rel_error > 1e-7
