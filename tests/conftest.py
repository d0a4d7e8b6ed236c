import sys
from pathlib import Path

import numpy as np
import pytest

from curved_rs import spacetimes
from curved_rs.identity_suite import sample_points
from curved_rs.rs_operator import covariant_derivative
from curved_rs.spin_frame import build_frame


@pytest.fixture(scope="session")
def minkowski():
    return spacetimes.load_preset("minkowski_cartesian")


@pytest.fixture(scope="session")
def minkowski_spherical():
    return spacetimes.load_preset("minkowski_spherical")


@pytest.fixture(scope="session")
def schwarzschild():
    return spacetimes.load_preset("schwarzschild", M=1.0)


@pytest.fixture(scope="session")
def de_sitter():
    return spacetimes.load_preset("de_sitter_static", alpha=1.0)


@pytest.fixture(scope="session")
def anti_de_sitter():
    return spacetimes.load_preset("anti_de_sitter_static", alpha=1.0)


@pytest.fixture(scope="session")
def frw_dust():
    return spacetimes.load_preset("frw_dust", a0=1.0)


@pytest.fixture(scope="session")
def all_presets(minkowski, minkowski_spherical, schwarzschild, de_sitter,
                anti_de_sitter, frw_dust):
    return [minkowski, minkowski_spherical, schwarzschild, de_sitter,
            anti_de_sitter, frw_dust]


#: the benchmark's metric documents, by file stem
DOCUMENT_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "documents"
DOCUMENTS = ("schwarzschild", "frw_dust", "anti_de_sitter")

#: the products a GammaSet forms on first read
GAMMA_PRODUCTS = ("gamma_down", "sigma_curved", "eps_upper", "eps_mixed",
                  "pairs", "eps_gamma", "alpha", "beta")


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace ``module.name`` in every package module binding it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("curved_rs")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)


def points_of(spec, n=5, seed=1234):
    return sample_points(spec, n, seed)


def frame_at(spec, x):
    """The one-row frame of a Point, which the operator layer evaluates a
    single point on."""
    return build_frame(spec, x.coords[None, :])


def first_constraint(fld, frame, mass):
    """D_be Psi^be - (kappa/2) gamma_be Psi^be on a frame's rows, written
    out from ``covariant_derivative`` and the frame's Dirac matrices."""
    gs = frame.gammas
    d = covariant_derivative(fld, frame)
    return (np.einsum("xnb,xnbi->xi", gs.metric.g_upper, d)
            - 0.5 * mass.kappa * np.einsum("xbij,xbj->xi", gs.gamma_up,
                                           fld.at(frame)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(99)
