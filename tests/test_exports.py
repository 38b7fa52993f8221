"""Every public name of the package resolves, so none is left dangling.

The root exports the routes, the gates, the reports, the errors and the
quantum ring.  The engine's stages, the polynomial classes and the sigma_1
step stay importable from their own modules; the integral on slot lists,
which only the Schubert tests use, lives in them.
"""

import importlib

import pytest

import tevdeg

PUBLIC = [
    "AuditReport",
    "CertificationReport",
    "HypParams",
    "InvariantBreach",
    "ParameterError",
    "QPolyClass",
    "StratumProfile",
    "alpha_coefficients",
    "certify_enumerative",
    "deg_T",
    "deg_T_insertions_closed",
    "dims_check",
    "enum_bound_closed",
    "insertion_dims_check",
    "qmul",
    "quantum_euler",
    "tev_hypersurface_engine",
    "tev_p1_cps",
    "tev_p1_schubert",
    "vtev_hypersurface_closed",
    "vtev_projective_closed",
    "vtev_projective_qh",
]

MODULE_ONLY = {
    "TruncPoly": "tevdeg.truncpoly",
    "UniPoly": "tevdeg.truncpoly",
    "pieri_special": "tevdeg.schubert",
    "grassmann_integral": "test_schubert",
    "step3_class": "tevdeg.engine",
    "integrate_theta": "tevdeg.engine",
    "pushforward_theta": "tevdeg.engine",
    "point_factor": "tevdeg.engine",
}


def test_every_name_in_all_resolves():
    assert [name for name in tevdeg.__all__ if not hasattr(tevdeg, name)] == []
    assert len(set(tevdeg.__all__)) == len(tevdeg.__all__)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from tevdeg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tevdeg.__all__)


def test_all_is_exactly_the_public_surface():
    assert tevdeg.__all__ == PUBLIC


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_dropped_names_import_from_their_modules(name):
    module = importlib.import_module(MODULE_ONLY[name])
    assert callable(getattr(module, name))
    assert name not in tevdeg.__all__
    assert not hasattr(tevdeg, name)


def test_grassmann_integral_left_the_package():
    assert not hasattr(importlib.import_module("tevdeg.schubert"), "grassmann_integral")
