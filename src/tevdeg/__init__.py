"""Exact counts of pointed curves on low-degree hypersurfaces and P^r.

Four routes compute (or bound) the same counts:

* :mod:`tevdeg.engine` -- intersection theory on a projective bundle over
  the Jacobian, the general-purpose pipeline;
* :mod:`tevdeg.closed_forms` -- direct closed-form evaluation;
* :mod:`tevdeg.schubert` -- the Grassmannian integral for maps to the line;
* :mod:`tevdeg.quantum` -- the small quantum ring of P^r.

Only ``p1``'s pair, the binomial formula and the Grassmannian integral,
agrees by a theorem.  The engine and the closed form (``hyp`` and
``insert``), and ``qh`` and (r+1)^g, agree by identities, each pinned by a
lemma test that the README names.

:mod:`tevdeg.enumerativity` certifies when the computed numbers count
honest maps, by a closed-form degree bound and a dimension audit over all
degeneration strata.  Everything is exact and there is no floating point:
the counts and every engine stage are arbitrary-precision integers (the
engine works in divided powers of theta), and only the enumerativity
bound is a rational.
"""

from .closed_forms import (
    alpha_coefficients,
    deg_T_insertions_closed,
    tev_p1_cps,
    vtev_hypersurface_closed,
    vtev_projective_closed,
)
from .engine import HypParams, deg_T, tev_hypersurface_engine
from .enumerativity import (
    AuditReport,
    CertificationReport,
    StratumProfile,
    certify_enumerative,
    dims_check,
    enum_bound_closed,
    insertion_dims_check,
    stratum_audit,
)
from .errors import InvariantBreach, ParameterError
from .quantum import QPolyClass, qmul, quantum_euler, vtev_projective_qh
from .schubert import tev_p1_schubert

__version__ = "0.1.0"

__all__ = [
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
