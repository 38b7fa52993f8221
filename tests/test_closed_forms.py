"""Tests for the closed-form formulas and their documented caveats."""

from math import factorial

import pytest

from tevdeg.cli import sweep_record
from tevdeg.closed_forms import (
    CPS_VS_SCHUBERT_DISCREPANCIES,
    alpha_coefficients,
    compute_cps_schubert_discrepancies,
    deg_T_insertions_closed,
    tev_p1_cps,
    vtev_hypersurface_closed,
    vtev_projective_closed,
)
from tevdeg.errors import ParameterError
from tevdeg.schubert import tev_p1_schubert


# -- tev_p1_cps ----------------------------------------------------------------

def test_cps_values():
    assert tev_p1_cps(3, 4) == 8
    assert tev_p1_cps(2, 2) == 1  # 4 - 1 - 2
    assert tev_p1_cps(0, 1) == 1


def test_cps_is_2_to_g_for_large_degree():
    for g in range(13):
        for d in range(g + 1, g + 4):
            assert tev_p1_cps(g, d) == 2**g


def test_cps_agrees_with_schubert_for_d_at_least_g():
    for g in range(11):
        for d in range(max(g, 1), g + 4):
            assert tev_p1_cps(g, d) == tev_p1_schubert(g, d)


def test_cps_rejections():
    with pytest.raises(ParameterError):
        tev_p1_cps(0, 0)
    with pytest.raises(ParameterError):
        tev_p1_cps(9, 3)  # n < 0


def test_discrepancy_table_is_current():
    assert compute_cps_schubert_discrepancies(10) == CPS_VS_SCHUBERT_DISCREPANCIES


def test_discrepancy_table_contents():
    rows = {(g, d): (a, b) for g, d, a, b in CPS_VS_SCHUBERT_DISCREPANCIES}
    assert rows[(4, 3)] == (3, 2)
    assert rows[(6, 4)] == (12, 5)
    assert rows[(5, 3)] == (6, 0)
    # every listed pair is in the d < g domain and genuinely disagrees
    for (g, d), (a, b) in rows.items():
        assert 1 <= d < g <= 10 and a != b


# -- hypersurface closed form ----------------------------------------------------

def test_hypersurface_closed_values():
    value = vtev_hypersurface_closed(0, 3, 3, 3)
    assert value == 24 and type(value) is int
    assert vtev_hypersurface_closed(1, 3, 3, 3) == 216
    assert vtev_hypersurface_closed(0, 8, 3, 8) == 768
    # The flags come from the certificate; a sweep row carries both.
    row = sweep_record(0, 3, 3, 3)
    assert row["value_closed"] == "24" and row["virtual_range"] and not row["bound_ok"]


def test_hypersurface_closed_rejects_non_integral_n():
    with pytest.raises(ParameterError):
        vtev_hypersurface_closed(0, 4, 3, 3)


def test_hypersurface_flags():
    # e = 3, r = 5: virtual range needs 2e <= r + 3, bound needs r > 4.
    row = sweep_record(0, 10, 3, 5)
    assert row["virtual_range"] and row["bound_ok"]
    assert not sweep_record(1, 5, 3, 5)["bound_ok"]  # below the bound 60
    assert not sweep_record(0, 9, 3, 3)["bound_ok"]  # bound inapplicable
    assert not sweep_record(0, 8, 5, 6)["virtual_range"]  # 2e > r + 3


def test_projective_closed():
    assert vtev_projective_closed(0, 7) == 1
    assert vtev_projective_closed(2, 2) == 9
    assert vtev_projective_closed(3, 1) == 8


# -- alpha coefficients -----------------------------------------------------------

def test_alpha_e3_r3():
    assert alpha_coefficients(3, 3) == (6, 21, 27, 27, 27, 21, 6)


def test_alpha_invariants():
    for e in range(3, 7):
        for r in range(1, 11):
            vals = alpha_coefficients(e, r)
            assert type(vals) is tuple and all(type(v) is int for v in vals)
            assert len(vals) == e + r + 1
            assert vals[0] == factorial(e)
            assert vals == vals[::-1]
            assert sum(vals) == (r + 2) * e**e
            assert all(v > 0 for v in vals)


def test_alpha_index_bounds():
    # alpha_1 .. alpha_{e+r+1}, with alpha_1 = alpha_{e+r+1} = e!.
    for e, r in ((3, 3), (3, 1), (5, 2)):
        vals = alpha_coefficients(e, r)
        assert len(vals) == e + r + 1
        assert vals[0] == vals[-1] == factorial(e)


# -- insertion closed form ---------------------------------------------------------

def test_insertions_closed_values():
    assert deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 1)) == 648
    assert deg_T_insertions_closed(1, 3, 3, 3, (1, 1)) == 1944
    assert deg_T_insertions_closed(0, 6, 3, 3, (2, 2, 2, 1, 1, 1)) == 6001128


def test_insertions_all_lines_matches_count_times_e_to_n():
    for g, d, e, r in ((0, 3, 3, 3), (1, 3, 3, 3), (0, 10, 3, 5), (2, 6, 4, 6)):
        count = vtev_hypersurface_closed(g, d, e, r)
        n = (r + 2 - e) * d // r - g + 1
        assert deg_T_insertions_closed(g, d, e, r, (1,) * n) == e**n * count


def test_insertions_rejects_bad_profiles():
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, (2, 1, 1))  # dimension condition fails
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 5))  # ell_i > r + 1
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, ())
    with pytest.raises(ParameterError):
        # A bare tuple index would read alpha_0 as the last entry.
        deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 0))
