"""When does the computed number count honest maps?

The pipeline always produces an integer, but for small d degenerate
configurations (tuples of forms with common zeros) can contaminate it.
Two certificates rule that out: a closed-form threshold on d, and a
per-stratum dimension audit that is often sharper.
"""

from tevdeg import (
    StratumProfile,
    certify_enumerative,
    enum_bound_closed,
    stratum_audit,
)

# The closed threshold for cubic hypersurfaces of dimension 5 at genus 1:
# any d strictly above it is certified, no sweep needed.
print(f"closed bound (g=1, e=3, r=5): d > {enum_bound_closed(1, 3, 5)}")
print(f"closed bound (g=0, e=3, r=5): {enum_bound_closed(0, 3, 5) or 'all d'}")

# d = 65 clears the bound, and the stratum audit concurs.
rep = certify_enumerative(1, 65, 3, 5)
print(f"\n(g=1, d=65): certified = {rep.certified} after {rep.strata_checked} strata")

# d = 5 fails: a stratum where three of the four marks become simple
# base-points is not ruled out by dimension count plus h^1 allowance.
rep = certify_enumerative(1, 5, 3, 5)
print(f"\n(g=1, d=5): certified = {rep.certified}")
w = rep.witness
print(f"  witness stratum: b0={w.stratum.b0} b1={w.stratum.b1} b2={w.stratum.b2}"
      f"  (case {w.case}: vdim {w.vdim_stratum} + allowance {w.excess_allowance}"
      f" >= target {w.target_dim})")

# Another failing stratum of the same tuple, audited directly.
named = stratum_audit(1, 5, 3, 5, 4, StratumProfile(0, 4, 0))
print(f"  stratum (0,4,0): case {named.case}, vdim {named.vdim_stratum} + "
      f"{named.excess_allowance} >= {named.target_dim} -> passed = {named.passed}")

# Below (or without) the closed bound the audit can still certify; such
# certificates are flagged audit_sharper since only the sweep vouches.
rep = certify_enumerative(0, 3, 3, 3)
print(f"\n(g=0, d=3, e=3, r=3): certified = {rep.certified}, "
      f"audit_sharper = {rep.audit_sharper} (closed bound needs r > 4)")
