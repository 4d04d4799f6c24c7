"""Hochschild and cyclic homology of truncated quiver algebras.

The algebra is kDelta / (paths of length >= n).  A small bimodule resolution
whose generators are indexed by paths of prescribed lengths computes HH with
its path-length grading; necklace counts (rotation orbits of cycles) drive
the closed formulas, and a graded SBI argument produces HC from the HH table.

Run:  python3 demos/03_truncated_quivers.py
"""

from hopfcycl import (
    QQ,
    ZZ,
    Quiver,
    cycle_orbit_counts,
    graded_sbi_hc,
    hc_closed_form_truncated,
    hh_closed_form,
    hh_via_skoldberg,
    skoldberg_resolution,
    truncated_algebra,
)

crown = Quiver.crown(2)
A = truncated_algebra(crown, 2, QQ)

print("== the small resolution for Lambda_2 = 2-crown mod paths of length 2 ==")
report = skoldberg_resolution(A, 5)
print(f"  generator counts by degree: {report['dims']}")
print(f"  d.d = 0: {report['d_squared_zero']}   grade-preserving:"
      f" {report['grade_preserving']}   exact: {report['exact']}")

print()
print("== Hochschild homology with its grading ==")
for p in range(4):
    total, per_grade = hh_via_skoldberg(A, p)
    graded = {q: str(m) for q, m in per_grade.items() if not m.is_zero}
    print(f"  HH_{p} = {str(total):<5} by grade {graded}")

print()
print("== the same over Z picks up torsion ==")
AZ = truncated_algebra(crown, 2, ZZ)
for p in range(4):
    total, _ = hh_via_skoldberg(AZ, p)
    closed = sum(
        (hh_closed_form(crown, 2, p, q, ZZ) for q in range(8)),
        start=hh_closed_form(crown, 2, p, -1, ZZ),
    )
    print(f"  HH_{p}(Lambda_2; Z) = {str(total):<10} closed form {closed}")

print()
print("== necklace counts and cyclic homology ==")
two_loop = Quiver(["v"], [("a", 0, 0), ("b", 0, 0)])
for quiver, n, name in ((Quiver.crown(1), 2, "k[X]/(X^2)"),
                        (crown, 2, "Lambda_2"),
                        (Quiver.crown(3), 3, "Lambda_3"),
                        (two_loop, 2, "two-loop mod m^2")):
    a2, b = cycle_orbit_counts(quiver, 4)
    A_ = truncated_algebra(quiver, n, QQ)
    sbi = graded_sbi_hc(A_, 4)
    closed = [hc_closed_form_truncated(quiver, n, p, QQ) for p in range(5)]
    print(f"  {name:<18} HC {sbi}  closed {closed}  agree: {sbi == closed}")
