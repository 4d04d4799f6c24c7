"""Integer coefficients: Smith normal form and torsion in cyclic homology.

Over Z the lambda-quotient engine is unavailable, but the normalized (b, B)
bicomplex works verbatim and its homology carries torsion, read off the
Smith normal form of the incoming boundary.  The closed formula for cyclic
groups predicts exactly which Z/m summands appear.

Run:  python3 demos/05_integer_coefficients.py
"""

from hopfcycl import (
    ZZ,
    FiniteGroup,
    IntegersMod,
    SparseMatrix,
    closed_hc_cyclic_group,
    cm_group_module,
    cyclic_bicomplex_hc,
    smith_normal_form,
)

print("== Smith normal form of a small integer matrix ==")
M = SparseMatrix.from_rows(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
print("  matrix rows [2,4,4], [-6,6,12], [10,4,16]")
print(f"  invariant factors: {smith_normal_form(M)}")

print()
print("== HC of Z[Z/m] at a group element pi ==")
for m in (2, 3, 4):
    G = FiniteGroup.cyclic(m)
    for pi in range(m):
        module = cm_group_module(G, pi, ZZ)
        m_pi = m // G.element_order(pi)
        computed = [str(cyclic_bicomplex_hc(module, n)) for n in range(4)]
        closed = [str(closed_hc_cyclic_group(ZZ, m_pi, n)) for n in range(4)]
        flag = "ok" if computed == closed else "MISMATCH"
        print(f"  m={m} pi=g^{pi} (m_pi={m_pi}): {computed}  [{flag}]")

print()
print("== the same formula over a ring with zero divisors ==")
ring = IntegersMod(4)
for n in range(4):
    print(f"  HC_{n} over Z/4 with m_pi = 2: {closed_hc_cyclic_group(ring, 2, n)}")
