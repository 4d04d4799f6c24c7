"""The Taft Hopf algebras and their twisted cyclic homology.

The n^2-dimensional Taft algebra lives on the n-crown truncated at n, with
a primitive n-th root of unity q in the coefficients.  Grouplikes pi_i and
vertex characters alpha_u form admissible triples exactly when three
congruences mod n hold, and the twisted cyclic homology is concentrated on
two families of triples.

Run:  python3 demos/04_taft_algebras.py
"""

from hopfcycl import (
    ConnesMoscoviciModule,
    check_cm_triple,
    coefficient_homology_skoldberg,
    connes_lambda_hc,
    hochschild_homology_upto,
    taft_cm_closed_form,
    taft_cm_module,
    taft_cm_triples,
    taft_grouplike,
    taft_hopf,
    taft_vertex_character,
)

for n in (2, 3):
    hopf = taft_hopf(n)
    print(f"== Taft algebra, n = {n} (dim {hopf.dim}, over {hopf.ring}) ==")
    axioms = hopf.verify_axioms()
    print("  Hopf axioms:", "all hold" if all(axioms.values()) else axioms)
    triples = taft_cm_triples(n)
    print(f"  admissible triples (pi_i, alpha_u, alpha_v): {triples}")
    top = 4 if n == 2 else 3
    for (i, u, v) in triples:
        module = taft_cm_module(hopf, i, u, v)
        dims = [connes_lambda_hc(module, p).free_rank for p in range(top + 1)]
        closed = [taft_cm_closed_form(n, i, u, v, p) for p in range(top + 1)]
        print(f"    ({i},{u},{v}): HC {dims}  closed {closed}"
              f"  agree: {dims == closed}")
        hh = hochschild_homology_upto(module, top)
        small = [coefficient_homology_skoldberg(hopf.truncated, u, v, p) for p in range(top + 1)]
        print(f"             HH {[h.free_rank for h in hh]}  small complex"
              f" {[h.free_rank for h in small]}  agree: {hh == small}")
    print()

print("== an inadmissible triple ==")
hopf = taft_hopf(2)
triple = check_cm_triple(
    hopf, taft_grouplike(hopf, 1),
    taft_vertex_character(hopf, 1), taft_vertex_character(hopf, 1),
)
print(f"  (pi_1, alpha_1, alpha_1) at n = 2: valid = {triple.valid}")
print(f"  reasons: {list(triple.failures)}")
module = ConnesMoscoviciModule(hopf, triple, require_valid=False)
from hopfcycl import SparseMatrix

t1, t2 = module.cyclic(1), module.cyclic(2)
sq = t1 @ t1 == SparseMatrix.identity(hopf.ring, 4)
cube = t2 @ t2 @ t2 == SparseMatrix.identity(hopf.ring, 16)
print(f"  t_1^2 = id: {sq}   t_2^3 = id: {cube}")
print("  the cyclic power law breaks at level 2, so the operators do not")
print("  assemble into a cyclic module.")
