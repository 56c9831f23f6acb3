#!/usr/bin/env python3
"""Anatomy of the rank-4 example bundle: axioms, Jacobi defects, kernel.

Walks the bundle whose anchor sends the four generators to coordinate fields
scaled by squares, checks the compatibility axioms, locates the two triples
where the Jacobi identity fails, and restricts to the subbundles where it
holds.
"""

from algforge import builtin, make_tangent, subalgebroid_restrict
from algforge.catalog import builtin, e0_kernel_sections

e0 = builtin("E0")
print(f"bundle {e0.name}: rank {e0.rank} over {len(e0.base.var_names)} variables")
for name, vf in zip(e0.gen_names, e0.anchor):
    print(f"  anchor {name} -> {vf.to_text()}")

print("\naxioms:", e0.check_axioms().describe())

print("\nJacobi defects on generator triples:")
units = [e0.unit_section(i) for i in range(4)]
from itertools import combinations

for i, j, k in combinations(range(4), 3):
    value = e0.jacobiator(units[i], units[j], units[k])
    label = ", ".join(e0.gen_names[t] for t in (i, j, k))
    print(f"  ({label}) -> {e0.section_text(value)}")

print("\nthe defects land in the kernel of the anchor, spanned by:")
kern = e0_kernel_sections()
for name, s in kern.items():
    print(f"  {name} = {e0.section_text(s)}   (anchor: {e0.anchor_of(s).to_text()})")

print("\nkernel sections are not central — their own bracket is")
print(" ", e0.section_text(e0.bracket(kern["Xs1"], kern["Xs2"])))

print("\nrestricting to three generators kills the defect:")
for idxs in ((0, 1, 3), (0, 2, 3)):
    gens = [units[i] for i in idxs]
    names = [e0.gen_names[i] for i in idxs]
    sub = subalgebroid_restrict(e0, gens, names)
    print(f"  span({', '.join(names)}):", sub.check_lie().describe())

print("\nthe diagonal rank-2 subbundle is Lie as well:")
a1 = units[0] + units[2]
b1 = units[1] + units[3]
print("  [A1, B1] =", e0.section_text(e0.bracket(a1, b1)), "  (= -2*x2*A1 + 2*x1*B1)")
sub = subalgebroid_restrict(e0, [a1, b1], ["A1", "B1"])
print(" ", sub.check_lie().describe())

print("\nfor comparison, the tangent bundle is Lie out of the box:")
t2 = make_tangent(2)
print(f"  {t2.name}:", t2.check_lie().describe())

print("\nand the itemized bracket variant does not even satisfy the axioms:")
print(" ", builtin("E0_itemized").check_axioms().describe())
