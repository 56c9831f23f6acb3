#!/usr/bin/env python3
"""A torsion-free connection, its curvature, and the wedge-square extension.

The connection differentiates along the anchor; torsion compares it with the
bracket.  Here a torsion-free choice exists whose curvature lands entirely in
the anchor's kernel — the same sections that measure the Jacobi defect — and
the bundle extended by its own wedge square becomes an honest Lie bracket.
"""

from algforge import EConnection, derive_bundle, torsionfree_gamma
from algforge.catalog import builtin
from algforge.connection import verify_prhelp

e0 = builtin("E0")
conn = EConnection(e0, torsionfree_gamma(e0), name="torsionfree")

print(f"connection {conn.name!r} on {e0.name}")
print("torsion-free:", conn.is_torsion_free())

print("\nnonzero curvature values R(x, y) z:")
for (i, j, b), value in conn.curvature_table().items():
    names = (e0.gen_names[i], e0.gen_names[j], e0.gen_names[b])
    anchored = "kernel-valued" if e0.anchor_of(value).is_zero() else "NOT kernel-valued"
    print(f"  R({names[0]}, {names[1]}) {names[2]} = {e0.section_text(value)}   [{anchored}]")

print("\ncyclic curvature identity (must vanish identically):")
worst = next(iter(conn.bianchi_table().values()), e0.zero_section())
print("  largest defect over all triples:", e0.section_text(worst))

print("\nextending by the wedge square:")
d = derive_bundle(conn)
print(f"  derived bundle rank {d.derived.rank}; new generators {d.derived.gen_names[4:7]} ...")
print("  axioms:", d.derived.check_axioms().describe())
print("  Jacobi:", d.derived.check_lie().describe())

plain = derive_bundle(conn, include_half_correction=False)
print("\nwithout the correction term the extension fails:")
print(" ", plain.derived.check_lie().describe())

print("\nstructural identities of the lifted connection:")
rep = verify_prhelp(d)
for item in rep.items:
    state = "ok" if item.ok else "FAIL"
    print(f"  identity {item.number} ({item.label}): {state}, {item.checked} tuples")
