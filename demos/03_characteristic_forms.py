#!/usr/bin/env python3
"""Trace forms of the curvature and why they deserve the name characteristic.

The trace of each curvature power is a differential form.  Three facts make
it a useful invariant even though the differential here only squares to zero
modulo an ideal: the trace forms are closed in the weak sense, changing the
connection shifts them by an exact form plus an ideal term (computed through
an interval construction with an explicit integration operator), and they
agree with classical base-manifold data under the anchor's pullback.
"""

from algforge import EConnection, flat_connection, make_tangent, torsionfree_gamma
from algforge.catalog import builtin
from algforge.charclass import char_form, connection_forms, pullback_consistency, transgression_check
from algforge.forms import Lambda2Ideal, strong_closed, weak_closed
from algforge.poly import Poly

e0 = builtin("E0")
tf = EConnection(e0, torsionfree_gamma(e0), name="torsionfree")
fl = flat_connection(e0)
ideal = Lambda2Ideal(e0)

print("trace forms of the torsion-free connection:")
for k in (1, 2, 3):
    print(f"  Tr R^{k} = {char_form(tf, k).to_text()}")

print("\nclosedness:")
tr1 = char_form(tf, 1)
dec = strong_closed(tr1)
print(f"  Tr R   strong closed: {dec.status}; witness theta with d^2(theta) = d(Tr R):")
print(f"         theta = {dec.theta.to_text()}")
print(f"         (the trace of the connection forms, {connection_forms(tf).trace().to_text()}, works too)")
print(f"  Tr R^2 weak closed: {weak_closed(char_form(tf, 2), ideal).status} (differential falls into the obstruction ideal)")

print("\nindependence from the connection (transgression):")
for k in (1, 2):
    rep = transgression_check(fl, tf, k, ideal=ideal)
    print(f"  order {k}: {rep.describe()}")
    print(f"    difference      = {rep.difference.to_text()}")
    print(f"    primary witness = {rep.primary_witness.to_text()}")

print("\nagreement with base-manifold curvature through the anchor:")
t2 = make_tangent(2)
x1 = Poly.variable(2, 0)
curved = EConnection(t2, {(1, 0): t2.unit_section(0).scale(x1**2)})  # one curved direction
rep = pullback_consistency(e0, curved, 1, ideal=ideal)
print(f"  base-side trace form pulled back: {rep.base_side.to_text()}")
print(f"  bundle-side trace form:           {rep.algebroid_side.to_text()}")
print(f"  residual normal form:             {rep.residual_normal_form.to_text()}  (consistent: {rep.ok})")
