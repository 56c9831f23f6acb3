"""The basis cometrics of a Courant solution space, rebuilt from its nullspace vectors.

``CourantSpace`` keeps the vectors {(cell, mu): value} it was solved as, mu
a packed monomial; the commands read only their constant terms.  A test
that looks at the cometrics themselves rebuilds them here: basis element g
is the list of images g[b] = G e_b, and a cell's value times mu sits at
each of its positions (a, b), the e_a-coefficient of g[b].
"""

from algforge.algebroid import Section
from algforge.poly import Poly, _unpack


def unpacked_terms(section):
    """A section's terms keyed (generator, exponent tuple), the unpacked view of its term dict."""
    return {(a, exps): c for a, p in section.split.items() for exps, c in p.terms.items()}


def basis_sections(space, nvars):
    """Every basis element of ``space`` as its images, one Section per generator."""
    basis = []
    for vec in space.vectors:
        entries = [[{} for _ in range(space.rank)] for _ in range(space.rank)]
        for (cell, mu), v in vec.items():
            for a, b in space.cells[cell]:
                entries[b][a][_unpack(mu, nvars)] = v
        basis.append([Section(Poly(nvars, terms) for terms in image) for image in entries])
    return basis
