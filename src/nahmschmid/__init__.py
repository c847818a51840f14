"""Numerical laboratory for the Nahm-Schmid equations on u(n) and su(n).

The package integrates the full and reduced flows, audits their conserved
quantities, verifies the Lax-pair / spectral-curve structure, detects the
hypersymplectic degeneracy locus by boundary-value shooting, factorises
positive matrix polynomials and runs the associated factor flow, and
analyses the stability of commuting triples.  The modules are the API.
"""

from . import degeneracy, elliptic, flow, grids, liealg, positive, serialize, spectral, stability

__version__ = "0.1.0"
