"""Exact-arithmetic K-theoretic Schubert calculus for the affine Grassmannian.

Layers, bottom to top: cartan (lattices and the ring Z[P]), weyl (Coxeter
elements, affine permutations), hecke (the 0-Hecke and K-NilHecke rings),
localization (fixed-point functions psi^v and GKM checks), symfunc
(classical symmetric function bases), grothendieck (G_w, F_w, g_lambda,
k-Schur, the Hopf lift varphi), peterson (phi_0(k_w), Pieri, structure
constants, conjecture scans), cli / goldens (front end and golden reference tables).
"""

__version__ = "0.1.0"  # keep equal to project.version in pyproject.toml

from .cartan import (LaurentPoly, RootDatum, VerificationError, Weight,
                     demazure, eta, phi0)
from .weyl import WeylElt
from .hecke import HeckeElt, TensorElt
from .symfunc import SymFunc, TensorSym
from .localization import PsiEngine
from .grothendieck import GrothendieckEngine
from .peterson import ConjectureReport

__all__ = [
    "LaurentPoly", "RootDatum", "VerificationError", "Weight", "demazure",
    "eta", "phi0",
    "WeylElt", "HeckeElt", "TensorElt", "SymFunc", "TensorSym",
    "PsiEngine", "GrothendieckEngine", "ConjectureReport",
]
