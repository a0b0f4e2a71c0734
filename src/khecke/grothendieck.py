"""Affine stable Grothendieck polynomials, K-k-Schur functions, and the
noncommutative lift into the affine 0-Hecke ring.

Everything is driven by the elements kappa_i (sums of T_w over cyclically
decreasing w of length i) and their products: the coefficient of m_lam in
G_v is the coefficient of T_v in kappa_{lam_1} kappa_{lam_2} ....  The dual
family g_v in Z[h_1, ..., h_{n-1}] is produced by an exact unitriangular
solve against that pairing, degree by degree from the top; its top
homogeneous component is the k-Schur function of v.
"""

from __future__ import annotations

from .cartan import RootDatum, VerificationError
from . import weyl
from .hecke import HeckeElt, int_mul
from .symfunc import (SymFunc, TensorSym, convert, coproduct_h, make_partition,
                      multiply, partitions_of, partitions_up_to)


class GrothendieckEngine:
    """All kappa-product data for one rank n, grown on demand."""

    _instances: dict[int, "GrothendieckEngine"] = {}

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.datum = RootDatum.affine_sl(n)
        self.fin = self.datum.finite
        self._kappa: dict[int, HeckeElt] = {}
        self._kprod: dict[tuple, dict] = {(): {weyl.identity(self.datum): 1}}
        self._g: dict[tuple, SymFunc] = {}
        self._kschur: dict[tuple, SymFunc] = {}
        self._grass: dict[tuple, weyl.WeylElt] = {}

    @classmethod
    def get(cls, n: int) -> "GrothendieckEngine":
        if n not in cls._instances:
            cls._instances[n] = cls(n)
        return cls._instances[n]

    # -- labels -------------------------------------------------------------------

    def grassmannian(self, lam) -> weyl.WeylElt:
        lam = make_partition(lam)
        if lam not in self._grass:
            self._grass[lam] = weyl.grassmannian_from_partition(self.datum, lam)
        return self._grass[lam]

    def partition_of(self, u: weyl.WeylElt) -> tuple:
        return weyl.partition_of_grassmannian(u)

    def bounded(self, max_size: int) -> list[tuple]:
        return partitions_up_to(max_size, self.n - 1)

    # -- kappa and its products ------------------------------------------------------

    def kappa(self, i: int) -> HeckeElt:
        """kappa_i = sum of T_w over cyclically decreasing w of length i."""
        if not 0 <= i <= self.n - 1:
            raise ValueError("kappa_i needs 0 <= i <= n-1")
        if i not in self._kappa:
            self._kappa[i] = HeckeElt.from_int_terms(self.datum, self.fin,
                                                     self.kappa_product((i,)))
        return self._kappa[i]

    def kappa_product(self, lam) -> dict:
        """{w: int} coefficients of kappa_{lam_1} ... kappa_{lam_k}."""
        lam = make_partition(lam)
        if lam and lam[0] >= self.n:
            raise ValueError(f"partition must be {self.n - 1}-bounded")
        if lam not in self._kprod:
            if len(lam) == 1:
                self._kprod[lam] = {
                    w: 1 for w in weyl.cyclically_decreasing(self.datum, lam[0])}
            else:
                # kappa_{lam_1} (kappa_{lam_2} ...): fold the short words left
                self._kprod[lam] = int_mul(self.kappa_product(lam[:1]),
                                           self.kappa_product(lam[1:]))
        return self._kprod[lam]

    def g_coeff(self, u: weyl.WeylElt, lam) -> int:
        """[T_u] kappa_lam = coefficient of m_lam in G_u."""
        return self.kappa_product(lam).get(u, 0)

    # -- the G / F side ----------------------------------------------------------------

    def G_of(self, v: weyl.WeylElt, max_degree: int) -> SymFunc:
        """G_v in the m basis through total degree max_degree."""
        terms = {}
        for lam in self.bounded(max_degree):
            c = self.g_coeff(v, lam)
            if c:
                terms[lam] = c
        return SymFunc("m", terms, self.n)

    def F_of(self, v: weyl.WeylElt) -> SymFunc:
        """Affine Stanley function: the degree-l(v) part of G_v, in m."""
        return self.G_of(v, v.length).degree_part(v.length)

    def m_to_F(self, f: SymFunc) -> SymFunc:
        """Rewrite an m-expansion over the affine Schur functions F_u."""
        if f.basis != "m":
            raise ValueError("m_to_F expects the m basis")
        residual = dict(f.terms)
        out = {}
        for d in sorted({sum(lam) for lam in residual}):
            for lam in sorted(partitions_of(d, self.n - 1), reverse=True):
                c = residual.get(lam, 0)
                if not c:
                    continue
                out[lam] = c
                u = self.grassmannian(lam)
                for mu, a in self.F_of(u).terms.items():
                    s = residual.get(mu, 0) - c * a
                    if s:
                        residual[mu] = s
                    else:
                        residual.pop(mu, None)
        if residual:
            raise ValueError("expansion left a residue outside the F span")
        return SymFunc("F", out, self.n)

    # -- pairings ------------------------------------------------------------------------

    def pair_with_G(self, f: SymFunc, u: weyl.WeylElt) -> int:
        """<f, G_u> for f in the h basis: sum f_lam [T_u] kappa_lam."""
        if f.basis != "h":
            raise ValueError("pair_with_G expects the h basis")
        return sum(c * self.g_coeff(u, lam) for lam, c in f.terms.items())

    def pair_with_F(self, f: SymFunc, u: weyl.WeylElt) -> int:
        """<f, F_u>: only the degree-l(u) part of f contributes."""
        if f.basis != "h":
            raise ValueError("pair_with_F expects the h basis")
        return sum(c * self.g_coeff(u, lam) for lam, c in f.terms.items()
                   if sum(lam) == u.length)

    # -- the g / k-Schur side ---------------------------------------------------------------

    def g_of(self, lam) -> SymFunc:
        """K-k-Schur function g_lam: the h-expression with <g_lam, G_u> = delta."""
        lam = make_partition(lam)
        if lam not in self._g:
            self._g[lam] = self._dual_solve(lam, top_only=False)
        return self._g[lam]

    def kschur_of(self, lam) -> SymFunc:
        """k-Schur function: homogeneous solve against the F family."""
        lam = make_partition(lam)
        if lam not in self._kschur:
            self._kschur[lam] = self._dual_solve(lam, top_only=True)
        return self._kschur[lam]

    def _dual_solve(self, lam: tuple, top_only: bool) -> SymFunc:
        ell = sum(lam)
        coeffs: dict[tuple, int] = {}
        degrees = [ell] if top_only else range(ell, -1, -1)
        for d in degrees:
            for mu in sorted(partitions_of(d, self.n - 1)):
                u = self.grassmannian(mu)
                rhs = 1 if mu == lam else 0
                for nu, c in coeffs.items():
                    rhs -= c * self.g_coeff(u, nu)
                # diagonal coefficient [T_u] kappa_mu is 1
                if rhs:
                    coeffs[mu] = rhs
        out = SymFunc("h", coeffs, self.n)
        self._verify_duality(out, lam, ell, top_only)
        return out

    def _verify_duality(self, f: SymFunc, lam, ell, top_only):
        for mu in self.bounded(ell):
            u = self.grassmannian(mu)
            want = 1 if mu == lam else 0
            got = self.pair_with_F(f, u) if top_only else self.pair_with_G(f, u)
            if top_only and sum(mu) != ell:
                continue
            if got != want:
                raise VerificationError(
                    f"duality failed for {lam}: <., {mu}> = {got}, want {want}")

    # -- expansions in the dual families -------------------------------------------------------

    def expand_in_g(self, f: SymFunc) -> dict:
        """{mu: <f, G_mu>} -- the g-basis coordinates of f in Lambda_(n)."""
        out = {}
        for mu in self.bounded(f.max_degree()):
            c = self.pair_with_G(f, self.grassmannian(mu))
            if c:
                out[mu] = c
        return out

    def expand_in_kschur(self, f: SymFunc) -> dict:
        out = {}
        for mu in self.bounded(f.max_degree()):
            c = self.pair_with_F(f, self.grassmannian(mu))
            if c:
                out[mu] = c
        return out

    def g_in_s_basis(self, lam) -> SymFunc:
        return convert(self.g_of(lam), "s")

    def g_in_kschur_basis(self, lam) -> dict:
        return self.expand_in_kschur(self.g_of(lam))

    # -- coproduct and product on the g basis ----------------------------------------------------

    def g_coproduct(self, lam) -> TensorSym:
        """Delta(g_lam) expanded over g (x) g."""
        glam = self.g_of(lam)
        delta = coproduct_h(glam)
        left_rows: dict[tuple, dict] = {}
        for (a, b), c in delta.terms.items():
            left_rows.setdefault(a, {})[b] = c
        deg = sum(make_partition(lam))
        labels = self.bounded(deg)
        grass = {mu: self.grassmannian(mu) for mu in labels}
        out = {}
        for a, row in left_rows.items():
            # E[nu] = <row, G_nu> over the right slot
            right = {}
            for nu in labels:
                val = sum(c * self.g_coeff(grass[nu], b) for b, c in row.items())
                if val:
                    right[nu] = val
            if not right:
                continue
            for mu in labels:
                ca = self.g_coeff(grass[mu], a)
                if not ca:
                    continue
                for nu, val in right.items():
                    key = (mu, nu)
                    s = out.get(key, 0) + ca * val
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return TensorSym(("g", "g"), out, self.n)

    def g_multiply(self, lam, mu) -> dict:
        """g_lam g_mu expanded in the g basis."""
        prod = multiply(self.g_of(lam), self.g_of(mu))
        return self.expand_in_g(prod)

    # -- noncommutative side ------------------------------------------------------------------------

    def varphi(self, f: SymFunc) -> HeckeElt:
        """h_i -> kappa_i, the Hopf lift Lambda_(n) -> the 0-Hecke ring."""
        if f.basis != "h":
            raise ValueError("varphi expects the h basis")
        total: dict[weyl.WeylElt, int] = {}
        for lam, c in f.terms.items():
            if lam and lam[0] >= self.n:
                raise ValueError("varphi needs parts < n")
            for w, a in self.kappa_product(lam).items():
                s = total.get(w, 0) + c * a
                if s:
                    total[w] = s
                else:
                    del total[w]
        return HeckeElt.from_int_terms(self.datum, self.fin, total)

    # -- G-basis expansions ----------------------------------------------------------------------------

    def G_in_G_basis(self, w: weyl.WeylElt, max_length: int) -> dict:
        """Expand G_w over {G_v : v Grassmannian}, coefficients by partition.

        Exact for all v with l(v) <= max_length; the tail beyond max_length
        is not visible (degree bookkeeping: coefficients at the top length
        signal possible continuation).
        """
        residual = dict(self.G_of(w, max_length).terms)
        out = {}
        for d in range(w.length, max_length + 1):
            for lam in sorted(partitions_of(d, self.n - 1), reverse=True):
                c = residual.get(lam, 0)
                if not c:
                    continue
                out[lam] = c
                for mu, a in self.G_of(self.grassmannian(lam), max_length).terms.items():
                    s = residual.get(mu, 0) - c * a
                    if s:
                        residual[mu] = s
                    else:
                        residual.pop(mu, None)
            if any(sum(mu) == d for mu in residual):
                raise VerificationError("G-basis peel left a degree residue")
        return out

    def cauchy_check(self, max_degree: int) -> bool:
        """sum h_lam (x) m_lam = sum g_v (x) G_v through total degree bounds."""
        lhs: dict[tuple, dict[tuple, int]] = {}
        for lam in self.bounded(max_degree):
            lhs.setdefault(lam, {})[lam] = 1
        rhs: dict[tuple, dict[tuple, int]] = {}
        for nu in self.bounded(max_degree):
            gv = self.g_of(nu)
            Gv = self.G_of(self.grassmannian(nu), max_degree)
            for a, ca in gv.terms.items():
                for b, cb in Gv.terms.items():
                    row = rhs.setdefault(a, {})
                    s = row.get(b, 0) + ca * cb
                    if s:
                        row[b] = s
                    else:
                        del row[b]
        rhs = {a: row for a, row in rhs.items() if row}
        return lhs == rhs
