"""Affine stable Grothendieck polynomials, K-k-Schur functions, and the
noncommutative lift into the affine 0-Hecke ring.

Everything is driven by the elements kappa_i (sums of T_w over cyclically
decreasing w of length i) and their products.  The coefficient of m_lam in
G_v is the coefficient of T_v in kappa_{lam_1} kappa_{lam_2} ...; G_v reads
it from the full product of each degree it needs.  The g side reads the
pairing <h_nu, G_mu> = [T_{u_mu}] kappa_nu from one table of Grassmannian
columns, memoised per partition nu and built one factor kappa_{nu_1} at a
time on Grassmannian elements only: T_x T_u = +-T_z has u a right suffix of
z, and every right suffix of a Grassmannian element is Grassmannian.  The
dual family g_v in Z[h_1, ..., h_{n-1}] is peeled against the columns from
the top degree down, and the g/k-Schur expansions are sparse sums over
them, checked once, by the peel's own residual.  The k-Schur function of v
is the top homogeneous component of g_v.  phi_0(k_lam) = varphi(g_lam) and
Delta(g_lam) are built by the K-homology Pieri rule in one skeleton,
``_by_pieri``: h_{lam_1} times the image of g_{lam[1:]} per partition; the
full products and the h (x) h coproduct stay as their oracles.  Every
unitriangular system goes through ``symfunc.peel`` along a fixed key order,
and every sum of rows through ``spread`` (defined in ``cartan``, imported
through ``symfunc``).
"""

from __future__ import annotations

from .cartan import RootDatum, VerificationError
from . import weyl
from .hecke import HeckeElt, times_T
from .symfunc import (SymFunc, TensorSym, convert, make_partition, multiply,
                      partitions_of, partitions_up_to, peel, spread)


class GrothendieckEngine:
    """All kappa-product data for one rank n, grown on demand."""

    _instances: dict[int, "GrothendieckEngine"] = {}

    def __init__(self, n: int):
        self.n = n
        self.datum = RootDatum.affine_sl(n)
        self.fin = self.datum.coefficient_lattice()
        self._kprod: dict[tuple, dict] = {(): {weyl.identity(self.datum): 1}}
        self._rows: dict[int, dict] = {}  # r -> {x: kappa_r T_x}
        self._cols: dict[tuple, dict] = {(): {(): 1}}
        self._fs: dict[tuple, dict] = {(): {weyl.identity(self.datum): 1}}
        self._dg: dict[tuple, dict] = {(): {((), ()): 1}}
        self._open: set[tuple] = set()  # (what, lam) in _by_pieri
        self._pieri: dict[tuple, dict] = {}
        self._g: dict[tuple, SymFunc] = {}

    @classmethod
    def get(cls, n: int) -> "GrothendieckEngine":
        if n not in cls._instances:
            cls._instances[n] = cls(n)
        return cls._instances[n]

    # -- labels -------------------------------------------------------------------

    def grassmannian(self, lam) -> weyl.WeylElt:
        return weyl.grassmannian_from_partition(self.datum, make_partition(lam))

    def bounded(self, max_size: int) -> list[tuple]:
        return partitions_up_to(max_size, self.n - 1)

    # -- kappa and its products ------------------------------------------------------

    def kappa(self, i: int) -> HeckeElt:
        """kappa_i = sum of T_w over cyclically decreasing w of length i."""
        if not 0 <= i <= self.n - 1:
            raise ValueError("kappa_i needs 0 <= i <= n-1")
        return HeckeElt.from_int_terms(self.datum, self.fin, self.kappa_product((i,)))

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
                self._kprod[lam] = self._kappa_times(lam[0], self.kappa_product(lam[1:]))
        return self._kprod[lam]

    def _kappa_times(self, r: int, terms: dict) -> dict:
        """{w: int} of kappa_r * sum c_x T_x: a ``spread`` of the rows kappa_r
        T_x, each folded once per engine (every 0-Hecke product here is kappa_r
        times something).  Row x is row(x r_d) T_d for the smallest right
        descent d of x, climbed down by a loop to the nearest remembered row
        (row e is kappa_r) and built back up one letter at a time."""
        rows = self._rows.setdefault(r, {weyl.identity(self.datum): self.kappa_product((r,))})

        def row(x):
            path = []
            while x not in rows:
                path.append((x, d := weyl.smallest_right_descent(x)))
                x = weyl.right_simple(x, d)
            out = rows[x]
            for x, d in reversed(path):
                out = rows[x] = times_T(out, (d,))
            return out.items()
        return spread(terms, row)

    def grassmannian_terms(self, terms: dict) -> dict:
        """{partition of w: c} over the Grassmannian w of {w: c}."""
        return {weyl.partition_of_grassmannian(w): c for w, c in terms.items()
                if weyl.is_grassmannian(w)}

    def _column(self, nu: tuple) -> dict:
        """{mu: [T_{u_mu}] kappa_nu} = {mu: <h_nu, G_mu>} for a bounded
        partition nu, memoised: callers must not mutate the returned dict.
        Built as kappa_{nu_1} times the column of nu[1:], kept Grassmannian:
        a Grassmannian T_z in T_x T_u has u Grassmannian (a right suffix of
        z), so the full product kappa_nu is never formed."""
        if nu not in self._cols:
            rest = {weyl.grassmannian_from_partition(self.datum, mu): c
                    for mu, c in self._column(nu[1:]).items()}
            self._cols[nu] = self.grassmannian_terms(self._kappa_times(nu[0], rest))
        return self._cols[nu]

    # -- the G / F side ----------------------------------------------------------------

    def G_of(self, v: weyl.WeylElt, max_degree: int) -> SymFunc:
        """G_v in the m basis through total degree max_degree: {lam: [T_v]
        kappa_lam} over the bounded lam, zeros dropped (kappa_lam has no
        term longer than |lam|, so degrees below l(v) contribute nothing)."""
        return SymFunc._trusted("m", {
            lam: c for d in range(v.length, max_degree + 1)
            for lam in partitions_of(d, self.n - 1)
            if (c := self.kappa_product(lam).get(v))}, self.n)

    def F_of(self, v: weyl.WeylElt) -> SymFunc:
        """Affine Stanley function: the degree-l(v) part of G_v, in m."""
        return self.G_of(v, v.length)

    def m_to_F(self, f: SymFunc) -> SymFunc:
        """Rewrite an m-expansion over the affine Schur functions F_u."""
        if f.basis != "m":
            raise ValueError("m_to_F expects the m basis")
        out, residual = self._peel_grassmannian(
            f.terms, sorted({sum(lam) for lam in f.terms}), self.F_of)
        if residual:
            raise ValueError("expansion left a residue outside the F span")
        return SymFunc("F", out, self.n)

    def _peel_grassmannian(self, terms: dict, degrees, row) -> tuple[dict, dict]:
        """``peel`` an m-expansion against row(grassmannian(lam)), visiting the
        bounded lam of ``degrees`` once each, lex-descending within a degree:
        each row is m_lam + lex-smaller terms of degree |lam| + higher degrees."""
        return peel(terms, [lam for d in degrees for lam in partitions_of(d, self.n - 1)],
                    lambda lam: row(self.grassmannian(lam)).terms.items())

    # -- the g / k-Schur side ---------------------------------------------------------------

    def g_of(self, lam) -> SymFunc:
        """K-k-Schur function g_lam: the h-expression with <g_lam, G_u> = delta,
        peeled against the columns from degree |lam| down, lex-ascending
        within a degree (column mu holds [T_{u_mu}] kappa_mu = 1).  The peel's
        residual is {lam: 1} - expand_in_g(g_lam): it must be empty."""
        lam = make_partition(lam)
        if lam not in self._g:
            if lam and lam[0] >= self.n:
                raise ValueError(f"partition must be {self.n - 1}-bounded")
            order = [mu for d in range(sum(lam), -1, -1)
                     for mu in sorted(partitions_of(d, self.n - 1))]
            coeffs, residual = peel({lam: 1}, order, lambda mu: self._column(mu).items())
            if residual:
                raise VerificationError(f"duality failed for {lam}: residual {residual}")
            self._g[lam] = SymFunc._trusted("h", coeffs, self.n)
        return self._g[lam]

    def kschur_of(self, lam) -> SymFunc:
        """k-Schur function: the top homogeneous component of g_lam, unchecked
        as it cannot fail once ``g_of`` has: column(nu)[mu] != 0 only when
        |mu| <= |nu| (kappa_r T_x has no term longer than r + l(x)), and g_lam
        has no degree above |lam|, where its peel starts.  So
        expand_in_kschur(top) = expand_in_g(g_lam) on |mu| = |lam| = delta."""
        lam = make_partition(lam)
        return self.g_of(lam).degree_part(sum(lam))

    # -- expansions in the dual families -------------------------------------------------------

    def _check_h(self, f: SymFunc, who: str):
        if f.basis != "h":
            raise ValueError(f"{who} expects the h basis")
        if any(lam and lam[0] >= self.n for lam in f.terms):
            raise ValueError(f"{who} needs parts < n")

    def expand_in_g(self, f: SymFunc) -> dict:
        """{mu: <f, G_mu>} -- the g-basis coordinates of f in Lambda_(n)."""
        self._check_h(f, "expand_in_g")
        return spread(f.terms, lambda nu: self._column(nu).items())

    def expand_in_kschur(self, f: SymFunc) -> dict:
        """{mu: <f, F_mu>}: the degree-|mu| part of f pairs with F_mu."""
        self._check_h(f, "expand_in_kschur")
        return spread(f.terms, lambda nu: [(mu, a) for mu, a in self._column(nu).items()
                                           if sum(mu) == sum(nu)])

    def g_in_s_basis(self, lam) -> SymFunc:
        return convert(self.g_of(lam), "s")

    def g_in_kschur_basis(self, lam) -> dict:
        return self.expand_in_kschur(self.g_of(lam))

    # -- coproduct and product on the g basis ----------------------------------------------------

    def g_coproduct(self, lam) -> TensorSym:
        """Delta(g_lam) over g (x) g, by the K-homology Pieri rule.  Delta is
        multiplicative and Delta(h_r) = sum_j h_j (x) h_{r-j}, so
        Delta(h_r) Delta(g_nu) spreads each g_a (x) g_b over the Pieri rows
        h_j g_a (x) h_{r-j} g_b.  Checked on each result: the counit on either
        side, and cocommutativity.  The terms are a memo, not to be mutated.
        A failing scan lists its C:g2 violations in their order: as ``spread``
        first meets them, walking the Pieri row h_r g_nu for lam = (r, nu) and
        taking, at each g_mu in it, Delta(h_r) Delta(g_nu) if mu = lam and
        Delta(g_mu) otherwise."""
        def times_h(r, delta_nu):
            return spread(delta_nu, lambda ab: [
                ((mu, nu), x * y) for j in range(r + 1)
                for mu, x in self._pieri_row(j, ab[0]).items()
                for nu, y in self._pieri_row(r - j, ab[1]).items()])

        def check(lam, delta):
            counit = {k: c for k, c in delta.items() if not all(k)}
            if counit != {((), lam): 1, (lam, ()): 1}:
                raise VerificationError(f"counit of Delta(g_{lam}) leaves {counit}")
            if any(delta.get((b, a)) != c for (a, b), c in delta.items()):
                raise VerificationError(f"Delta(g_{lam}) is not cocommutative")

        return TensorSym._trusted(("g", "g"), self._by_pieri(
            self._dg, make_partition(lam), "Delta(g_{})", self._pieri_row, times_h,
            check), self.n)

    def g_multiply(self, lam, mu) -> dict:
        """g_lam g_mu expanded in the g basis."""
        prod = multiply(self.g_of(lam), self.g_of(mu))
        return self.expand_in_g(prod)

    # -- noncommutative side ------------------------------------------------------------------------

    def varphi(self, f: SymFunc) -> HeckeElt:
        """h_i -> kappa_i, the Hopf lift Lambda_(n) -> the 0-Hecke ring."""
        return HeckeElt.from_int_terms(self.datum, self.fin, self._varphi_int(f))

    def _varphi_int(self, f: SymFunc) -> dict:
        """{w: int} terms of varphi(f), zeros dropped."""
        self._check_h(f, "varphi")
        return spread(f.terms, lambda lam: self.kappa_product(lam).items())

    def varphi_g(self, lam) -> dict:
        """{w: int} terms of varphi(g_lam) = phi_0(k_w), w of partition lam,
        memoised per partition: callers must not mutate the returned dict.
        Built by the K-homology Pieri rule, varphi(h_r) = kappa_r: the
        coordinates of h_r g_nu are read in Lambda_(n), through the columns,
        and checked against the Pieri rule in the 0-Hecke ring.
        ``varphi(g_of(lam))`` is its oracle."""
        def coords(r, nu):
            c = spread(self.g_of(nu).terms,
                       lambda a: self._column(make_partition((r,) + a)).items())
            if c.get((r,) + nu) == 1 and c != self._pieri_row(r, nu):
                raise VerificationError(f"h_{r} g_{nu} = {c} in the g basis, but the "
                                        f"Pieri rule gives {self._pieri_row(r, nu)}")
            return c

        return self._by_pieri(self._fs, make_partition(lam), "phi_0(k_{})", coords,
                              self._kappa_times)

    def _pieri_row(self, j: int, a: tuple) -> dict:
        """{mu: c} with h_j g_a = sum c g_mu: the Grassmannian terms of
        kappa_j T_{u_a} (the K-homology Pieri rule), memoised: callers must
        not mutate the returned dict."""
        if (j, a) not in self._pieri:
            self._pieri[j, a] = self.grassmannian_terms(self._kappa_times(
                j, {weyl.grassmannian_from_partition(self.datum, a): 1}))
        return self._pieri[j, a]

    def _by_pieri(self, memo: dict, lam: tuple, what: str, coords, times_h,
                  check=None) -> dict:
        """memo[lam], the image of g_lam under a ring map on Lambda_(n).  For
        lam = (r, nu), h_r g_nu = sum_mu c_mu g_mu (c = coords(r, nu)) has
        c_lam = 1 and every other mu of lower degree or lex-greater, so
        image(g_lam) = times_h(r, image(g_nu)) - sum_{mu != lam} c_mu image(g_mu);
        image(g_nu) comes first, so each part of lam is one level of recursion;
        meeting a (what, mu) still in ``self._open`` again raises."""
        def image(lam):
            if lam in memo:
                return memo[lam]
            key = (what, lam)
            if key in self._open:
                raise VerificationError(
                    f"Pieri recursion for {what.format(lam)} met {lam} again")
            self._open.add(key)
            try:
                r, nu = lam[0], lam[1:]
                c = coords(r, nu)
                if c.get(lam) != 1:
                    raise VerificationError(
                        f"coefficient of g_{lam} in h_{r} g_{nu} is {c.get(lam, 0)}, not 1")
                top = times_h(r, image(nu))
                out = spread({mu: 1 if mu == lam else -a for mu, a in c.items()},
                             lambda mu: (top if mu == lam else image(mu)).items())
                if check:
                    check(lam, out)
                memo[lam] = out
            finally:
                self._open.discard(key)
            return out
        return image(lam)

    # -- G-basis expansions ----------------------------------------------------------------------------

    def G_in_G_basis(self, w: weyl.WeylElt, max_length: int) -> dict:
        """Expand G_w over {G_v : v Grassmannian}, coefficients by partition.

        Exact for all v with l(v) <= max_length; the tail beyond max_length
        is not visible (degree bookkeeping: coefficients at the top length
        signal possible continuation).
        """
        out, residual = self._peel_grassmannian(
            self.G_of(w, max_length).terms, range(w.length, max_length + 1),
            lambda v: self.G_of(v, max_length))
        if residual:
            raise VerificationError("G-basis peel left a degree residue")
        return out

    def cauchy_check(self, max_degree: int) -> bool:
        """sum h_lam (x) m_lam = sum g_v (x) G_v through total degree bounds:
        spread g_nu (x) G_nu over the bounded nu."""
        bounded = self.bounded(max_degree)
        rhs = spread(dict.fromkeys(bounded, 1), lambda nu: [
            ((a, b), ca * cb)
            for b, cb in self.G_of(self.grassmannian(nu), max_degree).terms.items()
            for a, ca in self.g_of(nu).terms.items()])
        return rhs == {(lam, lam): 1 for lam in bounded}
