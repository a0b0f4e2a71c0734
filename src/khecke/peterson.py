"""The K-theoretic Fomin-Stanley layer: phi_0(k_w) elements, membership in
the centralizer-at-0 subalgebra, the K-homology Pieri rule, structure
constants, equivariant k_w for affine SL_2, and conjecture scans.

phi_0(k_w) is produced by the K-homology Pieri rule in
``GrothendieckEngine.varphi_g``; the Hopf lift varphi(g_w) of the full kappa
products and an independent integer linear-system solver are kept as oracles.
"""

from __future__ import annotations

import json

from .cartan import LaurentPoly, RootDatum, VerificationError, solve_exact
from . import weyl
from .grothendieck import GrothendieckEngine
from .hecke import HeckeElt, phi0_hecke, t_mul, times_T
from .localization import (PsiEngine, grassmannian_expansion, sl2_sigma,
                           wrongway)
from .symfunc import make_partition, peel


# -- phi_0(k_w) --------------------------------------------------------------------


def fomin_stanley_elt(engine: GrothendieckEngine, lam) -> HeckeElt:
    """phi_0(k_w) for the Grassmannian w of partition lam: the Hopf lift of g_lam."""
    return HeckeElt.from_int_terms(engine.datum, engine.fin, engine.varphi_g(lam))


def l0_membership(b: HeckeElt) -> bool:
    """phi_0(b (e^{+-omega_j} - 1)) = 0 at each node j of b.coeffs: b in L_0."""
    fin = b.coeffs
    base = phi0_hecke(b)
    for j in fin.nodes:
        for sign in (1, -1):
            om = fin.fundamental_weight(j)
            scal = HeckeElt.scalar(b.datum, fin,
                                   LaurentPoly.monomial(om.scaled(sign)))
            if phi0_hecke(t_mul(b, scal)) != base:
                return False
    return True


def expand_in_fs_basis(engine: GrothendieckEngine, b) -> dict:
    """Coordinates of b ({w: int} or an integer HeckeElt) in the phi_0(k_w)
    basis, in one pass over b's Grassmannian keys in (length, word) order.
    Exact because phi_0(k_w) = T_w + non-Grassmannian terms: subtracting a row
    adds no Grassmannian key (one that did would stay in the residual and
    raise)."""
    if isinstance(b, HeckeElt):
        if not b.is_integer():
            raise ValueError("expansion needs integer coefficients")
        b = b.int_terms()
    coeffs, residual = peel(
        b, sorted(w for w in b if weyl.is_grassmannian(w)),
        lambda w: engine.varphi_g(weyl.partition_of_grassmannian(w)).items())
    if residual:
        raise ValueError("element is not in the Fomin-Stanley subalgebra "
                         f"(residue on {sorted(w.word for w in residual)})")
    return {weyl.partition_of_grassmannian(w): c for w, c in coeffs.items()}


def fomin_stanley_via_linear_system(engine: GrothendieckEngine, lam) -> HeckeElt:
    """Independent oracle: solve for the unique element T_w + sum c_v T_v
    (v non-Grassmannian, l(v) <= |lam|) satisfying the L_0 conditions."""
    n = engine.n
    datum, fin = engine.datum, engine.fin
    lam = make_partition(lam)
    w0 = engine.grassmannian(lam)
    unknowns = [v for v in weyl.all_elements(datum, sum(lam))
                if not weyl.is_grassmannian(v)]
    # phi_0((T_w0 + sum c_v T_v)(e^mu - 1)) = 0 for mu = +-omega_j
    columns = [[] for _ in unknowns]
    rhs = []
    mus = [fin.fundamental_weight(j).scaled(s)
           for j in range(1, n) for s in (1, -1)]
    support = weyl.all_elements(datum, sum(lam) + 1)
    for mu in mus:
        scal = HeckeElt.scalar(datum, fin, LaurentPoly.monomial(mu))
        cols = {}
        for vi, v in enumerate([w0] + unknowns):
            prod = phi0_hecke(t_mul(HeckeElt.T(v, fin), scal))
            for x, c in prod.int_terms().items():
                cols.setdefault(x, {})[vi] = c
        for x in support:
            row = cols.get(x, {})
            base = row.get(0, 0) - (1 if x == w0 else 0)
            coeffs = [row.get(vi, 0) - (1 if unknowns[vi - 1] == x else 0)
                      for vi in range(1, len(unknowns) + 1)]
            if any(coeffs) or base:
                for col, c in zip(columns, coeffs):
                    col.append(c)
                rhs.append(-base)
    sol, unique = solve_exact(columns, rhs) or (None, False)
    if not unique:
        raise ValueError("the L_0 conditions have no unique solution")
    if any(c.denominator != 1 for c in sol):
        raise ValueError("solution is not integral")
    terms = {w0: 1}
    for v, c in zip(unknowns, sol):
        if c:
            terms[v] = int(c)
    return HeckeElt.from_int_terms(datum, fin, terms)


# -- Pieri rule and structure constants ------------------------------------------------


def pieri(engine: GrothendieckEngine, i: int, lam) -> dict:
    """phi_0(d^w_{sigma_i, v}) for v of partition lam: signed counts of
    cyclically decreasing x with T_x T_v = +-T_w."""
    if not 1 <= i <= engine.n - 1:
        raise ValueError("pieri needs 1 <= i <= n-1")
    return dict(engine._pieri_row(i, make_partition(lam)))


def structure_d(engine: GrothendieckEngine, lam, mu) -> dict:
    """phi_0(d^w_{u v}) for u, v Grassmannian, by two routes that must agree:
    the k^x_u formula over T_x T_v = +-T_w in the 0-Hecke ring, and the
    g-basis coordinates of g_lam g_mu in Lambda_(n), which is K-homology of
    the affine Grassmannian with the Schubert class of u going to g_lam.

    The formula folds the word of v onto the right of phi_0(k_u) =
    varphi(g_lam), read from the Pieri-built table ``varphi_g``;
    ``g_multiply`` multiplies g_lam g_mu in the h basis and pairs through the
    Grassmannian-restricted columns.  Neither forms a full kappa product.
    The product route, ``expand_in_fs_basis`` of the 0-Hecke product k_u
    k_v, is a third and costlier one, and a test oracle."""
    lam, mu = make_partition(lam), make_partition(mu)
    # d^w_{uv} = sum_x k^x_u [T_w] T_x T_v over Grassmannian w
    via_formula = engine.grassmannian_terms(
        times_T(engine.varphi_g(lam), engine.grassmannian(mu).word))
    via_hopf = engine.g_multiply(lam, mu)
    if via_formula != via_hopf:
        raise VerificationError(
            f"structure constant routes disagree for {lam} * {mu}: "
            f"{via_formula} vs {via_hopf}")
    return via_formula


# -- equivariant k_w for affine SL_2 ------------------------------------------------------


class SupportTruncationError(ValueError):
    """The requested cutoff cannot certify that the T-support of k_w closed."""


def equivariant_k_sl2(lam_or_r, cutoff: int = 8) -> HeckeElt:
    """k_w over R(T) for w = sigma_r in affine SL_2.

    Coefficients k^x_w are read off the Grassmannian expansion of the
    wrong-way image of psi^x.  Raises SupportTruncationError unless the two
    top support layers below the cutoff are empty.
    """
    if isinstance(lam_or_r, (tuple, list)):
        if any(p != 1 for p in lam_or_r):
            raise ValueError("affine SL_2 partitions are columns 1^r")
        r = len(lam_or_r)
    else:
        r = int(lam_or_r)
    if r < 0:
        raise ValueError(f"sigma_r needs r >= 0, got {r}")
    datum = RootDatum.affine_sl(2)
    engine = PsiEngine(datum, "level-zero")
    if cutoff < r + 2:
        raise SupportTruncationError(f"cutoff {cutoff} too small for sigma_{r}")
    w = sl2_sigma(datum, r)
    terms = {}
    for x in weyl.all_elements(datum, cutoff):
        pw = wrongway(lambda y, x=x: engine.psi_right(x, y))
        coeffs = grassmannian_expansion(engine, pw, r)
        c = coeffs.get(w)
        if c is not None:
            terms[x] = c
    top = [x for x in terms if x.length >= cutoff - 1]
    if top:
        raise SupportTruncationError(
            f"support of k_sigma_{r} reaches length {max(x.length for x in top)}; "
            f"raise the cutoff above {cutoff}")
    elt = HeckeElt(datum, engine.coeffs, terms)
    _check_centralizer(elt)
    return elt


def _check_centralizer(elt: HeckeElt):
    """elt commutes with e^{omega_j} for every node j of its coefficients, so
    with all of R(T): commuting with the unit e^{omega_j} implies commuting
    with its inverse e^{-omega_j}, which therefore needs no product of its own."""
    fin = elt.coeffs
    for j in fin.nodes:
        om = LaurentPoly.monomial(fin.fundamental_weight(j))
        scal = HeckeElt.scalar(elt.datum, fin, om)
        if t_mul(elt, scal) != t_mul(scal, elt):
            raise VerificationError("equivariant element does not centralize R(T)")


# -- conjecture scans ---------------------------------------------------------------------


class ConjectureReport:
    """Outcome of a positivity/alternation scan.

    A plain class: ``dataclasses`` would load ``inspect`` and ``ast`` into
    every CLI process at start-up.
    """
    _FIELDS = ("conjectures", "n", "max_length", "cross_n", "max_degree",
               "checked", "violations")

    def __init__(self, conjectures: list, n: int, max_length: int,
                 cross_n: int | None = None, max_degree: int | None = None,
                 checked: int = 0, violations: list | None = None):
        self.conjectures = conjectures
        self.n = n
        self.max_length = max_length
        self.cross_n = cross_n
        self.max_degree = max_degree
        self.checked = checked
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if type(other) is not ConjectureReport:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, conjecture, label, detail):
        self.violations.append(
            {"conjecture": conjecture, "label": label, "detail": detail})

    @classmethod
    def from_json(cls, data: dict) -> "ConjectureReport":
        """Inverse of ``to_json`` (after json.loads); extra keys are ignored."""
        return cls(**{f: data[f] for f in cls._FIELDS})

    def to_json(self) -> str:
        data = {f: getattr(self, f) for f in self._FIELDS}
        return json.dumps({**data, "passed": self.passed}, indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        lines = [f"conjecture scan n={self.n} max_length={self.max_length}"
                 + (f" cross_n={self.cross_n}" if self.cross_n else "")
                 + f": {status} [{self.checked} values checked]"]
        for v in self.violations:
            lines.append(f"  {v['conjecture']} at {v['label']}: {v['detail']}")
        return "\n".join(lines)


def _alternating(sign_exponent: int, value: int) -> bool:
    return value * (-1 if sign_exponent % 2 else 1) >= 0


def _G_in_F(engine: GrothendieckEngine, labels: list) -> dict:
    """{lam: {mu: coefficient of F_mu in G_lam}} over the labels mu, by
    duality: the coefficient is <s^(k)_mu, G_lam>, the g-coordinate at lam
    of ``kschur_of(mu)``.  Each row lists its mu in the order of ``labels``:
    degree ascending, lex-descending within a degree."""
    out = {}
    for mu in labels:
        for lam, c in engine.expand_in_g(engine.kschur_of(mu)).items():
            out.setdefault(lam, {})[mu] = c
    return out


def conjecture_scan(n: int, max_len: int) -> ConjectureReport:
    """Scan CJ:sign, C:g(1)(2), C:G(1)(2) and products (C:G(3)) up to max_len.

    C:G(1) is read through the transpose of the phi_0(k) table: g and G are
    dual bases, so the coefficient of G_lam in G_w is <g_lam, G_w> =
    [T_w] varphi(g_lam), and l(w) <= |lam| on that table.  The G-basis peel
    ``GrothendieckEngine.G_in_G_basis`` is the tests' oracle for it.

    C:G(2) is read through duality too, from the column table: ``_G_in_F``
    builds the F-expansions of every G_lam before the main loop, in the
    order of its oracle ``m_to_F(G_of(u_lam, max_len))``, so a failing
    scan lists its violations as that route did.
    """
    engine = GrothendieckEngine.get(n)
    report = ConjectureReport(
        conjectures=["CJ:sign-k", "CJ:sign-d/C:G3", "C:g1", "C:g2", "C:G1", "C:G2"],
        n=n, max_length=max_len)
    labels = engine.bounded(max_len)
    G_in_F = _G_in_F(engine, labels)

    for lam in labels:
        ell = sum(lam)
        # coefficients of phi_0(k_w) alternate: (-1)^{l(x)-l(u)} phi_0(k^x_u) >= 0;
        # c is also the coefficient of G_lam in G_x, and C:G(1) is the same rule
        for x, c in engine.varphi_g(lam).items():
            report.checked += 2
            if not _alternating(x.length - ell, c):
                word = weyl.word_str(x.word)
                report.record("CJ:sign-k", f"lam={lam}, x={word}", c)
                report.record("C:G1", f"w={word}, lam={lam}", c)
        # C:g(1): g_lam is a nonnegative sum of k-Schur functions
        for mu, c in engine.g_in_kschur_basis(lam).items():
            report.checked += 1
            if c < 0:
                report.record("C:g1", f"lam={lam}, kschur={mu}", c)
        # C:g(2): coproduct constants alternate and respect the degree bound
        for (mu, nu), c in engine.g_coproduct(lam).terms.items():
            report.checked += 1
            if sum(mu) + sum(nu) > ell:
                report.record("C:g2", f"lam={lam}, ({mu},{nu})", f"degree bound, c={c}")
            elif not _alternating(ell - sum(mu) - sum(nu), c):
                report.record("C:g2", f"lam={lam}, ({mu},{nu})", c)
        # C:G(2): G_lam is alternating in the affine Schur functions
        for mu, c in G_in_F[lam].items():
            report.checked += 1
            if not _alternating(sum(mu) - ell, c):
                report.record("C:G2", f"lam={lam}, F={mu}", c)

    # CJ first statement = C:G(3): signs of phi_0(d^w_{uv})
    for i, lam in enumerate(labels):
        for mu in labels[i:]:
            if sum(lam) + sum(mu) > max_len:
                continue
            for nu, c in structure_d(engine, lam, mu).items():
                report.checked += 1
                if not _alternating(sum(nu) - sum(lam) - sum(mu), c):
                    report.record("CJ:sign-d/C:G3", f"u={lam}, v={mu}, w={nu}", c)
    return report


def cross_k_scan(n: int, max_degree: int) -> ConjectureReport:
    """C:g(3) / C:G(4): the pairing matrix <g^(k)_lam, G^(k+1)_mu> alternates."""
    small = GrothendieckEngine.get(n)
    big = GrothendieckEngine.get(n + 1)
    report = ConjectureReport(conjectures=["C:g3/C:G4"], n=n,
                              max_length=max_degree, cross_n=n + 1,
                              max_degree=max_degree)
    for lam in small.bounded(max_degree):
        g_small = small.g_of(lam)  # parts < n <= n+1, valid in Lambda_(n+1)
        for mu, c in big.expand_in_g(g_small).items():
            report.checked += 1
            if not _alternating(sum(lam) - sum(mu), c):
                report.record("C:g3/C:G4", f"lam={lam}, mu={mu}", c)
    return report
