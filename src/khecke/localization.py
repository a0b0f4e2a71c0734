"""Fixed-point localization functions psi^v(w) and GKM verification.

psi^v is the functional on the K-NilHecke ring dual to T_v; its value at a
group element w localizes the structure sheaf of the codimension-l(v)
Schubert variety at the fixed point w.  Three independent algorithms are
provided (right recurrence, left recurrence, reduced-word sum) plus the
Kostant-Kumar variant by Moebius inversion, big- and small-torus GKM
checks, closed forms for affine SL_2, and the wrong-way map with the
Grassmannian expansion, whose pivot psi^u(u) = prod_{beta in Inv(u)}
(1 - e^beta) is divided out one binomial at a time.

The big-torus GKM condition psi(r_alpha w) = psi(w) mod (1 - e^alpha) is
tested by comparing residues in Z[P]/(1 - e^alpha) = Z[P/Z alpha]
(``cartan.residue_mod_one_minus_e``): each nonzero psi value is reduced
once per root, keyed by the value and not the point, a zero value has
residue {} unreduced, and no difference is formed.  ``psi_right`` reads
each w(alpha_i) from the engine's memo (``PsiEngine.root_image``) and
takes one product per step, by the one-term factor e^{-w(alpha_i)}, which
``LaurentPoly`` multiplies as a shift.  The small-torus conditions, modulo
(1 - e^alpha)^d, test line moments (``cartan.divisible_by_one_minus_e``).

Flavors: "big" works over the datum's own lattice (R(T) or R(T_af));
"level-zero" (affine data with a finite companion) projects every root to
the finite lattice before exponentiating, which commutes with the
division-free recurrences.  ``RootDatum.coefficient_lattice`` turns the
flavor into the engine's ``coeffs``; roots reach it through
``RootDatum.simple_action`` and ``RootDatum.to_lattice``.
"""

from __future__ import annotations

from math import comb

from .cartan import (LaurentPoly, RootDatum, divisible_by_one_minus_e, eta,
                     exact_divide_one_minus_e, residue_mod_one_minus_e,
                     weyl_reflect_poly)
from . import weyl
from .hecke import times_T
from .weyl import WeylElt


class PsiEngine:
    """Memoized psi^v(w) values for one datum and flavor."""

    def __init__(self, datum: RootDatum, flavor: str = "big"):
        self.datum = datum
        self.coeffs = datum.coefficient_lattice(flavor)
        self._action = datum.simple_action(self.coeffs)
        self._right: dict = {}
        self._left: dict = {}
        self._roots: dict = {}

    # -- helpers ---------------------------------------------------------------

    def _zero(self):
        return LaurentPoly.zero(self.coeffs)

    def _one(self):
        return LaurentPoly.one(self.coeffs)

    def root_image(self, w: WeylElt, i) -> "Weight":
        """w(alpha_i) in the coefficient lattice: ``weyl.simple_root_image``
        once per (w, i), then remembered in the engine."""
        key = (w, i)
        lam = self._roots.get(key)
        if lam is None:
            lam = self._roots[key] = weyl.simple_root_image(w, i, self.coeffs)
        return lam

    def act(self, i, p: LaurentPoly) -> LaurentPoly:
        return weyl_reflect_poly(self.datum, i, p)

    # -- the three algorithms -----------------------------------------------------

    def psi_right(self, v: WeylElt, w: WeylElt) -> LaurentPoly:
        """Right-hand recurrence on (v, w), smallest right descent of w."""
        key = (v, w)
        val = self._right.get(key)
        if val is not None:
            return val
        if w.is_identity():
            val = self._one() if v.is_identity() else self._zero()
        else:
            i = weyl.smallest_right_descent(w)
            wri = weyl.right_simple(w, i)
            vri = weyl.right_simple(v, i)
            if vri.length > v.length:
                val = self.psi_right(v, wri)
            else:
                # (1 - m) psi^{vr_i}(w) + m psi^v(wr_i), m = e^{-w(alpha_i)},
                # with one product
                m = LaurentPoly.monomial(-self.root_image(w, i))
                a = self.psi_right(vri, w)
                val = a + m * (self.psi_right(v, wri) - a)
        self._right[key] = val
        return val

    def psi_left(self, v: WeylElt, w: WeylElt) -> LaurentPoly:
        """Left-hand recurrence on (v, w), smallest left descent of w."""
        key = (v, w)
        val = self._left.get(key)
        if val is not None:
            return val
        if w.is_identity():
            val = self._one() if v.is_identity() else self._zero()
        else:
            i = w.word[0]
            riw = weyl.left_simple(i, w)
            riv = weyl.left_simple(i, v)
            if riv.length > v.length:
                val = self.act(i, self.psi_left(v, riw))
            else:
                ea = LaurentPoly.monomial(self._action[i][1])
                val = ea * self.act(i, self.psi_left(v, riw)) \
                    + (self._one() - ea) * self.act(i, self.psi_left(riv, riw))
        self._left[key] = val
        return val

    def psi_graham_willems(self, v: WeylElt, w: WeylElt, word=None) -> LaurentPoly:
        """Reduced-word subword sum (Graham/Willems localization formula)."""
        if word is None:
            word = w.word
        else:
            word = tuple(word)
            if weyl.from_word(self.datum, word) != w or len(word) != w.length:
                raise ValueError("word is not a reduced word for w")
        datum = self.datum
        # the prefix roots of the word, independent of the subword
        betas = [LaurentPoly.monomial(datum.to_lattice(beta, self.coeffs))
                 for beta in weyl.prefix_roots(datum, word)]
        one = self._one()
        total = self._zero()
        n = len(word)
        e = weyl.identity(datum)
        for mask in range(1 << n):
            # subword's 0-Hecke fold must hit +-T_v; the fold sign
            # (-1)^{|b| - l(v)} is the summand sign
            picked = [k for k in range(n) if mask >> k & 1]
            sign = times_T({e: 1}, [word[k] for k in picked]).get(v)
            if sign is None:
                continue
            prod = LaurentPoly.const(self.coeffs, sign)
            for k in picked:
                prod = prod * (one - betas[k])
            total = total + prod
        return total

    # -- derived functions ----------------------------------------------------------

    def psi_kk(self, v: WeylElt, w: WeylElt) -> LaurentPoly:
        """Kostant-Kumar variant: sum_{v <= u <= w} (-1)^{l(u)-l(v)} psi^u(w)."""
        total = self._zero()
        for u in weyl.bruhat_ideal(w):
            if weyl.bruhat_leq(v, u):
                term = self.psi_right(u, w)
                total = total + (term if (u.length - v.length) % 2 == 0 else -term)
        return total

    def psi_kk_closed(self, v: WeylElt, w: WeylElt) -> LaurentPoly:
        """(-1)^{l(v)} e^{rho - w rho} eta(psi^v(w))  (finite flavor)."""
        rho = self.datum.rho
        shift = LaurentPoly.monomial(rho - weyl.apply(w, rho))
        val = shift * eta(self.psi_right(v, w))
        return val if v.length % 2 == 0 else -val

    def diagonal(self, v: WeylElt) -> LaurentPoly:
        """psi^v(v) = prod over Inv(v) of (1 - e^alpha)."""
        out = self._one()
        for alpha in weyl.inversions(v):
            alpha = self.datum.to_lattice(alpha, self.coeffs)
            out = out * (self._one() - LaurentPoly.monomial(alpha))
        return out


# -- GKM conditions ------------------------------------------------------------------


def gkm_check_big(psi_of, pairs) -> bool:
    """Big-torus GKM: psi(r_alpha w) - psi(w) in (1 - e^alpha) R(T).

    ``pairs`` iterates over (alpha: Weight, w: WeylElt) with alpha a positive
    real root and w an element of the same Weyl group; psi_of maps
    WeylElt -> LaurentPoly, is called at both ends of every pair and should
    be memoised (``PsiEngine.psi_right`` is).  The difference lies in the
    ideal exactly when psi(r_alpha w) and psi(w) have the same residue in
    Z[P/Z alpha].  Residues are memoised per (id of the value, alpha) within
    the call, stored beside the value so that no id is reused; a pair whose
    ends are one object (``psi_right`` shares psi^v(w r_i) = psi^v(w) when
    l(v r_i) > l(v)) is skipped, a zero value has residue {} unreduced, and
    r_alpha w is the edge remembered on w (``weyl.left_reflection``).
    """
    residues = {}

    def residue(p, alpha):
        key = (id(p), alpha)
        hit = residues.get(key)
        if hit is None:
            r = residue_mod_one_minus_e(p, alpha) if p else {}
            hit = residues[key] = (p, r)
        return hit[1]

    for alpha, w in pairs:
        p, q = psi_of(weyl.left_reflection(alpha, w)), psi_of(w)
        if p is not q and residue(p, alpha) != residue(q, alpha):
            return False
    return True


def _translation_sum(psi_of, datum: RootDatum, alpha_vee, lattice, m: int,
                     x: WeylElt) -> LaurentPoly:
    """sum_{k=0}^m (-1)^k C(m, k) psi(t_{k alpha^vee} x), over ``lattice``."""
    total = LaurentPoly.zero(lattice)
    for k in range(m + 1):
        t = weyl.translation(datum, tuple(k * c for c in alpha_vee))
        val = psi_of(weyl.multiply(t, x))
        total = total + val.scaled(-comb(m, k) if k % 2 else comb(m, k))
    return total


def small_gkm_grassmannian_check(psi_of, datum: RootDatum, alpha_vee, alpha,
                                 d: int, w: WeylElt) -> bool:
    """psi((1 - t_{alpha^vee})^d w) in (1 - e^alpha)^d R(T) (level zero).

    ``alpha_vee`` is the coroot as an integer vector (sum zero), ``alpha``
    the corresponding finite root weight.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    total = _translation_sum(psi_of, datum, alpha_vee, alpha.datum, d, w)
    return divisible_by_one_minus_e(total, alpha, d)


def small_gkm_check(psi_of, datum: RootDatum, alpha_vee, alpha, d: int,
                    w: WeylElt) -> bool:
    """psi((1 - t_{alpha^vee})^{d-1} (1 - r_alpha) w) in (1-e^alpha)^d R(T).

    r_alpha is the reflection in the level-zero real root alpha^vee (type A:
    root and coroot agree), taken positive, as r_alpha = r_{-alpha}."""
    if d < 1:
        raise ValueError("d must be >= 1")
    root = datum.weight(tuple(alpha_vee) + (0, 0))
    if next(c for c in alpha_vee if c) < 0:
        root = -root
    r_alpha_w = weyl.left_reflection(root, w)
    total = _translation_sum(psi_of, datum, alpha_vee, alpha.datum, d - 1, w) \
        - _translation_sum(psi_of, datum, alpha_vee, alpha.datum, d - 1, r_alpha_w)
    return divisible_by_one_minus_e(total, alpha, d)


# -- affine SL_2 closed forms -------------------------------------------------------


def sl2_sigma(datum: RootDatum, j: int) -> WeylElt:
    """sigma_j: sigma_{2i} = (r1 r0)^i, sigma_{-2i} = (r0 r1)^i,
    sigma_{2i+1} = r0 sigma_{2i}, sigma_{-(2i+1)} = r1 sigma_{-2i}."""
    if datum.window_n != 2:
        raise ValueError("sigma elements live in affine SL_2")
    word = []
    if j >= 0:
        word = [1, 0] * (j // 2)
        if j % 2:
            word = [0] + word
    else:
        j = -j
        word = [0, 1] * (j // 2)
        if j % 2:
            word = [1] + word
    return weyl.from_word(datum, word)


def _geom_sum_binom(coeffs_datum, step, a: int, m: int) -> LaurentPoly:
    """S^m_{<=a}(x) = sum_{t=0}^a binom(t+m-1, m-1) x^t with x = e^{step}."""
    terms = {}
    for t in range(a + 1):
        c = comb(t + m - 1, m - 1) if m > 0 else (1 if t == 0 else 0)
        if c:
            terms[coeffs_datum.weight(tuple(t * s for s in step.coords))] = c
    return LaurentPoly(coeffs_datum, terms)


def sl2_psi_closed(m: int, j: int) -> LaurentPoly:
    """Closed form for psi^{sigma_m}(sigma_j) over level-zero R(T), x = e^alpha."""
    fin = RootDatum.sl(2)
    alpha = fin.simple_root(1)
    one = LaurentPoly.one(fin)
    if m < 0:
        return eta(sl2_psi_closed(-m, -j))
    if m == 0:
        return one
    if j < 0:
        return sl2_psi_closed(m, -j - 1)
    if j < m:
        return LaurentPoly.zero(fin)
    # (1-x)^m S^m_{<=a}(x) on one parity family, the x -> 1/x mirror on the other
    d = j - m
    a = d // 2
    straight = (m % 2 == 0) == (d % 2 == 0)
    x = alpha if straight else -alpha
    base = one - LaurentPoly.monomial(x)
    out = _geom_sum_binom(fin, x, a, m)
    for _ in range(m):
        out = out * base
    return out


# -- wrong-way map -------------------------------------------------------------------


def wrongway(psi_of):
    """varpi(psi)(w) = psi(t_lam) where wW = t_lam W; constant on cosets."""
    def value(w: WeylElt) -> LaurentPoly:
        return psi_of(weyl.translation_of_coset(w))
    return value


def grassmannian_expansion(engine: PsiEngine, psi_of, max_len: int):
    """Expand a coset-constant function over {psi^u : u Grassmannian}.

    Solves triangularly on Grassmannian points by increasing length.  The
    pivot psi^u(u) is the product of (1 - e^beta) over beta in Inv(u)
    (``PsiEngine.diagonal``), so each nonzero residual is divided exactly by
    those binomials, one root at a time; raises ValueError if a division
    fails.  Returns {u: LaurentPoly} for l(u) <= max_len.
    """
    datum = engine.datum
    grass = [u for u in weyl.all_elements(datum, max_len) if weyl.is_grassmannian(u)]
    coeffs: dict[WeylElt, LaurentPoly] = {}
    for u in grass:
        residual = psi_of(u)
        for v, c in coeffs.items():
            residual = residual - c * engine.psi_right(v, u)
        if residual.is_zero():
            continue
        for beta in weyl.inversions(u):
            residual = exact_divide_one_minus_e(
                residual, datum.to_lattice(beta, engine.coeffs))
        coeffs[u] = residual
    return coeffs
