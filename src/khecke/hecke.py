"""The 0-Hecke ring and the (affine) K-NilHecke ring sum_w R(T) T_w.

Elements are finitely supported maps WeylElt -> LaurentPoly with the scalar
on the left: ``cartan.Combination``s whose ring is (datum, coefficient
lattice).  The public constructors drop zero coefficients; sums, negatives
and multiples wrap their dict with ``_new``.  Products fold one generator at
a time through the two rules

    T_i T_w = T_{r_i w}  (r_i w > w)   or   -T_w  (r_i w < w)
    T_i q   = (T_i . q) + (r_i . q) T_i

The first rule lives only in ``fold_T``; every product of pure T's (the
right tensor slot, the Pieri rule, structure constants, Graham-Willems
subwords) goes through it, walking the edges r_i w that each Weyl element
caches (``weyl.left_simple``), so a letter costs one lookup once its edge
is known.  ``int_mul`` is the product of integer elements {WeylElt: int},
with no LaurentPoly wrapping, and remembers nothing: the folds that repeat
are the rows kappa_r T_x, which ``GrothendieckEngine`` keeps; ``t_mul``
over R(T) is its test oracle.  The products over R(T) (``_gen_mul``,
``t_mul``, ``tensor_mul``, ``coproduct``) each sum their rows with one
``cartan.spread`` over their left factor's terms.

``group_elt_to_T``, ``y_elt`` and ``structure_constants_c`` take R(T) to be
``RootDatum.coefficient_lattice()``: the level-zero (finite) lattice on
affine data, the datum's own on finite data.
"""

from __future__ import annotations

from .cartan import (Combination, DatumMismatchError, LaurentPoly, demazure, phi0,
                     spread, weyl_reflect_poly)
from . import weyl
from .weyl import WeylElt


class _RCombination(Combination):
    """A Combination over ``datum`` with coefficients in R(T) = Z[P] over the
    ``coeffs`` lattice; the public constructor drops zero coefficients."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum, coeffs, terms=None):
        self.datum = datum
        self.coeffs = coeffs
        self.terms = {key: p for key, p in terms.items() if p} if terms else {}

    @property
    def _ring(self):
        return self.datum, self.coeffs

    def _new(self, terms):
        cls = self.__class__
        a = cls.__new__(cls)
        a.datum, a.coeffs, a.terms = self.datum, self.coeffs, terms
        return a

    def _compat(self, other):
        if self.datum is not other.datum or self.coeffs is not other.coeffs:
            raise DatumMismatchError(f"{self.__class__.__name__}s over different rings")
        return self


class HeckeElt(_RCombination):
    """sum_w a_w T_w with a_w in Z[P] over ``coeffs`` lattice."""

    __slots__ = ()

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def one(datum, coeffs) -> "HeckeElt":
        return HeckeElt(datum, coeffs, {weyl.identity(datum): LaurentPoly.one(coeffs)})

    @staticmethod
    def T(w: WeylElt, coeffs) -> "HeckeElt":
        return HeckeElt(w.datum, coeffs, {w: LaurentPoly.one(coeffs)})

    @staticmethod
    def scalar(datum, coeffs, p: LaurentPoly) -> "HeckeElt":
        return HeckeElt(datum, coeffs, {weyl.identity(datum): p})

    @staticmethod
    def from_int_terms(datum, coeffs, table) -> "HeckeElt":
        return HeckeElt(datum, coeffs,
                        {w: LaurentPoly.const(coeffs, c) for w, c in table.items()})

    def coefficient(self, w: WeylElt) -> LaurentPoly:
        return self.terms.get(w, LaurentPoly.zero(self.coeffs))

    def is_integer(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    def int_terms(self) -> dict[WeylElt, int]:
        return {w: p.constant_value() for w, p in self.terms.items()}

    def __repr__(self):
        bits = [f"({p!r})T[{weyl.word_str(w.word) or 'id'}]"
                for w, p in sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].word))]
        return " + ".join(bits) if bits else "0"

    def to_json(self) -> list[dict]:
        return [{"word": list(w.word), "coefficient": p.to_json()}
                for w, p in sorted(self.terms.items(),
                                   key=lambda t: (t[0].length, t[0].word))]


# -- products -------------------------------------------------------------------


def fold_T(word, v: WeylElt) -> tuple[int, WeylElt]:
    """T_{i_1} ... T_{i_k} T_v = sign * T_w for ``word`` = (i_1, ..., i_k),
    which need not be reduced."""
    sign, w = 1, v
    for i in reversed(word):
        riw = weyl.left_simple(i, w)
        if riw.length > w.length:
            w = riw
        else:
            sign = -sign
    return sign, w


def int_mul(a: dict, b: dict) -> dict:
    """Product of integer elements {WeylElt: int} of the 0-Hecke ring.

    Not a ``spread``: it is the inner loop of every kappa_r row."""
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            sign, w = fold_T(u.word, v)
            s = out.get(w, 0) + sign * c * d
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _gen_mul(i, a: HeckeElt) -> HeckeElt:
    """T_i * a: the rows (T_i . q) T_w and (r_i . q) T_i T_w of each term
    q T_w, spread at weight 1 because each row acts on its coefficient."""
    datum = a.datum

    def row(w):
        q = a.terms[w]
        sign, z = fold_T((i,), w)
        if q.is_constant():  # T_i . q = 0 and r_i . q = q
            return [(z, sign * q)]
        return [(w, demazure(datum, i, q)),
                (z, sign * weyl_reflect_poly(datum, i, q))]

    return a._new(spread(dict.fromkeys(a.terms, 1), row))


def t_word_mul(word, a: HeckeElt) -> HeckeElt:
    """T_{word} * a (word need not be canonical but must be reduced)."""
    for i in reversed(word):
        a = _gen_mul(i, a)
    return a


def t_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """a * b: T_u * b spread over the terms p T_u of a."""
    return a._compat(b)._new(
        spread(a.terms, lambda u: t_word_mul(u.word, b).terms.items()))


def group_elt_to_T(w: WeylElt) -> HeckeElt:
    """Expansion of the group element w via r_i = 1 + (1 - e^{alpha_i}) T_i."""
    datum = w.datum
    coeffs = datum.coefficient_lattice()
    action = datum.simple_action(coeffs)
    acc = HeckeElt.one(datum, coeffs)
    for i in reversed(w.word):
        factor = LaurentPoly.one(coeffs) - LaurentPoly.monomial(action[i][1])
        acc = acc + _gen_mul(i, acc).scaled(factor)
    return acc


def y_elt(w: WeylElt) -> HeckeElt:
    """y_w = sum_{v <= w} T_v."""
    datum = w.datum
    coeffs = datum.coefficient_lattice()
    return HeckeElt(datum, coeffs,
                    {v: LaurentPoly.one(coeffs) for v in weyl.bruhat_ideal(w)})


def phi0_hecke(a: HeckeElt) -> HeckeElt:
    """Coefficientwise evaluation at 0 (integer coefficients)."""
    return HeckeElt(a.datum, a.coeffs,
                    {w: LaurentPoly.const(a.coeffs, phi0(p))
                     for w, p in a.terms.items()})


# -- coproduct --------------------------------------------------------------------


class TensorElt(_RCombination):
    """sum c_{u,v} T_u (x) T_v over R(T), scalars pulled to the left slot."""

    __slots__ = ()

    @staticmethod
    def one(datum, coeffs):
        e = weyl.identity(datum)
        return TensorElt(datum, coeffs, {(e, e): LaurentPoly.one(coeffs)})

    def coefficient(self, u, v) -> LaurentPoly:
        return self.terms.get((u, v), LaurentPoly.zero(self.coeffs))

    def __repr__(self):
        bits = [f"({p!r})T[{weyl.word_str(u.word) or 'id'}]xT[{weyl.word_str(v.word) or 'id'}]"
                for (u, v), p in sorted(
                    self.terms.items(),
                    key=lambda t: (t[0][0].length, t[0][0].word, t[0][1].length, t[0][1].word))]
        return " + ".join(bits) if bits else "0"


def tensor_mul(A: TensorElt, B: TensorElt) -> TensorElt:
    """Componentwise product on canonical left-reduced representatives.

    The right factor's scalar sits in its left slot, so the left-slot
    product T_u (q T_{u2}) is a genuine K-product (the scalar twists through
    T_u via the commutation rule); the right slot multiplies as pure T's.
    """
    def row(uv):
        u, v = uv
        for (u2, v2), q in B.terms.items():
            sign, vv = fold_T(v.word, v2)
            left = t_word_mul(u.word, HeckeElt(A.datum, A.coeffs, {u2: q}))
            for z, c in left.terms.items():
                yield (z, vv), sign * c

    return A._compat(B)._new(spread(A.terms, row))


def coproduct_T_simple(datum, coeffs, i) -> TensorElt:
    """Delta(T_i) = 1 (x) T_i + T_i (x) 1 + (1 - e^{alpha_i}) T_i (x) T_i."""
    e = weyl.identity(datum)
    ri = weyl.simple(datum, i)
    one = LaurentPoly.one(coeffs)
    return TensorElt(datum, coeffs, {
        (e, ri): one,
        (ri, e): one,
        (ri, ri): one - LaurentPoly.monomial(datum.simple_action(coeffs)[i][1]),
    })


def coproduct(a: HeckeElt) -> TensorElt:
    """Delta on K: fold Delta(T_i) along canonical words, R(T)-linear on the
    left, spread over the terms of a."""
    def row(w):
        acc = TensorElt.one(a.datum, a.coeffs)
        for i in w.word:
            acc = tensor_mul(acc, coproduct_T_simple(a.datum, a.coeffs, i))
        return acc.terms.items()

    return TensorElt(a.datum, a.coeffs, spread(a.terms, row))


def structure_constants_c(w: WeylElt) -> dict:
    """c_w^{uv} with Delta(T_w) = sum c_w^{uv} T_u (x) T_v."""
    return dict(coproduct(HeckeElt.T(w, w.datum.coefficient_lattice())).terms)


def phi0_tensor(A: TensorElt) -> TensorElt:
    return TensorElt(A.datum, A.coeffs,
                     {uv: LaurentPoly.const(A.coeffs, phi0(p))
                      for uv, p in A.terms.items()})
