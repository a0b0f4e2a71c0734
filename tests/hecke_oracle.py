"""Left-fold oracles of ``hecke.times_T``, the package's one integer 0-Hecke
product.  They fold by the other rule, T_i T_w = T_{r_i w} (r_i w > w) or
-T_w (r_i w < w), walking the left edges ``weyl.left_simple``, so they share
no edge with the right fold they check."""

from khecke import weyl
from khecke.weyl import WeylElt


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
    """Product of integer elements {WeylElt: int} of the 0-Hecke ring, each
    term of ``a`` folded onto each term of ``b`` by ``fold_T``."""
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
