"""Text and LaTeX rendering of ring elements for the CLI."""

from __future__ import annotations

from .cartan import LaurentPoly
from . import weyl
from .symfunc import SymFunc, TensorSym


def render_exponent(w) -> str:
    """Weight as a simple-root combination of its datum: 'a1+2a2', or raw coords."""
    coords = w.datum.root_coords(w)
    if coords is None:
        return "[" + ",".join(map(str, w.coords)) + "]"
    bits = []
    for node, c in zip(w.datum.nodes, coords):
        if c == 0:
            continue
        name = f"a{node}"
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}{name}"
        bits.append(term if not bits or term.startswith("-") else "+" + term)
    return "".join(bits) if bits else "0"


def _signed_sum(pairs) -> str:
    """Join (negative, text) terms as a signed sum: "0" when there are none,
    a bare "-" before a negative first term, "+ " or "- " before the rest."""
    bits = []
    for negative, text in pairs:
        if bits:
            bits.append(("- " if negative else "+ ") + text)
        else:
            bits.append(("-" if negative else "") + text)
    return " ".join(bits) if bits else "0"


def render_poly(p: LaurentPoly) -> str:
    def term(w, c):
        if w.is_zero():
            return str(abs(c))
        mag = "" if abs(c) == 1 else f"{abs(c)}"
        return f"{mag}e^({render_exponent(w)})"

    return _signed_sum((c < 0, term(w, c)) for w, c in sorted(
        p.terms.items(), key=lambda t: (not t[0].is_zero(), t[0].coords)))


def render_hecke(a) -> str:
    def term(w, p):
        label = f"T[{weyl.word_str(w.word) or ''}]"
        if not p.is_constant():
            return False, f"({render_poly(p)})*{label}"
        c = p.constant_value()
        return c < 0, ("" if abs(c) == 1 else f"{abs(c)}*") + label

    return _signed_sum(term(w, p) for w, p in sorted(a.terms.items()))


_PREFIX = {"m": "m", "h": "h", "s": "s", "F": "F", "G": "G", "g": "g",
           "kschur": "s"}


def _label(basis: str, lam, latex: bool) -> str:
    body = "".join(map(str, lam))
    if latex:
        return f"{_PREFIX[basis]}_{{{body}}}" if body else "1"
    return f"{_PREFIX[basis]}{body}" if body else "1"


def render_symfunc(f: SymFunc, latex: bool = False) -> str:
    def term(lam, c):
        label = _label(f.basis, lam, latex)
        if label == "1":
            return str(abs(c))
        return label if abs(c) == 1 else f"{abs(c)}{label}"

    return _signed_sum((c < 0, term(lam, c)) for lam, c in f.sorted_terms())


def render_tensor(t: TensorSym, latex: bool = False) -> str:
    """A tensor of g's (the g-coproduct)."""
    otimes = " \\otimes " if latex else "(x)"

    def term(mu, nu, c):
        label = _label("g", mu, latex) + otimes + _label("g", nu, latex)
        return label if abs(c) == 1 else f"{abs(c)} {label}"

    return _signed_sum((c < 0, term(mu, nu, c)) for (mu, nu), c in t.sorted_terms())


def render_int_map(pairs, label) -> str:
    bits = [f"{label(k)}: {v}" for k, v in pairs]
    return "{" + ", ".join(bits) + "}"
