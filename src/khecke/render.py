"""Text and LaTeX rendering of ring elements for the CLI."""

from __future__ import annotations

from .cartan import LaurentPoly, RootDatum
from . import weyl
from .symfunc import SymFunc, TensorSym


def render_exponent(datum: RootDatum, w) -> str:
    """Weight as a simple-root combination: 'a1+2a2', or raw coords."""
    coords = datum.root_coords(w)
    if coords is None:
        return "[" + ",".join(map(str, w.coords)) + "]"
    bits = []
    for node, c in zip(datum.nodes, coords):
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


def render_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for w, c in sorted(p.terms.items(), key=lambda t: (not t[0].is_zero(), t[0].coords)):
        if w.is_zero():
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}"
            term = f"{mag}e^({render_exponent(p.datum, w)})"
        if not bits:
            bits.append(("-" if c < 0 else "") + term)
        else:
            bits.append(("- " if c < 0 else "+ ") + term)
    return " ".join(bits)


def render_hecke(a) -> str:
    if a.is_zero():
        return "0"
    bits = []
    for w, p in sorted(a.terms.items(), key=lambda t: (t[0].length, t[0].word)):
        label = f"T[{weyl.word_str(w.word) or ''}]"
        if p.is_constant():
            c = p.constant_value()
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term, neg = f"{mag}{label}", c < 0
        else:
            term, neg = f"({render_poly(p)})*{label}", False
        if not bits:
            bits.append(("-" if neg else "") + term)
        else:
            bits.append(("- " if neg else "+ ") + term)
    return " ".join(bits)


_PREFIX = {"m": "m", "h": "h", "s": "s", "F": "F", "G": "G", "g": "g",
           "kschur": "s"}


def _label(basis: str, lam, latex: bool) -> str:
    body = "".join(map(str, lam))
    if latex:
        return f"{_PREFIX[basis]}_{{{body}}}" if body else "1"
    return f"{_PREFIX[basis]}{body}" if body else "1"


def render_symfunc(f: SymFunc, latex: bool = False) -> str:
    if f.is_zero():
        return "0"
    bits = []
    for lam, c in f.sorted_terms():
        term = _label(f.basis, lam, latex)
        if abs(c) != 1 or term == "1":
            term = f"{abs(c)}{term}" if term != "1" else str(abs(c))
        if not bits:
            bits.append(("-" if c < 0 else "") + term)
        else:
            bits.append(("- " if c < 0 else "+ ") + term)
    return " ".join(bits)


def render_tensor(t: TensorSym, latex: bool = False) -> str:
    """A tensor of g's (the g-coproduct)."""
    if t.is_zero():
        return "0"
    otimes = " \\otimes " if latex else "(x)"
    bits = []
    for (mu, nu), c in t.sorted_terms():
        lab = _label("g", mu, latex) + otimes + _label("g", nu, latex)
        term = lab if abs(c) == 1 else f"{abs(c)} {lab}"
        if not bits:
            bits.append(("-" if c < 0 else "") + term)
        else:
            bits.append(("- " if c < 0 else "+ ") + term)
    return " ".join(bits)


def render_int_map(pairs, label=lambda k: str(k)) -> str:
    bits = [f"{label(k)}: {v}" for k, v in pairs]
    return "{" + ", ".join(bits) + "}"
