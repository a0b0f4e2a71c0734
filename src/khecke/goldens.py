"""Regeneration of the shipped golden tables and exact diffing against them.

The JSON files under ``tables/`` freeze the reference values every release
must reproduce (element-level term sets for the 0-Hecke tables; partitions
label everything else).  ``diff_table`` recomputes a table from scratch and
reports every discrepancy; an empty report is the acceptance condition.
"""

from __future__ import annotations

import json

from . import weyl
from .grothendieck import GrothendieckEngine

TABLE_KINDS = ("bijection", "k", "g", "coproduct", "G")

_FILES = {
    "bijection": "grass_kbounded.json",
    "k": "fs_k.json",
    "g": "g.json",
    "coproduct": "g_coproduct.json",
    "G": "G_F.json",
}


def load_golden(kind: str) -> dict:
    """The shipped golden ``kind`` table; ValueError for an unknown kind.
    ``importlib.resources`` is imported here, off every other command's path."""
    from importlib import resources

    if kind not in _FILES:
        raise ValueError(f"unknown table kind {kind!r}; known kinds: "
                         f"{', '.join(TABLE_KINDS)}")
    path = resources.files("khecke.tables").joinpath(_FILES[kind])
    return json.loads(path.read_text("utf-8"))


def golden_rows(kind: str, n: int) -> dict:
    """The golden ``kind`` table for rank n; ValueError if none is shipped."""
    golden = load_golden(kind).get(str(n))
    if golden is None:
        raise ValueError(f"no golden {kind} table for n={n}")
    return golden


def _parse_partition(label: str) -> tuple:
    return tuple(int(ch) for ch in label) if label else ()


def _partition_label(lam) -> str:
    return "".join(str(p) for p in lam)


# -- regeneration -----------------------------------------------------------------


def generate_bijection(n: int, labels) -> dict:
    engine = GrothendieckEngine.get(n)
    out = {}
    for label in labels:
        w = engine.grassmannian(_parse_partition(label))
        out[label] = weyl.word_str(w.word)
    return out


def generate_k(n: int, labels) -> dict:
    """phi_0(k_w) rows keyed by the golden row label, terms by canonical word."""
    engine = GrothendieckEngine.get(n)
    out = {}
    for label in labels:
        w = weyl.from_word(engine.datum, weyl.parse_word(label))
        out[label] = {weyl.word_str(x.word): c for x, c in
                      engine.varphi_g(weyl.partition_of_grassmannian(w)).items()}
    return out


def generate_g(n: int, labels) -> dict:
    engine = GrothendieckEngine.get(n)
    out = {}
    for label in labels:
        lam = _parse_partition(label)
        s = engine.g_in_s_basis(lam)
        k = engine.g_in_kschur_basis(lam)
        out[label] = {
            "s": {_partition_label(mu): c for mu, c in s.terms.items()},
            "kschur": {_partition_label(mu): c for mu, c in k.items()},
        }
    return out


def generate_coproduct(n: int, labels) -> dict:
    engine = GrothendieckEngine.get(n)
    out = {}
    for label in labels:
        delta = engine.g_coproduct(_parse_partition(label))
        out[label] = sorted(
            [[_partition_label(mu), _partition_label(nu), c]
             for (mu, nu), c in delta.terms.items()])
    return out


def generate_G(n: int, labels) -> dict:
    """F-expansions of G_v, each through its row's degree in the shipped table."""
    engine = GrothendieckEngine.get(n)
    golden = golden_rows("G", n)
    out = {}
    for label in labels:
        max_degree = golden[label]["max_degree"]
        v = engine.grassmannian(_parse_partition(label))
        F = engine.m_to_F(engine.G_of(v, max_degree))
        out[label] = {
            "F": {_partition_label(mu): c for mu, c in F.terms.items()},
            "max_degree": max_degree,
        }
    return out


_GENERATORS = {"bijection": generate_bijection, "k": generate_k, "g": generate_g,
               "coproduct": generate_coproduct, "G": generate_G}


def generate(kind: str, n: int) -> dict:
    """Table ``kind`` for rank n, recomputed on the shipped table's row labels."""
    labels = golden_rows(kind, n).keys()  # ValueError for an unknown kind
    return _GENERATORS[kind](n, labels)


# -- diffing ----------------------------------------------------------------------


def _canon_word_map(datum, table: dict) -> dict:
    """Re-key a {word: coeff} map by canonical words (element-level)."""
    out = {}
    for word, c in table.items():
        w = weyl.from_word(datum, weyl.parse_word(word))
        if w in out:
            raise ValueError(f"duplicate element {word} in table row")
        out[w] = c
    return out


def _canonical_row(kind: str, n: int):
    """Map a row of table ``kind`` to the form in which two rows are equal
    exactly when they agree: words become elements, coproduct triples are
    sorted, and ``g`` and ``G`` rows stay as stored."""
    datum = GrothendieckEngine.get(n).datum
    return {"bijection": lambda word: weyl.from_word(datum, weyl.parse_word(word)),
            "k": lambda terms: _canon_word_map(datum, terms),
            "coproduct": sorted}.get(kind, lambda row: row)


def diff_table(kind: str, n: int) -> list[str]:
    """Recompute table ``kind`` for rank n and diff; returns mismatch strings."""
    golden = golden_rows(kind, n)
    got = generate(kind, n)
    canonical = _canonical_row(kind, n)
    return [f"{kind} n={n} row {label}: {got[label]} != {want}"
            for label, want in golden.items()
            if canonical(got[label]) != canonical(want)]


def available_ranks(kind: str) -> list[int]:
    return sorted(int(k) for k in load_golden(kind))
