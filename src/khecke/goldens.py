"""Regeneration of the shipped golden tables and exact diffing against them.

The JSON files under ``tables/`` freeze the reference values every release
must reproduce (element-level term sets for the 0-Hecke tables; partitions
label everything else).  ``_KINDS`` is the one table of kinds: each names
its file, how one row is recomputed, and the form in which two rows are
equal exactly when they agree.  ``generate`` recomputes a table on the
shipped row labels and ``diff_table`` reports every discrepancy; an empty
report is the acceptance condition.
"""

from __future__ import annotations

import json

from . import weyl
from .grothendieck import GrothendieckEngine


def _parse_partition(label: str) -> tuple:
    return tuple(int(ch) for ch in label) if label else ()


def _partition_label(lam) -> str:
    return "".join(str(p) for p in lam)


def _by_label(terms) -> dict:
    return {_partition_label(mu): c for mu, c in terms.items()}


def _element(datum, word: str):
    return weyl.from_word(datum, weyl.parse_word(word))


# -- rows: row(engine, label, golden_row) recomputes one row ---------------------


def _bijection_row(engine, label, golden):
    return weyl.word_str(engine.grassmannian(_parse_partition(label)).word)


def _k_row(engine, label, golden):
    """phi_0(k_w), terms keyed by canonical word."""
    w = _element(engine.datum, label)
    return {weyl.word_str(x.word): c for x, c in
            engine.varphi_g(weyl.partition_of_grassmannian(w)).items()}


def _g_row(engine, label, golden):
    lam = _parse_partition(label)
    return {"s": _by_label(engine.g_in_s_basis(lam).terms),
            "kschur": _by_label(engine.g_in_kschur_basis(lam))}


def _coproduct_row(engine, label, golden):
    delta = engine.g_coproduct(_parse_partition(label))
    return sorted([[_partition_label(mu), _partition_label(nu), c]
                   for (mu, nu), c in delta.terms.items()])


def _G_row(engine, label, golden):
    """F-expansion of G_v through the degree of the shipped row."""
    max_degree = golden["max_degree"]
    v = engine.grassmannian(_parse_partition(label))
    F = engine.m_to_F(engine.G_of(v, max_degree))
    return {"F": _by_label(F.terms), "max_degree": max_degree}


# -- canonical forms: words become elements, coproduct triples are sorted --------


def _canon_word_map(datum, table: dict) -> dict:
    """Re-key a {word: coeff} map by canonical words (element-level)."""
    out = {}
    for word, c in table.items():
        w = _element(datum, word)
        if w in out:
            raise ValueError(f"duplicate element {word} in table row")
        out[w] = c
    return out


def _as_stored(datum, row):
    return row


_KINDS = {
    "bijection": ("grass_kbounded.json", _bijection_row, _element),
    "k": ("fs_k.json", _k_row, _canon_word_map),
    "g": ("g.json", _g_row, _as_stored),
    "coproduct": ("g_coproduct.json", _coproduct_row, lambda datum, row: sorted(row)),
    "G": ("G_F.json", _G_row, _as_stored),
}

TABLE_KINDS = tuple(_KINDS)


def load_golden(kind: str) -> dict:
    """The shipped golden ``kind`` table; ValueError for an unknown kind.
    ``importlib.resources`` is imported here, off every other command's path."""
    from importlib import resources

    if kind not in _KINDS:
        raise ValueError(f"unknown table kind {kind!r}; known kinds: "
                         f"{', '.join(TABLE_KINDS)}")
    path = resources.files("khecke.tables").joinpath(_KINDS[kind][0])
    return json.loads(path.read_text("utf-8"))


def golden_rows(kind: str, n: int) -> dict:
    """The golden ``kind`` table for rank n; ValueError if none is shipped."""
    golden = load_golden(kind).get(str(n))
    if golden is None:
        raise ValueError(f"no golden {kind} table for n={n}")
    return golden


def generate(kind: str, n: int) -> dict:
    """Table ``kind`` for rank n, recomputed on the shipped table's row labels."""
    golden = golden_rows(kind, n)  # ValueError for an unknown kind
    row = _KINDS[kind][1]
    engine = GrothendieckEngine.get(n)
    return {label: row(engine, label, want) for label, want in golden.items()}


def diff_table(kind: str, n: int) -> list[str]:
    """Recompute table ``kind`` for rank n and diff; returns mismatch strings."""
    golden = golden_rows(kind, n)
    got = generate(kind, n)
    canonical = _KINDS[kind][2]
    datum = GrothendieckEngine.get(n).datum
    return [f"{kind} n={n} row {label}: {got[label]} != {want}"
            for label, want in golden.items()
            if canonical(datum, got[label]) != canonical(datum, want)]


def available_ranks(kind: str) -> list[int]:
    return sorted(int(k) for k in load_golden(kind))
