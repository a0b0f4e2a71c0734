"""Partitions and symmetric functions in the m, h, s bases over Z.

Transition matrices go through Kostka numbers (semistandard tableau counts,
cached per degree).  A change of basis is a sum of rows (``spread``, from
``cartan``; so are the h x h product and Delta(h_lam)) or an
exact integer unitriangular solve (``peel``), which visits a fixed key
order once: the partitions of each degree in lex order, which refines
dominance.  The Hall pairing is the h/m duality <h_lam, m_mu> = delta.

The quotient Lambda^(n) kills m_lam with lam_1 >= n; the subalgebra
Lambda_(n) = Z[h_1, ..., h_{n-1}] uses h_lam with parts < n.

Partitions are enumerated once per (n, cap) and ``partitions_of`` copies
the memo.  ``SymFunc`` and ``TensorSym`` are ``cartan.Combination``s with
integer coefficients.  Their public constructors normalise keys through
``make_partition`` and drop zeros; ``_trusted`` keeps a dict whose keys are
partitions and values nonzero (kappa rows, ``spread`` sums of partition
rows), and so do sums, negatives and multiples, whose keys are already
partitions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

from .cartan import Combination, spread

Partition = tuple  # weakly decreasing positive ints


def make_partition(parts: Iterable[int]) -> Partition:
    parts = tuple(sorted((p for p in parts if p != 0), reverse=True))
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be positive")
    return parts


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """Partitions of n (parts <= max_part), lex-descending.  Refuses with
    ValueError to list more than MAX_PARTITIONS of them."""
    key = (n, n if max_part is None else min(max_part, n))
    if key not in _PARTITIONS:
        ways = [1] + [0] * max(n, 0)  # ways[m]: partitions of m, parts so far
        for p in range(1, key[1] + 1):
            for m in range(p, n + 1):
                ways[m] += ways[m - p]
        if ways[n] > MAX_PARTITIONS:
            raise ValueError(f"{n} has {ways[n]} partitions with parts <= {key[1]}, "
                             f"more than {MAX_PARTITIONS} to list")
        _fill_partitions(key)
    return list(_PARTITIONS[key])


MAX_PARTITIONS = 10**6
_PARTITIONS: dict[tuple[int, int], tuple] = {}


def _fill_partitions(key: tuple[int, int]):
    """Memoise the partitions of m with parts <= c for (m, c) = key: p then
    each partition of m - p with parts <= p, for p from min(c, m) down.  The
    (m - p, p) are filled first, from an explicit stack, so a long partition
    costs no recursion."""
    stack = [key]
    while stack:
        m, c = stack[-1]
        subs = [(m - p, p) for p in range(min(c, m), 0, -1)]
        todo = [sub for sub in subs if sub not in _PARTITIONS]
        stack += todo
        if not todo:
            stack.pop()
            _PARTITIONS[m, c] = tuple((p,) + rest for rest_m, p in subs
                                      for rest in _PARTITIONS[rest_m, p]) if m else ((),)


def partitions_up_to(n: int, max_part: int | None = None) -> list[Partition]:
    return [lam for d in range(n + 1) for lam in partitions_of(d, max_part)]


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order (same size)."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for k in range(max(len(lam), len(mu))):
        a += lam[k] if k < len(lam) else 0
        b += mu[k] if k < len(mu) else 0
        if a < b:
            return False
    return True


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of SSYT of shape lam and content mu."""
    if sum(lam) != sum(mu):
        return 0
    if not lam:
        return 1
    if not dominates(lam, mu):
        return 0
    # peel a horizontal strip of size mu[-1] for the largest entry
    last = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _horizontal_strips_below(lam, last):
        total += kostka(nu, rest)
    return total


def _horizontal_strips_below(lam: Partition, size: int):
    """Shapes nu <= lam with lam/nu a horizontal strip of the given size."""
    rows = len(lam)

    def rec(i, rem, prev_nu, acc):
        if i == rows:
            if rem == 0:
                yield make_partition(acc)
            return
        low = lam[i + 1] if i + 1 < rows else 0
        hi = min(lam[i], prev_nu)  # nu interlaces: lam_{i+1} <= nu_i <= lam_i
        for nu_i in range(hi, low - 1, -1):
            take = lam[i] - nu_i
            if take <= rem:
                yield from rec(i + 1, rem - take, nu_i, acc + [nu_i])

    yield from rec(0, size, 10 ** 9, [])


_BASES = ("m", "h", "s", "F", "G", "g", "kschur")


class SymFunc(Combination):
    """Basis-tagged finitely supported integer map on partitions.  ``n`` is
    the bound context; equality ignores it."""

    __slots__ = ("basis", "n")

    def __init__(self, basis: str, terms: Mapping[Partition, int] | None = None,
                 n: int | None = None):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.n = n
        self.terms = {}
        if terms:
            for lam, c in terms.items():
                if c:
                    self.terms[make_partition(lam)] = c

    @classmethod
    def _trusted(cls, basis: str, terms: dict, n: int | None = None) -> "SymFunc":
        """Wrap ``terms`` as is: partition keys, no zero values."""
        f = cls.__new__(cls)
        f.basis, f.terms, f.n = basis, terms, n
        return f

    @staticmethod
    def zero(basis="m", n=None) -> "SymFunc":
        return SymFunc(basis, {}, n)

    @staticmethod
    def gen(basis, lam, n=None) -> "SymFunc":
        return SymFunc(basis, {make_partition(lam): 1}, n)

    @property
    def _ring(self):
        return self.basis

    def _new(self, terms) -> "SymFunc":
        return SymFunc._trusted(self.basis, terms, self.n)

    def _compat(self, other):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch {self.basis!r} vs {other.basis!r}"
                             " (convert explicitly)")
        if self.n != other.n and self.n is not None and other.n is not None:
            raise ValueError("bound-context mismatch")
        return self if self.n else other

    def max_degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def degree_part(self, d: int) -> "SymFunc":
        return SymFunc(self.basis,
                       {lam: c for lam, c in self.terms.items() if sum(lam) == d},
                       self.n)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            label = f"{self.basis}{''.join(map(str, lam)) or '()'}"
            bits.append(f"{c}*{label}" if c != 1 else label)
        return " + ".join(bits)

    def to_json(self):
        return {"basis": self.basis, "n": self.n,
                "terms": [{"partition": list(lam), "coeff": c}
                          for lam, c in self.sorted_terms()]}

    @staticmethod
    def from_json(data) -> "SymFunc":
        return SymFunc(data["basis"],
                       {tuple(rec["partition"]): rec["coeff"]
                        for rec in data["terms"]}, data.get("n"))


# -- transition matrices -------------------------------------------------------


@lru_cache(maxsize=None)
def _s_to_m_row(lam: Partition) -> tuple:
    d = sum(lam)
    return tuple(sorted((mu, kostka(lam, mu)) for mu in partitions_of(d)
                        if kostka(lam, mu)))


@lru_cache(maxsize=None)
def _h_to_s_row(mu: Partition) -> tuple:
    """h_mu = sum_lam K_{lam mu} s_lam."""
    d = sum(mu)
    return tuple(sorted((lam, kostka(lam, mu)) for lam in partitions_of(d)
                        if kostka(lam, mu)))


def peel(terms: Mapping, order, row) -> tuple[dict, dict]:
    """Solve terms = sum c_key * row(key) by unitriangular peeling: visit the
    keys of ``order`` once each, in order, skipping those not in the
    residual; at a key with residual coefficient c record c and subtract
    c * row(key), whose (key', a) pairs hold key with a = 1.  Exact when each
    row adds only keys later in ``order`` or outside it.  Returns the
    coefficients and the leftover residual, which it updates in place
    rather than by ``spread``, as it reads it key by key."""
    residual = {key: c for key, c in terms.items() if c}
    out = {}
    for key in order:
        c = residual.get(key)
        if not c:
            continue
        out[key] = c
        for mu, a in row(key):
            s = residual.get(mu, 0) - c * a
            if s:
                residual[mu] = s
            else:
                residual.pop(mu, None)
    return out, residual


def _lex_ascending(f: SymFunc) -> list[Partition]:
    """The partitions of f's degrees, lex-ascending within each degree; lex
    order refines dominance, so it orders the triangular m, h, s rows."""
    return [lam for d in sorted({sum(lam) for lam in f.terms})
            for lam in reversed(partitions_of(d))]


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis among m, h, s."""
    if target not in ("m", "h", "s"):
        raise ValueError("convert targets m, h, s only")
    if f.basis == target:
        return f
    if f.basis == "h" and target == "m":
        return convert(convert(f, "s"), "m")
    if f.basis == "s" and target == "m":
        return SymFunc._trusted("m", spread(f.terms, _s_to_m_row), f.n)
    if f.basis == "h" and target == "s":
        return SymFunc._trusted("s", spread(f.terms, _h_to_s_row), f.n)
    if f.basis == "m" and target == "s":
        # s_lam = m_lam + dominance-smaller terms: peel lex-descending
        out, _ = peel(f.terms, reversed(_lex_ascending(f)), _s_to_m_row)
        return SymFunc._trusted("s", out, f.n)
    if f.basis == "s" and target == "h":
        # h_mu = s_mu + dominance-larger terms: peel lex-ascending
        out, _ = peel(f.terms, _lex_ascending(f), _h_to_s_row)
        return SymFunc._trusted("h", out, f.n)
    if f.basis == "m" and target == "h":
        return convert(convert(f, "s"), "h")
    raise ValueError(f"cannot convert basis {f.basis!r}")


# -- products, pairing, coproduct -------------------------------------------------


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product; h x h concatenates parts, anything else goes through h."""
    if f.basis == "h" and g.basis == "h":
        return SymFunc._trusted("h", spread(f.terms, lambda lam: [
            (make_partition(lam + mu), b) for mu, b in g.terms.items()]), f.n or g.n)
    fh, gh = convert(f, "h"), convert(g, "h")
    prod = multiply(fh, gh)
    if f.basis == g.basis and f.basis in ("m", "s"):
        return convert(prod, f.basis)
    return prod


def hall_pair(f: SymFunc, g: SymFunc) -> int:
    """<f, g> with f in the h basis and g in the m basis (dual bases)."""
    if f.basis != "h" or g.basis != "m":
        raise ValueError("hall_pair expects (h-basis, m-basis); convert explicitly")
    return sum(c * g.terms.get(lam, 0) for lam, c in f.terms.items())


class TensorSym(Combination):
    """Finitely supported integer map on pairs of partitions, fixed bases."""

    __slots__ = ("bases", "n")

    def __init__(self, bases, terms=None, n=None):
        self.bases = bases
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[(make_partition(key[0]), make_partition(key[1]))] = c

    @classmethod
    def _trusted(cls, bases, terms: dict, n=None) -> "TensorSym":
        """Wrap ``terms`` as is: partition-pair keys, no zero values."""
        t = cls.__new__(cls)
        t.bases, t.terms, t.n = bases, terms, n
        return t

    @property
    def _ring(self):
        return self.bases

    def _new(self, terms) -> "TensorSym":
        return TensorSym._trusted(self.bases, terms, self.n)

    def _compat(self, other):
        if self.bases != other.bases:
            raise ValueError("tensor basis mismatch")
        return self if self.n else other

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0][0]), t[0][0], sum(t[0][1]), t[0][1]))

    def __repr__(self):
        b1, b2 = self.bases
        bits = [f"{c}*{b1}{''.join(map(str, l))}(x){b2}{''.join(map(str, r))}"
                for (l, r), c in self.sorted_terms()]
        return " + ".join(bits) if bits else "0"


@lru_cache(maxsize=None)
def _delta_h(lam: Partition) -> tuple:
    """Delta(h_lam) as an item tuple of ((left, right), coefficient)."""
    acc = {((), ()): 1}
    for r in lam:
        acc = spread(acc, lambda key: [
            ((make_partition(key[0] + (j,)), make_partition(key[1] + (r - j,))), 1)
            for j in range(r + 1)])
    return tuple(acc.items())


def coproduct_h(f: SymFunc) -> TensorSym:
    """Delta on Z[h_1, h_2, ...]: Delta(h_r) = sum_j h_j (x) h_{r-j},
    extended multiplicatively."""
    if f.basis != "h":
        raise ValueError("coproduct_h expects the h basis")
    return TensorSym._trusted(("h", "h"), spread(f.terms, _delta_h), f.n)
