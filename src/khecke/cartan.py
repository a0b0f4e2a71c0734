"""Root data, weight lattices, and the Laurent coefficient ring Z[P].

Three kinds of root datum are supported, each given by its simple roots,
coroot rows, fundamental weights and (affine) marks; ``RootDatum`` derives
the GCM, rank and flavor from them and ``_check_gcm`` checks that matrix:

* ``RootDatum.sl(n)`` -- finite type A_{n-1} with weights in Z^n modulo the
  all-ones vector, canonicalized so the last coordinate is zero.  This keeps
  pairings against simple coroots as coordinate differences.
* ``RootDatum.affine_sl(n)`` -- untwisted affine type A_{n-1}^(1).  Weights
  carry coordinates (finite part in Z^n mod all-ones, level, degree), i.e.
  lambda = fin + level*Lambda_0 + degree*delta.
* ``RootDatum.from_cartan(...)`` -- a generic symmetrizable GCM, weights in
  the fundamental-weight basis (finite), optionally affinized with an extra
  delta coordinate (``affinize_cartan``; ``of_type`` names C2~ and G2~).

R(T) is Z[P] over a coefficient lattice of the datum: its own (big torus)
or, for ``affine_sl`` data, the finite companion's (level zero: delta,
Lambda_0 -> 0, alpha_0 -> -theta).  ``RootDatum.coefficient_lattice`` is the
one rule from a flavor to a lattice and ``RootDatum.simple_action`` the one
source of the simple reflections' action there; no other module tests a
flavor.

Every ``Weight`` holds canonical coordinates: the constructor applies
``RootDatum.canon``, so equal lattice elements compare and hash equal.
Canonical coordinates have a zero at the last nonzero entry of the quotient
vector, which is 1; sums, differences, negatives and multiples keep that
zero, so the weight operations build their results with the private
``Weight._canonical`` and skip ``canon``.

``Combination`` is the one linear structure of the package: a finitely
supported map from keys to nonzero coefficients (ints or LaurentPolys) with
sums, negation, scaling, equality and hashing.  LaurentPoly, the 0-Hecke
elements (``hecke``) and the symmetric functions (``symfunc``) subclass it
and add their own constructors and products.  ``spread`` beside it is the
one sum of rows, for ``demazure``, ``symfunc``, ``grothendieck`` and the
R(T) products of ``hecke``; ``Combination.__radd__`` takes its int start.

LaurentPoly is the integer group algebra of the weight lattice: a finitely
supported map Weight -> nonzero int.  The public constructor checks each
term's lattice and drops zeros; the ring operations, ``eta``, ``demazure``,
``weyl_reflect_poly`` and the exact division build their results with the
private ``_new`` of an operand, after checking the lattice once.  All
arithmetic is exact; there is no rational-function arithmetic anywhere in
the package.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Mapping


# A<n> for n >= 1, written without a leading zero
_TYPE_A = re.compile(r"A[1-9][0-9]*")


class DatumMismatchError(ValueError):
    """Raised when weights/elements from different root data are mixed."""


class VerificationError(RuntimeError):
    """Two independent computations of one quantity disagree."""


class RootDatum:
    """A symmetrizable generalized Cartan matrix embedded in a lattice.

    ``nodes`` is the ordered Dynkin index set.  Derived, not given:
    ``cartan[i][j]`` = <alpha_i^vee, alpha_j>, ``rank`` (the length of the
    coordinates) and ``flavor``, ``"affine"`` exactly when marks a_i with
    delta = sum a_i alpha_i are given, else ``"finite"``.
    """

    def __init__(self, name, nodes, simple_roots, coroot_rows,
                 fundamental_weights, quotient_vector=None, marks=None,
                 finite=None):
        self.name = name
        self.nodes = tuple(nodes)
        self._simple_roots = {i: tuple(v) for i, v in simple_roots.items()}
        # row vectors: <alpha_i^vee, lam> = dot(coroot_rows[i], lam.coords)
        self._coroot_rows = {i: tuple(v) for i, v in coroot_rows.items()}
        self._fundamental = {i: tuple(v) for i, v in fundamental_weights.items()}
        self.cartan = {i: {j: self._dot(self._coroot_rows[i], self._simple_roots[j])
                           for j in self.nodes} for i in self.nodes}
        self.rank = len(next(iter(self._fundamental.values()), ()))  # 0: no nodes
        self.flavor = "affine" if marks else "finite"
        self.quotient_vector = tuple(quotient_vector) if quotient_vector else None
        self._qlast = None
        if self.quotient_vector is not None:
            self._qlast = max(k for k, c in enumerate(self.quotient_vector) if c)
        self.marks = dict(marks) if marks else None
        self.finite = finite  # companion finite datum (affine flavor only)
        self.window_n = None  # set for affine_sl data (window representation)
        self._check_gcm()
        self._actions = {}  # coefficient lattice -> simple_action

    # -- construction ------------------------------------------------------
    # sl / affine_sl / of_type return canonical shared instances, because
    # weights and Weyl elements compare by datum identity: functools.cache
    # keeps one per argument (of_type's stripped), and caches no error.

    @staticmethod
    @functools.cache
    def sl(n: int) -> "RootDatum":
        """SL_n root datum: Z^n mod the all-ones vector."""
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
        nodes = tuple(range(1, n))
        e = lambda k: tuple(1 if t == k else 0 for t in range(n))
        roots = {i: tuple(a - b for a, b in zip(e(i - 1), e(i))) for i in nodes}
        coroots = dict(roots)  # pairing <alpha_i^vee, .> = x_i - x_{i+1}
        fund = {i: tuple(1 if t < i else 0 for t in range(n)) for i in nodes}
        return RootDatum(f"A{n-1}:sl{n}", nodes, roots, coroots, fund,
                         quotient_vector=(1,) * n)

    @staticmethod
    @functools.cache
    def affine_sl(n: int) -> "RootDatum":
        """Affine SL_n datum on coordinates (Z^n mod ones, level, degree)."""
        if n < 2:
            raise ValueError("affine_sl(n) needs n >= 2")
        fin = RootDatum.sl(n)
        nodes = tuple(range(n))
        ext = lambda v, lev, deg: tuple(v) + (lev, deg)
        roots = {i: ext(fin._simple_roots[i], 0, 0) for i in fin.nodes}
        # alpha_0 = delta - theta, theta = e_1 - e_n
        theta = tuple((1 if t == 0 else 0) - (1 if t == n - 1 else 0) for t in range(n))
        roots[0] = ext(tuple(-x for x in theta), 0, 1)
        coroots = {i: ext(fin._coroot_rows[i], 0, 0) for i in fin.nodes}
        # <alpha_0^vee, lam> = level - <theta^vee, fin(lam)>
        coroots[0] = ext(tuple(-x for x in theta), 1, 0)
        fund = {i: ext(fin._fundamental[i], 1, 0) for i in fin.nodes}
        fund[0] = ext((0,) * n, 1, 0)
        marks = {i: 1 for i in nodes}
        datum = RootDatum(f"A{n-1}~:sl{n}", nodes, roots, coroots, fund,
                          quotient_vector=(1,) * n + (0, 0), marks=marks,
                          finite=fin)
        datum.window_n = n
        return datum

    @staticmethod
    def from_cartan(matrix, name=None) -> "RootDatum":
        """Finite datum from a GCM, nodes 1..r, weights in the omega basis."""
        r = len(matrix)
        labels = tuple(range(1, r + 1))
        roots = {labels[j]: tuple(matrix[i][j] for i in range(r)) for j in range(r)}
        coroots = {labels[i]: tuple(1 if t == i else 0 for t in range(r))
                   for i in range(r)}
        fund = {labels[i]: tuple(1 if t == i else 0 for t in range(r))
                for i in range(r)}
        return RootDatum(name or f"gcm{matrix}", labels, roots, coroots, fund)

    @staticmethod
    def affinize_cartan(matrix, marks, name=None) -> "RootDatum":
        """Affine datum from an affine GCM (nodes 0..r-1), Lambda basis + delta.

        ``marks`` are the a_i with sum_j a_ij a_j = 0; alpha_0 carries the
        delta coordinate.  Used to cross-check the window representation.
        """
        r = len(matrix)
        nodes = tuple(range(r))
        roots = {j: tuple(matrix[i][j] for i in nodes) + ((1,) if j == 0 else (0,))
                 for j in nodes}
        coroots = {i: tuple(1 if t == i else 0 for t in nodes) + (0,) for i in nodes}
        fund = {i: tuple(1 if t == i else 0 for t in nodes) + (0,) for i in nodes}
        return RootDatum(name or f"gcm~{matrix}", nodes, roots, coroots, fund,
                         marks=dict(zip(nodes, marks)))

    _NAMED = {
        "B2": [[2, -1], [-2, 2]],
        "C2": [[2, -2], [-1, 2]],
        "G2": [[2, -1], [-3, 2]],
    }

    # affine GCMs, node 0 first, with their marks (built by affinize_cartan)
    _NAMED_AFFINE = {
        "C2~": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], [1, 2, 1]),
        "G2~": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], [1, 2, 3]),
    }

    @staticmethod
    def of_type(typ: str) -> "RootDatum":
        """Datum by name: 'A2', 'B2', 'G2', ..., 'A2~' for affine SL_3, or
        'C2~'/'G2~' (affine GCM data without a finite companion)."""
        return RootDatum._of_type(typ.strip())

    @staticmethod
    @functools.cache
    def _of_type(typ: str) -> "RootDatum":
        if typ.endswith("~"):
            base = typ[:-1]
            if _TYPE_A.fullmatch(base):
                return RootDatum.affine_sl(int(base[1:]) + 1)
            if typ in RootDatum._NAMED_AFFINE:
                matrix, marks = RootDatum._NAMED_AFFINE[typ]
                return RootDatum.affinize_cartan(matrix, marks, name=typ)
            raise ValueError(f"unsupported affine type {typ!r}")
        if typ in RootDatum._NAMED:
            return RootDatum.from_cartan(RootDatum._NAMED[typ], name=typ)
        if _TYPE_A.fullmatch(typ):
            n = int(typ[1:])
            m = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                  for j in range(n)] for i in range(n)]
            return RootDatum.from_cartan(m, name=typ)
        raise ValueError(f"unknown Cartan type {typ!r}")

    # -- invariants ----------------------------------------------------------

    def _check_gcm(self):
        for i in self.nodes:
            if self.cartan[i][i] != 2:
                raise ValueError("GCM diagonal must be 2")
            for j in self.nodes:
                if i != j and self.cartan[i][j] > 0:
                    raise ValueError("off-diagonal GCM entries must be <= 0")
                if (self.cartan[i][j] == 0) != (self.cartan[j][i] == 0):
                    raise ValueError("GCM zero pattern must be symmetric")
        for i in self.nodes:
            for j in self.nodes:
                want = 1 if i == j else 0
                if self._dot(self._coroot_rows[i], self._fundamental[j]) != want:
                    raise ValueError("fundamental weights not dual to coroots")
        if self.flavor == "affine":
            for i in self.nodes:
                if sum(self.cartan[i][j] * self.marks[j] for j in self.nodes) != 0:
                    raise ValueError("marks do not annihilate the affine GCM")

    @staticmethod
    def _dot(row, vec):
        return sum(a * b for a, b in zip(row, vec))

    # -- weights -------------------------------------------------------------

    def canon(self, coords):
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise DatumMismatchError(
                f"coords of length {len(coords)} in rank-{self.rank} datum")
        if self.quotient_vector is None:
            return coords
        # subtract (last finite coordinate) * quotient vector
        t = coords[self._qlast]
        if t == 0:
            return coords
        return tuple(c - t * q for c, q in zip(coords, self.quotient_vector))

    def weight(self, coords) -> "Weight":
        return Weight(self, coords)

    def zero(self) -> "Weight":
        return Weight._canonical(self, (0,) * self.rank)

    def simple_root(self, i) -> "Weight":
        return self.weight(self._simple_roots[i])

    def fundamental_weight(self, i) -> "Weight":
        return self.weight(self._fundamental[i])

    @property
    def rho(self) -> "Weight":
        v = [0] * self.rank
        for i in self.nodes:
            v = [a + b for a, b in zip(v, self._fundamental[i])]
        return self.weight(v)

    def pairing(self, i, lam: "Weight") -> int:
        """<alpha_i^vee, lam>."""
        self._own(lam)
        return self._dot(self._coroot_rows[i], lam.coords)

    def reflect(self, i, lam: "Weight") -> "Weight":
        """r_i(lam) = lam - <alpha_i^vee, lam> alpha_i."""
        self._own(lam)
        m = self._dot(self._coroot_rows[i], lam.coords)
        if m == 0:
            return lam
        a = self._simple_roots[i]
        return self.weight(tuple(c - m * ac for c, ac in zip(lam.coords, a)))

    def _own(self, lam):
        if lam.datum is not self:
            raise DatumMismatchError(
                f"weight of {lam.datum.name} used with {self.name}")

    # -- coefficient lattices (see the module docstring) ----------------------

    def coefficient_lattice(self, flavor=None) -> "RootDatum":
        """The lattice of R(T) for ``flavor``: "big" is this datum,
        "level-zero" its finite companion, and None means big on finite data
        and level-zero on affine data; anything else raises ValueError."""
        if flavor is None:
            flavor = "big" if self.flavor == "finite" else "level-zero"
        if flavor == "big":
            return self
        if flavor == "level-zero":
            if self.finite is None:
                raise ValueError(f"level-zero flavor needs an affine datum with a "
                                 f"finite companion; {self.name} has none")
            return self.finite
        raise ValueError(f"unknown flavor {flavor!r}")

    def project(self, lam: "Weight") -> "Weight":
        """Drop the delta and Lambda_0 coordinates: P_af -> P."""
        if self.flavor != "affine" or self.finite is None:
            raise ValueError("projection needs an affine sl datum")
        self._own(lam)
        return self.finite.weight(lam.coords[:-2])

    def to_lattice(self, beta: "Weight", lattice: "RootDatum") -> "Weight":
        """``beta``, a weight of this datum, in the coefficient ``lattice``:
        itself for this datum (big torus), its level-zero projection for the
        finite companion, and DatumMismatchError for any other lattice."""
        if lattice is self:
            return beta
        if lattice is not None and lattice is self.finite:
            return self.project(beta)
        raise DatumMismatchError(f"{getattr(lattice, 'name', lattice)} is not "
                                 f"a coefficient lattice of {self.name}")

    def simple_action(self, lattice: "RootDatum") -> dict:
        """{i: (row, alpha)} for r_i acting on the coefficient ``lattice``:
        <alpha_i^vee, lam> = dot(row, lam.coords) and alpha = alpha_i there
        (``to_lattice``, which rejects any other lattice).  Memoised per
        lattice.  A lattice's coordinates are the leading coordinates of
        this datum's, so each coroot row is cut to its rank."""
        action = self._actions.get(lattice)
        if action is None:
            alphas = {i: self.to_lattice(self.simple_root(i), lattice)
                      for i in self.nodes}
            action = self._actions[lattice] = {
                i: (self._coroot_rows[i][:lattice.rank], a) for i, a in alphas.items()}
        return action

    # -- roots in the simple-root basis --------------------------------------

    def root_coords(self, lam: "Weight"):
        """Coordinates of lam in the alpha basis, or None if lam not in QQ:
        one exact solve, with the stored quotient vector as a further
        column whose coefficient is dropped."""
        self._own(lam)
        cols = [self._simple_roots[i] for i in self.nodes]
        if self.quotient_vector is not None:
            cols.append(self.quotient_vector)
        found = solve_exact(cols, lam.coords)
        if found is None:
            return None
        out = found[0][:len(self.nodes)]
        if any(x.denominator != 1 for x in out):
            return None
        return tuple(int(x) for x in out)


def solve_exact(cols, rhs):
    """Solve sum_c x_c cols[c] = rhs over Q by Gauss-Jordan elimination of
    [A | rhs], with A given by its columns ``cols``.

    Returns (x, unique) with every free unknown of x set to 0 and ``unique``
    true when there is none, or None when the system is inconsistent.
    """
    rows = len(rhs)
    ncols = len(cols)
    aug = [[Fraction(cols[c][r]) for c in range(ncols)] + [Fraction(rhs[r])]
           for r in range(rows)]
    piv = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        piv.append(c)
        r += 1
        if r == rows:
            break
    if any(row[-1] != 0 for row in aug[len(piv):]):
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(piv):
        sol[c] = aug[r][-1]
    return sol, len(piv) == ncols


class Weight:
    """An element of the weight lattice of one RootDatum.

    ``coords`` are always canonical for the datum (``RootDatum.canon``), so
    equal lattice elements compare and hash equal.  Sums, differences,
    negatives and multiples of canonical coordinates are canonical, so the
    operations below build through ``_canonical``.
    """

    __slots__ = ("datum", "coords", "_hash")

    def __init__(self, datum: RootDatum, coords):
        self.datum = datum
        self.coords = coords = datum.canon(coords)
        self._hash = hash((id(datum), coords))

    @classmethod
    def _canonical(cls, datum: RootDatum, coords: tuple) -> "Weight":
        """Wrap ``coords`` as is: a tuple already canonical for ``datum``."""
        w = cls.__new__(cls)
        w.datum = datum
        w.coords = coords
        w._hash = hash((id(datum), coords))
        return w

    def __eq__(self, other):
        return (isinstance(other, Weight) and self.datum is other.datum
                and self.coords == other.coords)

    def __hash__(self):
        return self._hash

    def _compat(self, other):
        if not isinstance(other, Weight) or other.datum is not self.datum:
            raise DatumMismatchError("weights from different data")

    def __add__(self, other):
        self._compat(other)
        return Weight._canonical(
            self.datum, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._compat(other)
        return Weight._canonical(
            self.datum, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight._canonical(self.datum, tuple(-a for a in self.coords))

    def scaled(self, k: int) -> "Weight":
        return Weight._canonical(self.datum, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"Weight{self.coords}"


class Combination:
    """A finitely supported map from keys to nonzero coefficients.

    Coefficients are ints or LaurentPolys; both are falsy exactly at zero,
    so one merge loop serves both.  Sums, negation, scaling, equality and
    hashing live here alone.  A subclass supplies the hooks

    * ``_ring``: what ``==`` and ``hash`` compare besides ``terms``;
    * ``_new(terms)``: an element of this ring wrapping ``terms`` as is
      (keys already checked, no zero values);
    * ``_compat(other)``: raise on operands of different rings, else return
      the operand whose ``_new`` wraps their sum.
    """

    __slots__ = ("terms",)

    def __add__(self, other):
        """Merge into a copy of self's terms (``spread`` would rebuild both)."""
        host = self._compat(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is not None:
                c = s + c
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return host._new(out)

    def __radd__(self, other):
        """0 + self is self, so ``spread``'s int start sums ring coefficients."""
        return self if other == 0 else NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def scaled(self, k):
        """k times self, for an int or ring element k; Z[P] is a domain, so
        a nonzero k leaves every coefficient nonzero."""
        if not k:
            return self._new({})
        return self._new({key: k * c for key, c in self.terms.items()})

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self._ring == other._ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def spread(terms: Mapping, row) -> dict:
    """sum c * row(key) over {key: c}, zeros dropped: the forward twin of
    ``symfunc.peel``, with row(key) yielding (key', a) pairs."""
    out = {}
    for key, c in terms.items():
        for mu, a in row(key):
            out[mu] = out.get(mu, 0) + c * a
    return {mu: c for mu, c in out.items() if c}


class LaurentPoly(Combination):
    """Finitely supported integer map on a weight lattice: sum c_lam e^lam."""

    __slots__ = ("datum",)

    def __init__(self, datum: RootDatum, terms: Mapping[Weight, int] | None = None):
        self.datum = datum
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    if w.datum is not datum:
                        raise DatumMismatchError("term over a different lattice")
                    self.terms[w] = c

    @property
    def _ring(self):
        return self.datum

    def _new(self, terms: dict) -> "LaurentPoly":
        """Wrap ``terms`` as is: weights over this lattice, no zero values."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.datum, p.terms = self.datum, terms
        return p

    def _compat(self, other):
        if other.datum is not self.datum:
            raise DatumMismatchError("polynomials over different lattices")
        return self

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(datum) -> "LaurentPoly":
        return LaurentPoly(datum)

    @staticmethod
    def one(datum) -> "LaurentPoly":
        return LaurentPoly(datum, {datum.zero(): 1})

    @staticmethod
    def monomial(lam: Weight, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(lam.datum, {lam: coeff})

    @staticmethod
    def const(datum, c: int) -> "LaurentPoly":
        return LaurentPoly(datum, {datum.zero(): c})

    # -- products ---------------------------------------------------------------

    def __mul__(self, other):
        """Summed over coordinate tuples, not ``spread``, which is slower."""
        if isinstance(other, int):
            return self.scaled(other)
        self._compat(other)
        if len(self.terms) == 1 or len(other.terms) == 1:
            # c e^mu * p shifts p by mu and scales it by c: no two terms
            # merge and, Z being a domain, none vanishes
            mono, p = (self, other) if len(self.terms) == 1 else (other, self)
            [(mu, c)] = mono.terms.items()
            m, datum = mu.coords, self.datum
            return self._new({Weight._canonical(
                datum, tuple([a + b for a, b in zip(w.coords, m)])): c * d
                for w, d in p.terms.items()})
        acc = {}
        rhs = [(w.coords, c) for w, c in other.terms.items()]
        for w1, c1 in self.terms.items():
            x = w1.coords
            for y, c2 in rhs:
                key = tuple(a + b for a, b in zip(x, y))
                acc[key] = acc.get(key, 0) + c1 * c2
        datum = self.datum
        return self._new({Weight._canonical(datum, key): c
                          for key, c in acc.items() if c})

    __rmul__ = __mul__

    def blend(self, other, mu: Weight) -> "LaurentPoly":
        """self + e^mu (other - self), summed over coordinate tuples: the psi step."""
        if other.datum is not self.datum or mu.datum is not self.datum:
            raise DatumMismatchError("polynomials over different lattices")
        m, datum = mu.coords, self.datum
        diff = {tuple([a + b for a, b in zip(w.coords, m)]): c
                for w, c in other.terms.items()}
        for w, c in self.terms.items():
            y = tuple([a + b for a, b in zip(w.coords, m)])
            diff[y] = diff.get(y, 0) - c
        out = dict(self.terms)
        for y, c in diff.items():
            if c:
                lam = Weight._canonical(datum, y)
                c += out.get(lam, 0)
                if c:
                    out[lam] = c
                else:
                    del out[lam]
        return self._new(out)

    def is_constant(self) -> bool:
        return all(w.is_zero() for w in self.terms)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        [(w, c)] = self.terms.items()
        if not w.is_zero():
            raise ValueError("not a constant")
        return c

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].coords)

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*e^{w.coords}" for w, c in self.sorted_terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def to_json(self) -> list[dict]:
        return [{"exponent": list(w.coords), "coeff": c}
                for w, c in self.sorted_terms()]

    @staticmethod
    def from_json(datum, data) -> "LaurentPoly":
        return LaurentPoly(datum, {datum.weight(rec["exponent"]): rec["coeff"]
                                   for rec in data})


# -- the operators of the coefficient ring ------------------------------------


def phi0(p: LaurentPoly) -> int:
    """Evaluation R(T) -> Z, e^lam -> 1 (sum of coefficients)."""
    return sum(p.terms.values())


def eta(p: LaurentPoly) -> LaurentPoly:
    """The ring involution e^lam -> e^{-lam}."""
    return p._new({-w: c for w, c in p.terms.items()})


def demazure(datum: RootDatum, i, p: LaurentPoly) -> LaurentPoly:
    """Action of T_i on Z[P], extended linearly from

        T_i . e^lam = e^{r_i lam} (1 + e^{a_i} + ... + e^{(m-1) a_i})   m > 0
                    = 0                                                 m = 0
                    = -e^lam (1 + e^{a_i} + ... + e^{(-m-1) a_i})       m < 0

    with m = <alpha_i^vee, lam>, on whichever coefficient lattice of
    ``datum`` p lives over (``RootDatum.simple_action``).
    """
    row, alpha = datum.simple_action(p.datum)[i]
    dot = RootDatum._dot

    def image(lam):  # T_i . e^lam as (weight, coefficient) pairs
        m = dot(row, lam.coords)
        if m > 0:
            w = lam - alpha.scaled(m)  # e^{r_i lam}
            return [(w + alpha.scaled(k), 1) for k in range(m)]
        return [(lam + alpha.scaled(k), -1) for k in range(-m)]

    return p._new(spread(p.terms, image))


def weyl_reflect_poly(datum: RootDatum, i, p: LaurentPoly) -> LaurentPoly:
    """Action of r_i on Z[P], on p's coefficient lattice as in ``demazure``."""
    row, alpha = datum.simple_action(p.datum)[i]
    dot = RootDatum._dot
    out = {}
    for lam, c in p.terms.items():
        m = dot(row, lam.coords)
        # r_i is a bijection of the lattice: no two terms meet, none cancels
        out[lam - alpha.scaled(m) if m else lam] = c
    return p._new(out)


# -- residues and divisibility modulo (1 - e^alpha) ----------------------------
#
# The kernel of Z[P] -> Z[P/Z alpha] is the ideal (1 - e^alpha), so p lies in
# it exactly when every coset lam_0 + Z alpha of p's support (an alpha-line)
# has coefficient sum 0: ``residue_mod_one_minus_e`` is that image, and two
# polynomials agree mod (1 - e^alpha) iff their residues are equal.  On one
# line, sum c_t z^t with z = e^alpha, (1 - z)^d divides exactly when the
# moments sum c_t t^k vanish for k < d (the derivatives (z d/dz)^k at z = 1);
# (1 - z)^d is monic up to sign, so division over Q is division over Z.


def _line_terms(p: LaurentPoly, alpha: Weight):
    """Yield (key, t, c) for each term c e^lam of p, lam = key + t*alpha.

    The key is the coordinate tuple of lam - t*alpha, with t chosen so the
    key's coordinate at the first nonzero position of alpha is the canonical
    residue; weights share a key iff they differ by a multiple of alpha.
    Keys are canonical, as differences of canonical coordinates.
    """
    if alpha.datum is not p.datum:
        raise DatumMismatchError("weights from different data")
    step = alpha.coords
    nz = next((k for k, c in enumerate(step) if c), None)
    if nz is None:
        raise ValueError("cannot slice along the zero weight")
    a = step[nz]
    for lam, c in p.terms.items():
        x = lam.coords
        t = x[nz] // a
        yield (tuple([xk - t * ak for xk, ak in zip(x, step)]) if t else x), t, c


def _alpha_lines(p: LaurentPoly, alpha: Weight) -> dict[tuple, dict[int, int]]:
    """Split p into cosets lam_0 + Z*alpha; returns {line key: {t: coeff}}."""
    lines: dict[tuple, dict[int, int]] = {}
    for key, t, c in _line_terms(p, alpha):
        lines.setdefault(key, {})[t] = c
    return lines


def residue_mod_one_minus_e(p: LaurentPoly, alpha: Weight) -> dict[tuple, int]:
    """The image of p in Z[P]/(1 - e^alpha) = Z[P/Z alpha].

    Returns {line key: coefficient sum of p on that alpha-line}, zero sums
    dropped; the keys are those of ``_alpha_lines``.  Not a ``spread``: it
    is on the big-torus GKM check's hot path.
    """
    sums: dict[tuple, int] = {}
    for key, _, c in _line_terms(p, alpha):
        sums[key] = sums.get(key, 0) + c
    return {key: s for key, s in sums.items() if s}


def _divide_line_once(coeffs: dict[int, int]) -> dict[int, int] | None:
    """Divide sum c_t z^t exactly by (1 - z); None if not divisible.

    c_t = b_t - b_{t-1} forces b_t = sum_{s <= t} c_s, exact iff the total
    coefficient sum vanishes.
    """
    if not coeffs:
        return {}
    lo, hi = min(coeffs), max(coeffs)
    out = {}
    acc = 0
    for t in range(lo, hi):
        acc += coeffs.get(t, 0)
        if acc:
            out[t] = acc
    acc += coeffs.get(hi, 0)
    if acc != 0:
        return None
    return out


def divisible_by_one_minus_e(p: LaurentPoly, alpha: Weight, d: int = 1) -> bool:
    """Exact membership test p in (1 - e^alpha)^d Z[P], by line moments.

    Moment 0 of a line is its coefficient sum, so for d = 1 this is
    ``not residue_mod_one_minus_e(p, alpha)``.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if p.is_zero():
        return True
    moments: dict[tuple, list[int]] = {}
    for key, t, c in _line_terms(p, alpha):
        m = moments.get(key)
        if m is None:
            m = moments[key] = [0] * d
        for k in range(d):
            m[k] += c
            c *= t
    return not any(any(m) for m in moments.values())


def exact_divide_one_minus_e(p: LaurentPoly, alpha: Weight) -> LaurentPoly:
    """Return q with p = (1 - e^alpha) q, or raise ValueError."""
    if p.is_zero():
        return LaurentPoly.zero(p.datum)
    datum, step = p.datum, alpha.coords
    out = {}
    for key, coeffs in _alpha_lines(p, alpha).items():
        q = _divide_line_once(coeffs)
        if q is None:
            raise ValueError("not divisible by 1 - e^alpha")
        for t, c in q.items():
            coords = tuple(xk + t * ak for xk, ak in zip(key, step))
            out[Weight._canonical(datum, coords)] = c
    return p._new(out)
