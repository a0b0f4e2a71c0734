"""Weyl-group elements for any symmetrizable GCM, with a fast affine type A path.

Elements are stored by their canonical reduced word (greedy smallest left
descent).  In affine type A the primary representation is the affine
permutation window [w(1), ..., w(n)] (entries distinct mod n, summing to
n(n+1)/2 + 0); products, lengths and descents are O(n) there.  For generic
data the element's action matrix on the lattice is kept alongside.

Each datum interns its elements by their action (the window, else the
matrix): a product or inverse is computed in that representation and looked
up.  The first time an action is met its word is derived by walking down
smallest left descents only as far as the first interned element.
Each element also remembers its edges: the left edges r_i w
(``left_simple``), so the 0-Hecke fold, the Bruhat recursion and
``psi_left`` multiply once per (w, i); the right edges w r_i
(``right_simple``) and the smallest right descent for ``psi_right``; and the
root edges r_alpha w (``left_reflection``) for the big-torus GKM check.
Elements stay immutable values: the memo is derived from the element alone,
and interning makes each edge one object.

Equality is identity.  ``_DatumOps.__init__``, ``_from_window`` and
``_from_matrix`` are the only places a ``WeylElt`` is constructed, and each
looks the action up in its datum's table first, so equal elements are the same
object; ``_DatumOps._registry`` keeps every datum alive, so no ``id`` is
reused.  Dicts and sets keyed by elements therefore hash in C.

Words in tables and CLI output are read left to right: "210" is r2*r1*r0.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cartan import DatumMismatchError, RootDatum, Weight
from .symfunc import partitions_of


def _mat_identity(r):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def _mat_mul(a, b):
    rb = len(b)
    cols = range(len(b[0]))
    return tuple(tuple(sum(arow[k] * b[k][j] for k in range(rb)) for j in cols)
                 for arow in a)


def _mat_apply(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


class _DatumOps:
    """Per-datum cached machinery: reflection matrices, elements interned by
    action, reflections by root."""

    _registry: dict[int, "_DatumOps"] = {}

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.refl = {}
        for i in datum.nodes:
            cols = []
            for k in range(datum.rank):
                basis = datum.weight(tuple(1 if t == k else 0 for t in range(datum.rank)))
                cols.append(datum.reflect(i, basis).coords)
            # matrix with column k = r_i(e_k); stored row-major
            self.refl[i] = tuple(tuple(cols[k][r] for k in range(datum.rank))
                                 for r in range(datum.rank))
        # column k = canon(e_k): the identity of the group the reflection
        # matrices generate (not _mat_identity when the lattice is a quotient)
        self.unit_matrix = tuple(zip(*map(datum.canon, _mat_identity(datum.rank))))
        self.interned: dict = {}  # action (window or matrix) -> WeylElt
        n = datum.window_n

        def involution(word, action):  # interned with its greedy word
            window, matrix = (action, None) if n else (None, action)
            elt = self.interned[action] = WeylElt(datum, word, window, matrix, matrix)
            return elt
        self.identity = involution((), _win_identity(n) if n else self.unit_matrix)
        self.simples = {i: involution((i,), _win_simple(n, i) if n else self.refl[i])
                        for i in datum.nodes}
        self.reflections: dict = {}  # positive real root -> r_alpha
        # the bounded-partition bijection, both directions filled together
        self.grassmannians: dict = {}  # partition -> Grassmannian element
        self.partitions: dict = {}  # Grassmannian element -> partition

    @classmethod
    def of(cls, datum) -> "_DatumOps":
        ops = cls._registry.get(id(datum))
        if ops is None:
            ops = cls(datum)
            cls._registry[id(datum)] = ops
        return ops


# -- window arithmetic (affine type A) ----------------------------------------


def _win_identity(n):
    return tuple(range(1, n + 1))


def _win_simple(n, i):
    if i == 0:
        return (0,) + tuple(range(2, n)) + (n + 1,) if n > 1 else None
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def _win_eval(win, j):
    n = len(win)
    q, r = divmod(j - 1, n)
    return win[r] + q * n


def _win_compose(u, v):
    """Window of the product u*v (u after v)."""
    return tuple(_win_eval(u, x) for x in v)


def _win_inverse(win):
    n = len(win)
    pos = {}
    for idx, val in enumerate(win, start=1):
        q, r = divmod(val - 1, n)
        pos[r + 1] = idx - q * n
    return tuple(pos[r] for r in range(1, n + 1))


def _win_right_descent(win, i):
    n = len(win)
    if i == 0:
        return win[n - 1] - n > win[0]
    return win[i - 1] > win[i]


def _win_left_descent(win, i):
    return _win_right_descent(_win_inverse(win), i)


def _win_mult_simple_left(win, i):
    """Window of r_i * w: swap values i, i+1 (mod n) everywhere."""
    n = len(win)
    out = []
    for val in win:
        q, r = divmod(val - 1, n)
        r += 1
        if r == i or (i == 0 and r == n):
            out.append(val + 1)
        elif r == i + 1 or (i == 0 and r == 1):
            out.append(val - 1)
        else:
            out.append(val)
    return tuple(out)


class WeylElt:
    """Immutable Weyl group element: canonical word plus its action.

    Compared and hashed by identity, which is equality because elements are
    interned: construct them only at the three interning sites named in the
    module docstring, never directly, by copying or by unpickling."""

    __slots__ = ("datum", "word", "length", "window", "_matrix", "_inv_matrix",
                 "_left", "_right", "_roots", "_rdesc", "_grass", "_folds")

    def __init__(self, datum, word, window=None, matrix=None, inv_matrix=None):
        self.datum = datum
        self.word = tuple(word)
        self.length = len(self.word)
        self.window = window
        self._matrix = matrix
        self._inv_matrix = inv_matrix
        self._left = None  # node i -> r_i w, filled by left_simple
        self._right = None  # node i -> w r_i, filled by right_simple
        self._roots = None  # positive real root alpha -> r_alpha w, by left_reflection
        self._rdesc = None  # smallest right descent, by smallest_right_descent
        self._grass = None  # minimal in wW, by is_grassmannian
        self._folds = None  # v -> (sign, z) with T_w T_v = sign T_z, by hecke.int_mul

    # -- identity / generators ------------------------------------------------

    def __repr__(self):
        return f"W[{''.join(map(str, self.word)) or 'id'}]"

    def is_identity(self) -> bool:
        return not self.word

    # -- lazy action -----------------------------------------------------------

    @property
    def matrix(self):
        if self._matrix is None:
            ops = _DatumOps.of(self.datum)
            m = ops.unit_matrix
            for i in self.word:
                m = _mat_mul(m, ops.refl[i])
            self._matrix = m
        return self._matrix

    @property
    def inv_matrix(self):
        if self._inv_matrix is None:
            ops = _DatumOps.of(self.datum)
            m = ops.unit_matrix
            for i in reversed(self.word):
                m = _mat_mul(m, ops.refl[i])
            self._inv_matrix = m
        return self._inv_matrix

    def to_json(self) -> dict:
        out = {"word": list(self.word)}
        if self.window is not None:
            out["window"] = list(self.window)
        return out


def _word_via_interned(interned, state, down):
    """Canonical word of the element whose action is ``state[0]``.

    Walks down smallest left descents, ``down(*state) -> (j, state of r_j x)``,
    to the first interned element and appends that element's word.  This is
    the greedy word: the identity and the simple reflections are interned
    with theirs, and every other element is built by this rule."""
    word = []
    while state[0] not in interned:
        step = down(*state)
        if step is None:
            raise ValueError("action did not reduce to the identity")
        word.append(step[0])
        state = step[1]
    return tuple(word) + interned[state[0]].word


def _win_down(win):
    """(j, (r_j x,)) for the smallest left descent j of the window x."""
    inv = _win_inverse(win)
    j = next((i for i in range(len(win)) if _win_right_descent(inv, i)), None)
    return None if j is None else (j, (_win_mult_simple_left(win, j),))


def _from_window(datum, win) -> WeylElt:
    interned = _DatumOps.of(datum).interned
    elt = interned.get(win)
    if elt is None:
        word = _word_via_interned(interned, (win,), _win_down)
        elt = interned[win] = WeylElt(datum, word, win)
    return elt


def _from_matrix(datum, matrix, inv_matrix) -> WeylElt:
    """``inv_matrix()`` gives the inverse action; it runs only on a miss."""
    ops = _DatumOps.of(datum)
    elt = ops.interned.get(matrix)
    if elt is None:
        def down(m, mi):
            for i in datum.nodes:
                if _negates(datum, mi, i):
                    return i, (_mat_mul(ops.refl[i], m), _mat_mul(mi, ops.refl[i]))
        mi = inv_matrix()
        elt = ops.interned[matrix] = WeylElt(
            datum, _word_via_interned(ops.interned, (matrix, mi), down), None, matrix, mi)
    return elt


def identity(datum) -> WeylElt:
    return _DatumOps.of(datum).identity


def simple(datum, i) -> WeylElt:
    if i not in datum.nodes:
        raise ValueError(f"{i} is not a node of {datum.name}")
    return _DatumOps.of(datum).simples[i]


def from_word(datum, word) -> WeylElt:
    """Element of an arbitrary (possibly non-reduced) word."""
    w = identity(datum)
    for i in word:
        w = multiply(w, simple(datum, i))
    return w


def parse_word(text: str):
    """Digit-string word: '210' -> (2, 1, 0).  Commas allowed for nodes > 9."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(ch) for ch in text)


def word_str(word) -> str:
    return "".join(str(i) for i in word) if all(i < 10 for i in word) else \
        ",".join(str(i) for i in word)


# -- descents ------------------------------------------------------------------


def _negates(datum, m, i) -> bool:
    """True iff the action matrix m sends alpha_i to a negative root."""
    v = _mat_apply(m, datum.simple_root(i).coords)
    return any(x < 0 for x in datum.root_coords(datum.weight(v)))


def has_left_descent(w: WeylElt, i) -> bool:
    """True iff l(r_i w) < l(w), i.e. w^{-1}(alpha_i) < 0."""
    if w.window is not None:
        return _win_left_descent(w.window, i)
    return bool(w.word) and _negates(w.datum, w.inv_matrix, i)


def has_right_descent(w: WeylElt, i) -> bool:
    if w.window is not None:
        return _win_right_descent(w.window, i)
    return bool(w.word) and _negates(w.datum, w.matrix, i)


def smallest_right_descent(w: WeylElt):
    """The smallest i with l(w r_i) < l(w) (None for the identity), searched
    once per w and remembered on it."""
    if w._rdesc is None:
        w._rdesc = next((i for i in w.datum.nodes if has_right_descent(w, i)), None)
    return w._rdesc


# -- group operations ----------------------------------------------------------


def multiply(u: WeylElt, v: WeylElt) -> WeylElt:
    if u.datum is not v.datum:
        raise DatumMismatchError("elements of different Weyl groups")
    if u.is_identity():
        return v
    if v.is_identity():
        return u
    if u.window is not None:
        return _from_window(u.datum, _win_compose(u.window, v.window))
    return _from_matrix(u.datum, _mat_mul(u.matrix, v.matrix),
                        lambda: _mat_mul(v.inv_matrix, u.inv_matrix))


def left_simple(i, w: WeylElt) -> WeylElt:
    """r_i w, multiplied once per (w, i) and remembered on w.

    Interning makes the edge a pure function of (w, i); two threads racing
    on a miss store the same element."""
    edges = w._left
    if edges is None:
        edges = w._left = {}
    riw = edges.get(i)
    if riw is None:
        riw = edges[i] = multiply(simple(w.datum, i), w)
    return riw


def right_simple(w: WeylElt, i) -> WeylElt:
    """w r_i, multiplied once per (w, i) and remembered on w, as in
    ``left_simple``."""
    edges = w._right
    if edges is None:
        edges = w._right = {}
    wri = edges.get(i)
    if wri is None:
        wri = edges[i] = multiply(w, simple(w.datum, i))
    return wri


def left_reflection(alpha: Weight, w: WeylElt) -> WeylElt:
    """r_alpha w for a positive real root alpha, multiplied once per
    (w, alpha) and remembered on w, as in ``left_simple``."""
    edges = w._roots
    if edges is None:
        edges = w._roots = {}
    r_alpha_w = edges.get(alpha)
    if r_alpha_w is None:
        r_alpha_w = edges[alpha] = multiply(reflection_for_root(w.datum, alpha), w)
    return r_alpha_w


def inverse(w: WeylElt) -> WeylElt:
    if w.window is not None:
        return _from_window(w.datum, _win_inverse(w.window))
    return _from_matrix(w.datum, w.inv_matrix, lambda: w.matrix)


def apply(w: WeylElt, lam: Weight) -> Weight:
    """Action on a weight of any coefficient lattice of w's datum: by w's
    matrix on the datum's own lattice, else letter by letter through
    ``RootDatum.simple_action``, which rejects foreign lattices.  A window
    element acts on the level-zero lattice through its finite part, a
    permutation of coordinates; the word path is its test oracle."""
    datum = w.datum
    if lam.datum is datum:
        return datum.weight(_mat_apply(w.matrix, lam.coords))
    action = datum.simple_action(lam.datum)
    if w.window is not None:
        # w = t_mu u acts level-zero through its finite part u
        n = len(w.window)
        out = [0] * n
        for i, val in enumerate(w.window):
            out[(val - 1) % n] = lam.coords[i]
        return lam.datum.weight(out)
    dot = RootDatum._dot
    for i in reversed(w.word):
        row, alpha = action[i]
        m = dot(row, lam.coords)
        if m:
            lam = lam - alpha.scaled(m)
    return lam


# -- Bruhat order ---------------------------------------------------------------


@lru_cache(maxsize=1 << 20)
def _bruhat_leq_cached(v: WeylElt, w: WeylElt) -> bool:
    if v.is_identity():
        return True
    if v.length > w.length:
        return False
    if v.length == w.length:
        return v == w
    i = w.word[0]  # smallest-left-descent generator of the canonical word
    rw = left_simple(i, w)
    rv = left_simple(i, v)
    if rv.length < v.length:
        return _bruhat_leq_cached(rv, rw)
    return _bruhat_leq_cached(v, rw)


def bruhat_leq(v: WeylElt, w: WeylElt) -> bool:
    """Bruhat order by the lifting recursion."""
    if v.datum is not w.datum:
        raise DatumMismatchError("elements of different Weyl groups")
    return _bruhat_leq_cached(v, w)


def bruhat_ideal(w: WeylElt) -> list[WeylElt]:
    """All v <= w, via subwords of the canonical word."""
    seen = {identity(w.datum)}
    for mask in range(1, 1 << w.length):
        sub = [w.word[k] for k in range(w.length) if mask >> k & 1]
        seen.add(from_word(w.datum, sub))
    return sorted(seen, key=lambda v: (v.length, v.word))


def prefix_roots(datum, word) -> list[Weight]:
    """beta_k = r_{i_1} ... r_{i_{k-1}}(alpha_{i_k}) for each letter i_k of word.

    For a reduced word of w these are the l(w) distinct roots of Inv(w)."""
    out = []
    for k, i in enumerate(word):
        beta = datum.simple_root(i)
        for j in reversed(word[:k]):
            beta = datum.reflect(j, beta)
        out.append(beta)
    return out


def inversions(v: WeylElt) -> set[Weight]:
    """Inv(v) = {alpha > 0 : r_alpha v < v}, the prefix roots of its word."""
    return set(prefix_roots(v.datum, v.word))


def reflection_for_root(datum, alpha: Weight) -> WeylElt:
    """r_alpha for a positive real root alpha = u(alpha_i), as u r_i u^{-1}.

    Memoised per datum by root."""
    memo = _DatumOps.of(datum).reflections
    r_alpha = memo.get(alpha)
    if r_alpha is None:
        r_alpha = memo[alpha] = _reflection_for_root(datum, alpha)
    return r_alpha


def _reflection_for_root(datum, alpha: Weight) -> WeylElt:
    coords = datum.root_coords(alpha)
    if coords is None:
        raise ValueError("not in the root lattice")
    for i in datum.nodes:
        if alpha == datum.simple_root(i):
            return simple(datum, i)
    for i in datum.nodes:
        if datum.pairing(i, alpha) > 0:
            beta = datum.reflect(i, alpha)
            ri = simple(datum, i)
            return multiply(multiply(ri, reflection_for_root(datum, beta)), ri)
    raise ValueError("root did not reduce to a simple root")


# -- enumeration -----------------------------------------------------------------


def elements_up_to_length(datum, max_len: int) -> list[list[WeylElt]]:
    """Elements grouped by length 0..max_len (BFS over right products)."""
    layers = [[identity(datum)]]
    for ell in range(1, max_len + 1):
        nxt = {}
        for w in layers[ell - 1]:
            for i in datum.nodes:
                if not has_right_descent(w, i):
                    wi = multiply(w, simple(datum, i))
                    nxt[wi.word] = wi
        layers.append(sorted(nxt.values(), key=lambda v: v.word))
    return layers


def all_elements(datum, max_len: int) -> list[WeylElt]:
    return [w for layer in elements_up_to_length(datum, max_len) for w in layer]


# -- affine type A specials --------------------------------------------------------


def _require_window(datum):
    if datum.window_n is None:
        raise ValueError("operation needs an affine type A (window) datum")
    return datum.window_n


def translation(datum, lam) -> WeylElt:
    """t_lam for lam in the coroot lattice (sum zero), affine type A."""
    n = _require_window(datum)
    lam = tuple(lam)
    if len(lam) != n or sum(lam) != 0:
        raise ValueError("translation needs a length-n integer vector summing to 0")
    return _from_window(datum, tuple(i + n * lam[i - 1] for i in range(1, n + 1)))


def is_grassmannian(w: WeylElt) -> bool:
    """Minimal in its coset wW: no right descent at a finite node.  Tested
    once per w and remembered on it, as in ``smallest_right_descent``."""
    if w._grass is None:
        if w.window is not None:
            win = w.window
            w._grass = all(win[i] < win[i + 1] for i in range(len(win) - 1))
        else:
            w._grass = not any(has_right_descent(w, i) for i in w.datum.nodes if i != 0)
    return w._grass


def grassmannian_part(w: WeylElt):
    """(Grassmannian representative of wW, lam with wW = t_lam W)."""
    n = _require_window(w.datum)
    win = tuple(sorted(w.window))
    rep = _from_window(w.datum, win)
    lam = [0] * n
    for val in win:
        q, r = divmod(val - 1, n)
        lam[r] = q
    return rep, tuple(lam)


def translation_of_coset(w: WeylElt) -> WeylElt:
    """t_lam with wW = t_lam W."""
    _, lam = grassmannian_part(w)
    return translation(w.datum, lam)


def grassmannian_from_partition(datum, partition) -> WeylElt:
    """Element of the (n-1)-bounded partition: cell (i,j) has residue j-i mod n,
    read bottom row to top, right to left, multiplied left to right.
    Memoised per datum, recording the inverse for ``partition_of_grassmannian``."""
    n = _require_window(datum)
    parts = tuple(partition)
    ops = _DatumOps.of(datum)
    w = ops.grassmannians.get(parts)
    if w is not None:
        return w
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)) or \
            any(p <= 0 for p in parts):
        raise ValueError("not a partition")
    if parts and parts[0] >= n:
        raise ValueError(f"partition must be {n-1}-bounded")
    word = []
    for i in range(len(parts), 0, -1):          # bottom row to top
        for j in range(parts[i - 1], 0, -1):    # right to left
            word.append((j - i) % n)
    w = ops.grassmannians[parts] = from_word(datum, word)
    ops.partitions[w] = parts
    return w


def partition_of_grassmannian(w: WeylElt):
    """Inverse of grassmannian_from_partition (|partition| = length)."""
    if not is_grassmannian(w):
        raise ValueError("element is not Grassmannian")
    n = _require_window(w.datum)
    known = _DatumOps.of(w.datum).partitions
    if w not in known:
        for lam in partitions_of(w.length, n - 1):
            grassmannian_from_partition(w.datum, lam)
    if w not in known:
        raise ValueError("no bounded partition matches this element")
    return known[w]


def cyclically_decreasing(datum, ell: int) -> list[WeylElt]:
    """One element per size-ell subset of Z/nZ, indices multiplied in
    cyclically decreasing order."""
    n = _require_window(datum)
    if not 0 <= ell <= n - 1:
        raise ValueError("need 0 <= ell <= n-1")
    out = []
    for subset in itertools.combinations(range(n), ell):
        out.append(from_word(datum, cyclically_decreasing_word(n, subset)))
    return out


def cyclically_decreasing_word(n: int, subset) -> tuple:
    """The cyclically decreasing word with letter set ``subset`` of Z/nZ."""
    subset = set(subset)
    if len(subset) >= n:
        raise ValueError("subset must be proper")
    start = min(set(range(n)) - subset)
    word = []
    for k in range(1, n + 1):
        j = (start - k) % n
        if j in subset:
            word.append(j)
    return tuple(word)
