"""Seeded generator of khecke CLI queries for the ``cli`` workload.

A stream holds ``per_command`` fresh draws of each of the 13 subcommands,
shuffled, plus ``variants`` edit-and-rerun queries: an earlier query repeated
with one of its knobs (a size bound, basis, algorithm or output format)
changed, as an interactive user does.  Arguments are drawn over the
documented ranges: n = 2-4, (n-1)-bounded partitions, words over the
datum's nodes, types A2/B2/G2/A2~.  Sizes are capped so that no query
takes much more than twice the interpreter start-up: a stream's cost then
varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

COMMANDS = ("psi", "expand-group", "kappa", "g", "G", "kschur", "pieri",
            "coproduct", "structure", "k-sl2", "tables", "check-conjectures",
            "gkm-check")
TYPES = {"A2": "12", "B2": "12", "G2": "12", "A2~": "012"}
FORMATS = ("text", "json", "latex-table")
# Golden table ranks; the n = 3 G table alone takes about four query times.
GOLDEN_RANKS = {"bijection": (2, 3, 4), "k": (3, 4), "g": (2, 3, 4),
                "coproduct": (2, 3, 4), "G": (2,)}
GKM_BIG_MAX_LEN = {"A2": 3, "B2": 3, "G2": 2, "A2~": 1}


@dataclass
class Query:
    command: str
    opts: list = field(default_factory=list)    # [flag, value or None]
    knobs: dict = field(default_factory=dict)   # flag -> allowed values

    def argv(self) -> tuple:
        out = [self.command]
        for flag, value in self.opts:
            out.append(flag)
            if value is not None:
                out.append(value)
        return tuple(out)

    def knob(self, rng, flag, values):
        """Add option ``flag`` drawn from ``values``; later edits redraw it."""
        values = tuple(str(v) for v in values)
        self.knobs[flag] = values
        self.opts.append([flag, rng.choice(values)])


def _word(rng, nodes, lo, hi) -> str:
    return "".join(rng.choice(nodes) for _ in range(rng.randint(lo, hi)))


def _partitions(size, max_part):
    if size == 0:
        return [()]
    return [(p,) + rest for p in range(min(size, max_part), 0, -1)
            for rest in _partitions(size - p, p)]


def _partition(rng, n, max_size) -> str:
    lam = rng.choice(_partitions(rng.randint(1, max_size), n - 1))
    return ",".join(map(str, lam)) if rng.random() < 0.5 else "".join(map(str, lam))


def _datum(rng, q):
    """--type or --n; returns the datum's node labels."""
    typ = rng.choice((*TYPES, None))
    if typ is not None:
        q.opts.append(["--type", typ])
        return TYPES[typ]
    n = rng.randint(2, 4)
    q.opts.append(["--n", str(n)])
    return "".join(map(str, range(n)))


def _n(rng, q, hi=4) -> int:
    n = rng.randint(2, hi)
    q.opts.append(["--n", str(n)])
    return n


def draw(rng, command) -> Query:
    q = Query(command)
    if command == "psi":
        nodes = _datum(rng, q)
        q.opts += [["--v", _word(rng, nodes, 0, 2)], ["--w", _word(rng, nodes, 1, 5)]]
        q.knob(rng, "--algorithm", ("right", "left", "gw"))
        q.knob(rng, "--flavor", ("big", "level-zero"))
    elif command == "expand-group":
        nodes = _datum(rng, q)
        q.opts.append(["--word", _word(rng, nodes, 1, 5)])
    elif command == "kappa":
        n = _n(rng, q)
        q.opts.append(["--i", str(rng.randrange(n))])
    elif command in ("g", "kschur"):
        n = _n(rng, q)
        q.opts.append(["--partition", _partition(rng, n, 4)])
        q.knob(rng, "--basis", ("m", "h", "s", "kschur") if command == "g" else "mhs")
    elif command == "G":
        n = _n(rng, q)
        lam = _partition(rng, n, 3)
        size = sum(int(p) for p in lam.replace(",", ""))
        q.opts.append(["--partition", lam])
        q.knob(rng, "--max-degree", range(size, 7 if n < 4 else 6))
        q.knob(rng, "--basis", ("F", "m"))
    elif command == "pieri":
        n = _n(rng, q)
        q.opts += [["--i", str(rng.randint(1, n - 1))],
                   ["--partition", _partition(rng, n, 3)]]
    elif command == "coproduct":
        n = _n(rng, q)
        q.opts.append(["--partition", _partition(rng, n, 4)])
    elif command == "structure":
        n = _n(rng, q)
        q.opts += [["--u", _partition(rng, n, 2)], ["--v", _partition(rng, n, 2)]]
    elif command == "k-sl2":
        r = rng.randint(1, 4)
        q.opts.append(["--r", str(r)] if rng.random() < 0.5
                      else ["--partition", ",".join("1" * r)])
        q.knob(rng, "--cutoff", range(2, 9))
    elif command == "tables":
        which = rng.choice(tuple(GOLDEN_RANKS))
        q.opts += [["--which", which], ["--n", str(rng.choice(GOLDEN_RANKS[which]))]]
        if rng.random() < 0.5:
            q.opts.append(["--diff", None])
    elif command == "check-conjectures":
        n = _n(rng, q)
        q.knob(rng, "--max-len", range(2, 6 if n < 4 else 5))
        if rng.random() < 0.5:
            q.opts.append(["--cross", None])
            q.knob(rng, "--max-degree", range(1, 6))
    elif command == "gkm-check":
        if rng.random() < 0.5:
            q.opts.append(["--mode", "small"])
            n = _n(rng, q, hi=3)
            q.knob(rng, "--max-len", range(1, 5 if n == 2 else 2))
            q.knob(rng, "--max-d", range(1, 4))
        else:
            q.opts.append(["--mode", "big"])
            typ = rng.choice(tuple(TYPES))
            q.opts.append(["--type", typ])
            q.knob(rng, "--max-len", range(1, GKM_BIG_MAX_LEN[typ] + 1))
    else:
        raise ValueError(f"unknown command {command!r}")
    q.knob(rng, "--format", FORMATS)
    return q


def edit(rng, q: Query) -> Query:
    """The same query with one knob changed to another allowed value."""
    flag = rng.choice(sorted(f for f, vals in q.knobs.items() if len(vals) > 1))
    opts = [list(o) for o in q.opts]
    for o in opts:
        if o[0] == flag:
            o[1] = rng.choice([v for v in q.knobs[flag] if v != o[1]])
    return Query(q.command, opts, dict(q.knobs))


def stream(seed: int, per_command: int, variants: int) -> list[tuple]:
    """The workload's query stream for ``seed``, as argv tuples."""
    rng = random.Random(seed)
    queries = [draw(rng, c) for c in COMMANDS for _ in range(per_command)]
    rng.shuffle(queries)
    for _ in range(variants):
        origin = rng.randrange(len(queries))
        queries.insert(rng.randint(origin + 1, len(queries)),
                       edit(rng, queries[origin]))
    return [q.argv() for q in queries]
