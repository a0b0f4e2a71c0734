"""One fresh benchmark process: import khecke, run one operation, report.

Usage: worker.py SIDE_FILE TRACE OP [ARGS...]

OP is one of
  probe                      import only, then time the compute reference;
  scan N MAX_LEN             peterson.conjecture_scan(N, MAX_LEN);
  gkm-big TYPE MAX_LEN DIR   khecke gkm-check --mode big, stdout captured;
  cli ARGS...                khecke.cli.main(ARGS) with stdout and stderr left
                             to the caller, exiting with its code.

The import of khecke is the first thing the process does; its return time
(CLOCK_MONOTONIC, shared by all processes) goes to SIDE_FILE as JSON together
with the operation's result and, with TRACE=1, the span summary.  ``scan``
and ``gkm-big`` time the compute reference right before and right after the
operation (``ref_s``), so the caller can scale the operation's time by the
host's speed while it ran.
"""

import sys
import time

import khecke.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402

REF_SOLVES = 600
REF_LOOKUPS = 20
REF_CHECKSUM = 134741


def reference() -> float:
    """Seconds for a fixed pure-Python workload: a gauge of host speed.

    It uses no khecke code, so no change to khecke moves it, and it does the
    kinds of work khecke spends its time on: exact Fraction elimination, as
    in the root solver, and composition of tuples memoised in a dict, as in
    the Weyl group.  It takes about 0.25 s on a 2.0 GHz Xeon.
    """
    t0 = time.perf_counter()
    acc = 0
    for s in range(REF_SOLVES):
        m = [[Fraction(((s + 3) * (i + 1) * (j + 2)) % 7 - 3 + 5 * (i == j))
              for j in range(5)] for i in range(4)]
        for c in range(4):
            p = next((k for k in range(c, 4) if m[k][c] != 0), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            inv = m[c][c]
            m[c] = [x / inv for x in m[c]]
            for k in range(4):
                if k != c and m[k][c] != 0:
                    f = m[k][c]
                    m[k] = [a - f * b for a, b in zip(m[k], m[c])]
        acc += m[0][4].numerator % 97
    perms = [tuple((i * k + s) % 7 for i in range(7)) for k in range(1, 7) for s in range(7)]
    memo = {}
    for a in perms:
        for b in perms:
            memo[a, b] = tuple(a[x] for x in b)
    for _ in range(REF_LOOKUPS):
        for a in perms:
            for b in perms:
                acc += memo[a, b][0]
    if acc != REF_CHECKSUM:
        raise SystemExit(f"reference workload computed {acc}, not {REF_CHECKSUM}")
    return time.perf_counter() - t0



def run_scan(n, max_len) -> dict:
    from khecke import peterson
    t0 = time.perf_counter()
    report = peterson.conjecture_scan(int(n), int(max_len))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "passed": report.passed, "checked": report.checked}


def run_gkm_big(typ, max_len, cache_dir) -> dict:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = khecke.cli.main(["gkm-check", "--mode", "big", "--type", typ,
                                "--max-len", max_len, "--cache-dir", cache_dir])
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "code": code, "stdout": out.getvalue()}


def main(argv) -> int:
    side, trace, op, *rest = argv
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer.install()
    record = {"imported": IMPORTED}
    code = 0
    try:
        if op == "probe":
            record["ref_s"] = [reference()]
        elif op == "scan":
            before = reference()
            record.update(run_scan(*rest))
            record["ref_s"] = [before, reference()]
        elif op == "gkm-big":
            before = reference()
            record.update(run_gkm_big(*rest))
            record["ref_s"] = [before, reference()]
        elif op == "cli":
            code = khecke.cli.main(rest)
        else:
            raise SystemExit(f"unknown op {op!r}")
    finally:
        if tracer is not None:
            record["trace"] = tracer.summary()
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
