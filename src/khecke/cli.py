"""Command-line front end.

Subcommands: psi, expand-group, kappa, g, G, kschur, pieri, coproduct,
structure, k-sl2, tables, check-conjectures, gkm-check.  Words are digit
strings read left to right ("210" = r2 r1 r0); partitions are comma lists
("2,1") or digit strings ("21").  Exit codes: 0 success, 1 domain error,
2 verification failure (conjecture violation, golden-table mismatch, or a
library cross-check raising VerificationError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import goldens, weyl
from .cache import ResultCache
from .cartan import RootDatum, VerificationError
from .grothendieck import GrothendieckEngine
from .hecke import group_elt_to_T
from .localization import (PsiEngine, gkm_check_big, small_gkm_check,
                           small_gkm_grassmannian_check)
from .peterson import (ConjectureReport, SupportTruncationError,
                       conjecture_scan, cross_k_scan, equivariant_k_sl2, pieri,
                       structure_d)
from .render import (render_hecke, render_int_map, render_poly,
                     render_symfunc, render_tensor)
from .symfunc import SymFunc, convert

USAGE_ERROR, VERIFY_ERROR = 1, 2


class DomainError(ValueError):
    pass


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if not text or text in ("0", "-"):
        return ()
    try:
        if "," in text:
            parts = tuple(int(t) for t in text.split(","))
        else:
            parts = tuple(int(ch) for ch in text)
    except ValueError:
        raise DomainError(f"malformed partition {text!r}")
    if any(p <= 0 for p in parts) or any(parts[i] < parts[i + 1]
                                         for i in range(len(parts) - 1)):
        raise DomainError(f"{text!r} is not a partition")
    return parts


def parse_word_arg(text: str) -> tuple:
    try:
        return weyl.parse_word(text)
    except ValueError:
        raise DomainError(f"malformed word {text!r}")


def partition_label(lam) -> str:
    return ",".join(map(str, lam)) if lam else "-"


def _validate_bounds(args):
    if getattr(args, "n", None) is not None and args.n < 2:
        raise DomainError("--n must be >= 2")
    for attr, low in (("max_len", 0), ("max_degree", 0), ("max_d", 1),
                      ("cutoff", 0), ("r", 0)):
        bound = getattr(args, attr, None)
        if bound is not None and bound < low:
            raise DomainError(f"--{attr.replace('_', '-')} must be >= {low}")


def _engine(args) -> GrothendieckEngine:
    return GrothendieckEngine.get(args.n)


def _emit(args, text_value, json_value, latex_value=None):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    elif args.format == "latex-table" and latex_value is not None:
        print(latex_value)
    else:
        print(text_value)


# -- subcommand bodies --------------------------------------------------------------


def _datum_for(args, default_n=None) -> RootDatum:
    if args.type:
        if args.n is not None:
            raise DomainError("give --type or --n, not both")
        return RootDatum.of_type(args.type)
    n = default_n if args.n is None else args.n
    if n is None:
        raise DomainError("need --type or --n")
    return RootDatum.affine_sl(n)


def cmd_psi(args):
    datum = _datum_for(args)
    engine = PsiEngine(datum, args.flavor)
    v = weyl.from_word(datum, parse_word_arg(args.v))
    w = weyl.from_word(datum, parse_word_arg(args.w))
    fn = {"right": engine.psi_right, "left": engine.psi_left,
          "gw": engine.psi_graham_willems}[args.algorithm]
    val = fn(v, w)
    _emit(args, render_poly(val), val.to_json())


def cmd_expand_group(args):
    datum = _datum_for(args)
    w = weyl.from_word(datum, parse_word_arg(args.word))
    elt = group_elt_to_T(w)
    _emit(args, render_hecke(elt), elt.to_json())


def cmd_kappa(args):
    elt = _engine(args).kappa(args.i)
    _emit(args, render_hecke(elt), elt.to_json())


def _cached(args, compute, **normalised):
    """The JSON value this command prints, from the cache or from ``compute()``.

    The cache key is the command and every parsed argument but the
    presentation ones (``--format``, ``--cache-dir``) and the handler, with
    the values the handler normalised in ``normalised`` (parsed partitions,
    the degree bound the scan reads).
    A raw value left in the key can only split one result into two records,
    never make two results share one."""
    key = {name: value for name, value in vars(args).items()
           if name not in ("format", "cache_dir", "fn")}
    key.update(normalised)
    cache = ResultCache(args.cache_dir)
    payload = cache.load(key)
    if payload is None:
        payload = compute()
        cache.store(key, payload)
    return payload


def _emit_symfunc(args, payload):
    out = SymFunc.from_json(payload)
    _emit(args, render_symfunc(out), payload, render_symfunc(out, latex=True))


def cmd_g(args):
    lam = parse_partition(args.partition)

    def compute():
        engine = _engine(args)
        if args.basis == "kschur":
            out = SymFunc("kschur", engine.g_in_kschur_basis(lam), args.n)
        else:
            out = convert(engine.g_of(lam), args.basis)
        return out.to_json()
    _emit_symfunc(args, _cached(args, compute, partition=lam))


def cmd_kschur(args):
    out = convert(_engine(args).kschur_of(parse_partition(args.partition)), args.basis)
    _emit_symfunc(args, out.to_json())


def cmd_G(args):
    lam = parse_partition(args.partition)

    def compute():
        engine = _engine(args)
        v = engine.grassmannian(lam)
        if args.max_degree < v.length:
            raise DomainError("--max-degree is below the partition size")
        G = engine.G_of(v, args.max_degree)
        return (engine.m_to_F(G) if args.basis == "F" else G).to_json()
    _emit_symfunc(args, _cached(args, compute, partition=lam))


def _emit_partition_map(args, out: dict):
    """Print a {partition: coeff} result in (size, partition) order."""
    pairs = sorted(out.items(), key=lambda t: (sum(t[0]), t[0]))
    _emit(args, render_int_map(pairs, partition_label),
          [{"partition": list(k), "coeff": c} for k, c in pairs])


def cmd_pieri(args):
    _emit_partition_map(args, pieri(_engine(args), args.i,
                                    parse_partition(args.partition)))


def cmd_coproduct(args):
    engine = _engine(args)
    lam = parse_partition(args.partition)
    delta = engine.g_coproduct(lam)
    _emit(args, render_tensor(delta),
          [{"left": list(mu), "right": list(nu), "coeff": c}
           for (mu, nu), c in delta.sorted_terms()],
          render_tensor(delta, latex=True))


def cmd_structure(args):
    _emit_partition_map(args, structure_d(_engine(args), parse_partition(args.u),
                                          parse_partition(args.v)))


def cmd_k_sl2(args):
    if (args.r is None) == (args.partition is None):
        raise DomainError("k-sl2 needs exactly one of --r and --partition")
    lam_or_r = parse_partition(args.partition) if args.partition is not None else args.r
    elt = equivariant_k_sl2(lam_or_r, cutoff=args.cutoff)
    _emit(args, render_hecke(elt), elt.to_json())


def cmd_tables(args):
    kinds = goldens.TABLE_KINDS if args.which == "all" else (args.which,)
    failures = 0
    for kind in kinds:
        ranks = [args.n] if args.n else goldens.available_ranks(kind)
        for n in ranks:
            if args.diff:
                problems = goldens.diff_table(kind, n)
                if problems:
                    failures += len(problems)
                    print(f"tables {kind} n={n}: MISMATCH")
                    for p in problems:
                        print("  " + p)
                else:
                    print(f"tables {kind} n={n}: OK")
            else:
                _print_table(args, kind, n)
    if failures:
        raise VerificationError(f"{failures} golden-table mismatches")


def _print_table(args, kind, n):
    table = goldens.generate(kind, n)
    if args.format == "json":
        print(json.dumps({kind: {str(n): table}}, sort_keys=True))
        return
    latex = args.format == "latex-table"
    if latex:
        print(f"% {kind} table, n={n}")
        print("\\begin{array}{|l|l|}\\hline")
    for label in sorted(table, key=lambda s: (len(s), s)):
        value = table[label]
        row = json.dumps(value, sort_keys=True)
        if latex:
            head = label or "\\emptyset"
            print(f"{head} & {row} \\\\")
        else:
            print(f"{kind} n={n} {label or '-'}: {row}")
    if latex:
        print("\\hline\\end{array}")


def cmd_check_conjectures(args):
    # only the cross scan reads the degree bound, so only it keys the record
    cross_degree = None
    if args.cross:
        cross_degree = args.max_len if args.max_degree is None else \
            min(args.max_len, args.max_degree)

    def compute():
        payload = json.loads(conjecture_scan(args.n, args.max_len).to_json())
        if args.cross:
            payload["cross"] = json.loads(cross_k_scan(args.n, cross_degree).to_json())
        return payload
    payload = _cached(args, compute, max_degree=cross_degree)
    reports = [ConjectureReport.from_json(payload)]
    if "cross" in payload:
        reports.append(ConjectureReport.from_json(payload["cross"]))
    _emit(args, "\n".join(report.summary() for report in reports), payload)
    if not all(report.passed for report in reports):
        raise VerificationError("conjecture violations found")


def cmd_gkm_check(args):
    if args.mode == "big":
        if args.max_d is not None:
            raise DomainError("--max-d is for --mode small; big mode checks "
                              "divisibility by (1 - e^alpha) alone")
        if args.max_len < 1:
            raise DomainError("--max-len must be >= 1 for --mode big: the "
                              "identity alone has no root to check")
        datum = _datum_for(args, default_n=2)
        engine = PsiEngine(datum, "big")
        els = weyl.all_elements(datum, args.max_len)
        roots = sorted({a for v in els for a in weyl.inversions(v)},
                       key=lambda a: a.coords)
        pairs = [(a, w) for a in roots for w in els]
        ok = all(gkm_check_big(lambda x, v=v: engine.psi_right(v, x), pairs)
                 for v in els)
        checked = len(els) ** 2 * len(roots)
    else:
        if args.type:
            raise DomainError("--type is for --mode big; small mode runs on "
                              "affine SL_n, chosen by --n")
        datum = _datum_for(args, default_n=2)
        n = len(datum.nodes)
        engine = PsiEngine(datum, "level-zero")
        fin = engine.coeffs
        ok = True
        checked = 0
        els = weyl.all_elements(datum, args.max_len)
        grass = [v for v in els if weyl.is_grassmannian(v)]
        roots = [(tuple((1 if t == i else 0) - (1 if t == j else 0)
                        for t in range(n)), i, j)
                 for i in range(n) for j in range(n) if i != j]
        max_d = 3 if args.max_d is None else args.max_d
        for v in grass:
            psi_of = lambda x, v=v: engine.psi_right(v, x)
            for avee, i, j in roots:
                alpha = fin.weight(avee)
                for d in range(1, max_d + 1):
                    for w in els:
                        checked += 1
                        if not small_gkm_grassmannian_check(psi_of, datum, avee,
                                                            alpha, d, w):
                            ok = False
                        if not small_gkm_check(psi_of, datum, avee, alpha, d, w):
                            ok = False
    _emit(args, f"gkm {args.mode}: {'PASS' if ok else 'FAIL'} [{checked} checks]",
          {"mode": args.mode, "passed": ok, "checked": checked})
    if not ok:
        raise VerificationError("GKM condition violated")


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="khecke",
        description="Exact K-theoretic Schubert calculus for the affine Grassmannian")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, n_default=None, rank=True):
        if rank:
            p.add_argument("--n", type=int, default=n_default,
                           help="rank parameter (affine SL_n)")
        p.add_argument("--format", choices=("text", "json", "latex-table"),
                       default="text")
        p.add_argument("--cache-dir", default=None,
                       help=f"cache directory (or ${'{'}KHECKE_CACHE{'}'})")

    p = sub.add_parser("psi", help="localization value psi^v(w)")
    common(p)
    p.add_argument("--type", help="Cartan type, e.g. A2 or A1~")
    p.add_argument("--v", required=True, help="word for v")
    p.add_argument("--w", required=True, help="word for w")
    p.add_argument("--algorithm", choices=("right", "left", "gw"), default="right")
    p.add_argument("--flavor", choices=("big", "level-zero"), default=None,
                   help="default: level-zero on affine data, big on finite data")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("expand-group", help="expand a group element over T_v")
    common(p)
    p.add_argument("--type", help="Cartan type")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_expand_group)

    p = sub.add_parser("kappa", help="kappa_i (cyclically decreasing sum)")
    common(p, n_default=3)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("g", help="K-k-Schur function g_lambda")
    common(p, n_default=3)
    p.add_argument("--partition", required=True)
    p.add_argument("--basis", default="s", choices=("m", "h", "s", "kschur"))
    p.set_defaults(fn=cmd_g)

    p = sub.add_parser("G", help="affine stable Grothendieck polynomial")
    common(p, n_default=3)
    p.add_argument("--partition", required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--basis", default="F", choices=("F", "m"))
    p.set_defaults(fn=cmd_G)

    p = sub.add_parser("kschur", help="k-Schur function")
    common(p, n_default=3)
    p.add_argument("--partition", required=True)
    p.add_argument("--basis", default="s", choices=("m", "h", "s"))
    p.set_defaults(fn=cmd_kschur)

    p = sub.add_parser("pieri", help="K-homology Pieri rule kappa_i * g_v")
    common(p, n_default=3)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--partition", required=True, help="partition of v")
    p.set_defaults(fn=cmd_pieri)

    p = sub.add_parser("coproduct", help="coproduct of g_lambda over g (x) g")
    common(p, n_default=3)
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("structure", help="K-homology structure constants")
    common(p, n_default=3)
    p.add_argument("--u", required=True, help="partition of u")
    p.add_argument("--v", required=True, help="partition of v")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("k-sl2", help="equivariant k_w for affine SL_2")
    common(p, rank=False)
    p.add_argument("--r", type=int, default=None, help="index of sigma_r")
    p.add_argument("--partition", default=None, help="column partition 1^r")
    p.add_argument("--cutoff", type=int, default=8)
    p.set_defaults(fn=cmd_k_sl2)

    p = sub.add_parser("tables", help="regenerate / diff the golden tables")
    common(p)
    p.add_argument("--which", default="all",
                   choices=("all",) + goldens.TABLE_KINDS)
    p.add_argument("--diff", action="store_true",
                   help="compare against the shipped golden files")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("check-conjectures", help="scan the positivity conjectures")
    common(p, n_default=3)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree bound for the cross-k scan")
    p.add_argument("--cross", action="store_true",
                   help="also scan the (n, n+1) cross expansions")
    p.set_defaults(fn=cmd_check_conjectures)

    p = sub.add_parser("gkm-check", help="verify GKM divisibility conditions")
    common(p)
    p.add_argument("--type", help="Cartan type for big-torus mode, e.g. A2~ or C2~")
    p.add_argument("--mode", choices=("big", "small"), default="small")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-d", type=int, default=None,
                   help="small mode: largest power d of (1 - e^alpha) (default 3)")
    p.set_defaults(fn=cmd_gkm_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _validate_bounds(args)
        args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader left early (``| head``): send the final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (DomainError, ValueError, SupportTruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: input too deep for this computation", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
