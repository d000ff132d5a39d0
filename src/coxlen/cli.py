"""Batch command-line front end.

Every command reads its inputs, runs one module operation, and writes a
deterministic report (JSON or CSV) to --output or stdout.  Exit codes:
0 success, 1 domain/input errors, 2 resource caps, 3 a failed certificate
check.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from fractions import Fraction

from . import __version__
from .coxeter import (INF, classify_group, minimal_nonaffine_subsets,
                      order_text, parse_any)
from .errors import (CertificateError, CoxlenError, InputError,
                     ResourceCapError, require)
from .filling import (boundary_circle_length, build_triangle_model,
                      congruence_search, finite_parabolic_subsets,
                      two_pi_certificate)
from .quasimorphism import build_certificate, certify_lower_bound, reduce_word
from .reflen import (NODE_CAP, ReflenProtocol, affine_bound_experiment,
                     growth_profile, reflen_ball, reflen_element)
from .reports import (csv_report, format_interval, format_rational,
                      json_report, write_report)
from .tits import canonical_key
from .warp import grid_checks, warp_profile

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _read_matrix(args):
    if args.inline:
        return parse_any(args.inline)
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError("cannot read --input %s: %s" % (args.input, e)) from None
        return parse_any(text)
    raise InputError("provide --inline or --input")


def _parse_word(text, rank):
    if all(ch.isspace() or "0" <= ch <= "9" for ch in text):
        word = tuple(int(tok) - 1 for tok in text.split())
    elif all(ch.isspace() or ch in _LETTERS for ch in text):
        word = tuple(_LETTERS.index(ch) for ch in text if not ch.isspace())
    else:
        raise InputError("word %r is neither letters a-z nor 1-based indices" % text)
    for s in word:
        if not 0 <= s < rank:
            raise InputError("generator %d out of range for rank %d" % (s + 1, rank))
    return word


def _word_text(word):
    return "".join(_LETTERS[s] for s in word)


def _config(args, keys):
    return {k: getattr(args, k.replace("-", "_")) for k in keys}


def _protocol(args):
    return ReflenProtocol(d_cap=getattr(args, "D", ReflenProtocol.d_cap),
                          node_cap=getattr(args, "node_cap", NODE_CAP))


def cmd_classify(args):
    cm = _read_matrix(args)
    verdict = classify_group(cm)
    sig = verdict.signature
    summary = verdict.kind.value
    if verdict.minimal_nonaffine:
        summary += ", minimal non-affine"
    summary += ", signature (%d,%d,%d)" % sig
    report = {
        "matrix": [[order_text(m) for m in row] for row in cm.entries],
        "kind": verdict.kind.value,
        "components": [{"generators": [i + 1 for i in comp], "kind": k.value}
                       for comp, k in verdict.components],
        "minimal_nonaffine": verdict.minimal_nonaffine,
        "signature": list(sig),
        "field_conductor": cm.conductor(),
        "summary": summary,
    }
    return json_report(report, _config(args, ("inline", "input"))), 0


def cmd_subgroups(args):
    cm = _read_matrix(args)
    subsets = minimal_nonaffine_subsets(cm)
    report = {
        "minimal_nonaffine_subsets": [[i + 1 for i in t] for t in subsets],
        "count": len(subsets),
    }
    return json_report(report, _config(args, ("inline", "input"))), 0


def _result_row(res):
    digest = hashlib.sha256(canonical_key(res.element)).hexdigest()[:16]
    return digest, res.len_s, res.upper, res.lower, res.status


def cmd_reflen(args):
    cm = _read_matrix(args)
    config = _config(args, ("inline", "input", "word", "L", "D"))
    if args.word:
        word = _parse_word(args.word, cm.rank)
        if max(word, default=0) >= len(_LETTERS):
            raise InputError("the report spells words in the letters a-z; generator %d "
                             "has no letter" % (max(word) + 1))
        res = reflen_element(cm, word, _protocol(args))
        report = {
            "word": _word_text(word),
            "len_s": res.len_s,
            "upper": res.upper,
            "lower": res.lower,
            "status": res.status,
            "lower_sources": list(res.lower_sources),
            "witness": [_word_text(w) for w in res.witness] if res.witness else None,
            "depth_used": res.depth_used,
        }
        return json_report(report, config), 0
    ball = reflen_ball(cm, args.L, args.D, node_cap=args.node_cap)
    rows = [_result_row(res) for res in ball.results.values()]
    data = csv_report("key,len_S,upper,lower,status", rows, config)
    return data, (2 if ball.capped else 0)


def cmd_growth(args):
    cm = _read_matrix(args)
    word = _parse_word(args.word, cm.rank)
    certs = ()
    if args.pattern:
        certs = (build_certificate(cm.rank, args.pattern, window=args.window),)
    record = growth_profile(cm, word, args.K, _protocol(args), certs)
    rows = [(k, r.upper, r.lower, r.status) for k, r in record.powers]
    config = _config(args, ("inline", "input", "word", "K", "pattern"))
    return csv_report("k,upper,lower,status", rows, config), 0


def cmd_affine_bound(args):
    cm = _read_matrix(args)
    rec = affine_bound_experiment(cm, args.L, _protocol(args))
    if rec.attained:
        summary = "max reflection length %d = 2n, attained" % rec.max_value
    else:
        summary = "max reflection length %d < 2n = %d, not attained" % (
            rec.max_value, rec.bound)
    report = {
        "L": rec.L,
        "euclidean_dimension": rec.euclidean_dim,
        "bound": rec.bound,
        "max_value": rec.max_value,
        "attained": rec.attained,
        "value_counts": {str(k): v for k, v in rec.value_counts.items()},
        "ball_size": rec.ball_size,
        "summary": summary,
    }
    return json_report(report, _config(args, ("inline", "input", "L"))), 0


def cmd_qm_certify(args):
    cert = build_certificate(args.k, args.pattern, window=args.window)
    g = reduce_word(args.g, args.k)
    constant, bounds = certify_lower_bound(cert, g, args.K)
    report = {
        "alphabet_size": cert.k,
        "pattern": cert.pattern_text(),
        "raw_defect": cert.raw_defect,
        "window": cert.window,
        "stabilized": cert.stabilized,
        "defect_pair": list(cert.defect_pair),
        "homogeneous_defect_bound": format_rational(cert.homogeneous_defect),
        "generator_max": format_rational(cert.generator_max),
        "constant": format_rational(constant),
        "g": g.letters,
        "phi_g": format_rational(cert.phi(g)),
        "bounds": {str(k): b for k, b in zip(range(1, args.K + 1), bounds)},
    }
    config = _config(args, ("k", "pattern", "g", "K", "window"))
    return json_report(report, config), 0


def _order_arg(text, name):
    if text in ("inf", "0"):
        return INF
    try:
        return int(text)
    except ValueError:
        raise InputError("--%s must be an integer or inf, got %r" % (name, text)) from None


def cmd_filling(args):
    p, q = _order_arg(args.p, "p"), _order_arg(args.q, "q")
    model = build_triangle_model(p, q)
    try:
        h = Fraction(args.h)
    except (ValueError, ZeroDivisionError):
        raise InputError("--h must be a rational number, got %r" % args.h) from None
    cert = congruence_search(model, h, args.prime_cap)
    cusps = {}
    for s, cusp in sorted(model.cusps.items()):
        dmin, margin = two_pi_certificate(model, cert, s)
        cusps[str(s + 1)] = {
            "vertex": "inf" if cusp.vertex is None else format_rational(cusp.vertex),
            "width": format_rational(cusp.width),
            "short_elements": len(cert.short_sets[s]),
            "all_nontrivial_mod_p": True,
            "kernel_min_displacement": format_rational(dmin),
            "margin_over_two_pi": format_interval(margin),
            "boundary_circle_length": format_rational(
                boundary_circle_length(model, cert, s)),
        }
    report = {
        "model": {"p": order_text(p), "q": order_text(q),
                  "matrix": [[order_text(m) for m in row] for row in model.cm.entries]},
        "h": format_rational(h),
        "prime": cert.prime,
        "cusps": cusps,
        "parabolic_injectivity": {"-".join(str(i + 1) for i in subset): True
                                  for subset in finite_parabolic_subsets(model.cm)},
        "certified_boundary_length_bound": format_rational(cert.kernel_min_displacement),
        "margin_over_two_pi": format_interval(cert.margin_interval),
    }
    config = _config(args, ("p", "q", "h", "prime_cap"))
    return json_report(report, config), 0


def cmd_warp(args):
    profile = warp_profile(args.L, args.rT, args.grid)
    pos, inc, conv = grid_checks(profile)
    require(pos and inc and conv, "warp profile fails its grid checks: f > 0 %s, "
            "f' > 0 %s, f'' >= 0 %s", pos, inc, conv)
    rows = zip(profile.grid, profile.f, profile.fp, profile.fpp)
    config = _config(args, ("L", "rT", "grid"))
    config["r_T_used"] = profile.r_T
    config["bridge"] = [profile.r_a, profile.r_b]
    return csv_report("r,f,fp,fpp", rows, config), 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="coxlen",
        description="Reflection length, classification, quasimorphism and "
                    "filling certificates for Coxeter groups")
    ap.add_argument("--version", action="version", version="coxlen " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_matrix_opts(p):
        p.add_argument("--inline", help="matrix text, e.g. \"rank 3; m12=3 m13=3 m23=4\"")
        p.add_argument("--input", help="path to matrix text or JSON file")

    def add_common(p):
        p.add_argument("--output", help="write the report here (default stdout)")

    p = sub.add_parser("classify", help="spherical/Euclidean/non-affine verdict")
    add_matrix_opts(p); add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("subgroups", help="minimal non-affine generator subsets")
    add_matrix_opts(p); add_common(p)
    p.set_defaults(fn=cmd_subgroups)

    p = sub.add_parser("reflen", help="reflection length of a word or a ball")
    add_matrix_opts(p); add_common(p)
    p.add_argument("--word", help="generator word, e.g. abc or \"1 2 3\"")
    p.add_argument("-L", type=int, default=8, help="ball radius (default 8)")
    p.add_argument("-D", type=int, default=6, help="reflection depth cap (default 6)")
    p.add_argument("--node-cap", type=int, default=NODE_CAP)
    p.set_defaults(fn=cmd_reflen)

    p = sub.add_parser("growth", help="reflection length of powers g^1..g^K")
    add_matrix_opts(p); add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--K", type=int, default=6)
    p.add_argument("--pattern", help="attach a counting-quasimorphism certificate")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("-D", type=int, default=6)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("affine-bound", help="max reflection length over a ball "
                                            "of a Euclidean group")
    add_matrix_opts(p); add_common(p)
    p.add_argument("-L", type=int, default=8)
    p.set_defaults(fn=cmd_affine_bound)

    p = sub.add_parser("qm-certify", help="counting-quasimorphism certificate "
                                          "with growth lower bounds")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="alphabet size (>= 3)")
    p.add_argument("--pattern", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--K", type=int, default=6)
    p.add_argument("--window", type=int, default=None, help="default 3*|pattern|")
    p.set_defaults(fn=cmd_qm_certify)

    p = sub.add_parser("filling", help="congruence filling certificate for a "
                                       "cusped triangle group")
    add_common(p)
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="3")
    p.add_argument("--h", default="1", help="horoball height (rational, >= 1)")
    p.add_argument("--prime-cap", type=int, default=100)
    p.set_defaults(fn=cmd_filling)

    p = sub.add_parser("warp", help="warped cone profile with convexity checks")
    add_common(p)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--rT", type=float, default=None,
                   help="default: midpoint of (-L/2pi, -1)")
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(fn=cmd_warp)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        data, code = args.fn(args)
    except ResourceCapError as e:
        print("resource cap: %s" % e, file=sys.stderr)
        return 2
    except CertificateError as e:
        print("certificate check failed: %s" % e, file=sys.stderr)
        return 3
    except CoxlenError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    write_report(data, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
