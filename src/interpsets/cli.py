"""Command-line surface: analyze, construct, count, verify-f, word-stats.

Exit codes: 0 when every emitted verdict holds, 1 when a verification
fails, 2 for usage and file errors, 3 for an internal fault (a broken
invariant or any other unexpected exception), reported as one JSON line on
stderr with its type, message and traceback.  All output files are written
atomically and are byte-identical across reruns with the same parameters
and seeds; timing appears only on stdout, never inside files.

Each command imports only the library modules it runs, so every call, a
fresh process, pays for no other module, and neither `count` nor
`verify-f` imports numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from .certificate import Certificate
from .certificate import atomic_write_text as _atomic_write

SCHEMA = 1


class UsageError(Exception):
    pass


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _cert_verdict(cert):
    """The one serialized form of a verdict."""
    return {"name": cert.predicate, "ok": cert.holds, "certificate": cert.to_json()}


def _emit_csv(lines, path) -> list:
    """Write the CSV rows atomically to `path` and return [path] for the
    report's outputs, or, with no path, print them and return []."""
    text = "\n".join(lines) + "\n"
    if path:
        _atomic_write(path, text)
        return [path]
    print(text, end="")
    return []


def _report(command, parameters, outputs, certs, started, seed=None,
            results=None):
    """Print the stdout report of one command; exit 0 iff every verdict holds."""
    rep = {
        "schema": SCHEMA,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "outputs": outputs,
        "verdicts": [_cert_verdict(c) for c in certs],
    }
    if results:
        rep["results"] = results
    rep["timing_s"] = round(time.monotonic() - started, 3)
    print(_dump(rep), end="")
    return 0 if all(c.holds for c in certs) else 1


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args):
    from . import intsets

    started = time.monotonic()
    model = intsets.parse_set_spec(args.set)
    n = args.n
    certs = []
    extra = {}
    if args.gaps:
        extra["gap_histogram"] = {
            str(g): c for g, c in intsets.gap_histogram(model, n).items()}
    if args.syndetic is not None:
        certs.append(intsets.syndetic_certificate(model, n, args.syndetic))
    if args.thick is not None:
        certs.append(intsets.thick_certificate(model, n, args.thick))
    if args.pw_syndetic is not None:
        g, run_len = args.pw_syndetic
        certs.append(intsets.piecewise_syndetic_certificate(model, n, g, run_len))
    if args.gap_table is not None:
        certs.append(intsets.gap_syndeticity_table(model, n, args.gap_table))
    if args.banach is not None:
        n_max = args.banach or min(64, n // 2)   # 0 is the bare flag
        profile = intsets.banach_density_profile(model, n, n_max=n_max)
        extra["banach"] = {
            "exact": str(profile.exact) if profile.exact is not None else None,
            "rows": [
                {"n": r.length, "count": r.count, "start": r.start,
                 "value": str(r.value)}
                for r in profile.rows
            ],
        }
    outputs = []
    if args.out:
        payload = {"schema": SCHEMA, "set": args.set, "N": n,
                   "verdicts": [_cert_verdict(c) for c in certs], **extra}
        _atomic_write(args.out, _dump(payload))
        outputs.append(args.out)
    return _report("analyze", {"set": args.set, "N": n}, outputs, certs,
                   started=started, results=extra)


# -- construct -----------------------------------------------------------------


def _json_int(value, field):
    """A field of the problem file that must be a JSON integer: a float, a
    string or a bool is refused, never truncated or converted."""
    if type(value) is not int:
        raise TypeError(f"{field} must be a JSON integer, got {json.dumps(value)}")
    return value


def _load_problem(path):
    from . import construct, intsets

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        model = intsets.parse_set_spec(data["set_spec"])
        k = _json_int(data["k"], "k")
        n = _json_int(data["N"], "N")
        fspec = data["f"]
        if "pairs" in fspec:
            pairs = [(_json_int(s, f"f.pairs[{i}]"), _json_int(v, f"f.pairs[{i}]"))
                     for i, (s, v) in enumerate(fspec["pairs"])]
            return (construct.InterpolationProblem.from_pairs(model, k, n, pairs),
                    data, None)
        if "seed" not in fspec:
            raise UsageError("f must give pairs or a seed")
        seed = _json_int(fspec["seed"], "f.seed")
        if fspec.get("distribution", "uniform") != "uniform":
            raise UsageError("only distribution=uniform is supported")
        return construct.random_problem(model, k, n, seed), data, seed
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers the DomainError of a bad k or of pairs off S
        raise UsageError(f"bad problem file {path}: {exc}") from exc


def _write_trace(out_dir, trace):
    from . import words

    files = {}
    for lvl in trace.levels:
        name = f"w{lvl.level}.word"
        words.write_word_file(os.path.join(out_dir, name), lvl.w)
        files[lvl.level] = name
    words.write_word_file(os.path.join(out_dir, "xu.word"), trace.result)
    doc = {
        "schema": SCHEMA,
        "kind": trace.kind,
        "alphabet": trace.alphabet_size,
        "window": trace.window,
        "set_spec": trace.set_spec,
        "result_file": "xu.word",
        "result_length": len(trace.result),
        "closing_blocks": list(trace.closing_blocks),
        "levels": [
            {
                "level": lvl.level,
                "m": lvl.m,
                "w_file": files[lvl.level],
                "t_size": len(lvl.t_sample),
                "t_prime_size": len(lvl.t_prime_sample),
                "t_enum_len": len(lvl.t_sample),
                "t_prime_enum_len": len(lvl.t_prime_sample),
                "t_capped": lvl.t_capped,
                "gap_required": lvl.gap_required,
                "spacing_bound": lvl.spacing_bound,
                "density_bound": (str(lvl.density_bound)
                                  if lvl.density_bound is not None else None),
            }
            for lvl in trace.levels
        ],
    }
    path = os.path.join(out_dir, "trace.json")
    _atomic_write(path, _dump(doc))
    return [path, os.path.join(out_dir, "xu.word")]


def cmd_construct(args):
    from . import construct, words

    started = time.monotonic()
    problem, data, seed = _load_problem(args.problem)
    os.makedirs(args.out_dir, exist_ok=True)
    scale = {"N": problem.n}
    certs = []
    outputs = []

    def emit_word(w):
        """Write x.word and certify that it agrees with f on S."""
        path = os.path.join(args.out_dir, "x.word")
        words.write_word_file(path, w)
        outputs.append(path)
        certs.append(construct.restriction_identity(problem, w.symbols, len(w),
                                                    scale))

    try:
        if args.kind == "zero":
            w, profile = construct.extend_zero(problem)
            emit_word(w)
            n_max = max(profile.p, default=0)
            certs.append(Certificate.from_bool(
                "entropy-estimate", True, {**scale, "n_max": n_max},
                {"h_at_max": profile.h_est.get(n_max)}))
        elif args.kind == "sturmian":
            w = construct.sturmian_interpolate(problem)
            emit_word(w)
            delta = problem.model.delta()
            m_max = min(20, len(w) // 2)
            counts = words.factor_counts(w, m_max) if m_max else []
            bound_ok = all(count <= (m + 1) * problem.k ** math.ceil(m * delta)
                           for m, count in enumerate(counts, 1))
            certs.append(Certificate.from_bool(
                "sturmian-factor-bound", bound_ok, {**scale, "m_max": m_max},
                {"p": counts}))
        elif args.kind == "mixing":
            ext = construct.mixing_extend(problem, args.l_target)
            emit_word(ext.word)
            certs.append(Certificate.from_bool(
                "factor-coverage", ext.l_cover == ext.l_target,
                {**scale, "l_target": ext.l_target}, {"l_cover": ext.l_cover}))
        else:
            builder = (construct.totally_minimal_construct if args.kind == "minimal"
                       else construct.strictly_ergodic_construct)
            trace = builder(problem, levels=args.levels)
            outputs.extend(_write_trace(args.out_dir, trace))
            certs.extend(construct.verify_trace(trace, problem))
    except construct.ConstructionRefused as exc:
        certs.append(exc.certificate)
    params = {"kind": args.kind, "problem": args.problem,
              "problem_spec": data.get("set_spec")}
    return _report("construct", params, outputs, certs, seed=seed,
                   started=started)


# -- count ---------------------------------------------------------------------


def _parse_m_values(args):
    if args.m is not None:
        return [args.m]
    if args.m_list:
        try:
            return [int(x) for x in args.m_list.split(",")]
        except ValueError as exc:
            raise UsageError(f"--m-list must be integers separated by commas, "
                             f"got {args.m_list!r}") from exc
    if args.m_range:
        try:
            lo, hi, step = (int(x) for x in args.m_range.split(":"))
        except ValueError as exc:
            raise UsageError("m-range must be LO:HI:STEP") from exc
        if step < 1:
            raise UsageError(f"--m-range step must be >= 1, got {step}")
        ms = list(range(lo, hi + 1, step))
        if not ms:
            raise UsageError(f"m-range {args.m_range} yields no m")
        return ms
    raise UsageError("pass --m, --m-list, or --m-range")


def cmd_count(args):
    from . import counting

    started = time.monotonic()
    delta = _parse_fraction(args.delta)
    ms = _parse_m_values(args)
    if args.oracle:
        for m in ms:
            try:
                counting.check_oracle_work(m, args.k)
            except ValueError as exc:
                raise UsageError(f"--oracle refused at m = {m}: {exc}") from exc
    profile = counting.growth_rate_profile(delta, args.k, ms)
    lines = ["m,count,log_rate,analytic_limit,inf_so_far"]
    params = {"delta": str(delta), "k": args.k, "m": ms}
    certs = []
    for row, inf in zip(profile.rows, profile.running_inf):
        lines.append(f"{row.m},{row.count},{row.log_rate:.12f},"
                     f"{row.analytic_limit:.12f},{inf:.12f}")
        if args.oracle:
            oracle = counting.brute_force_count(row.m, delta, args.k)
            certs.append(Certificate.from_bool(
                f"oracle-m{row.m}", oracle == row.count, {**params, "m": row.m},
                {"count": row.count, "oracle": oracle}))
    outputs = _emit_csv(lines, args.csv)
    if not certs:
        certs = [Certificate.from_bool("count", True, params, {})]
    return _report("count", params, outputs, certs, started=started)


# -- verify-f ------------------------------------------------------------------


def cmd_verify_f(args):
    from . import recurrence

    started = time.monotonic()
    lo, hi = args.shifts
    if not 1 <= lo <= hi:
        raise UsageError(f"--shifts needs 1 <= LO <= HI, got {lo} {hi}")
    bound = args.n
    if args.dual_oracle and bound > recurrence.DIGIT_ORACLE_LIMIT:
        raise UsageError(f"--dual-oracle refused at N = {bound}: above the "
                         f"digit oracle's {recurrence.DIGIT_ORACLE_LIMIT} cap")
    model = recurrence.build_F(bound)
    sf = recurrence.verify_sum_free(model.elements, bound)
    certs = [Certificate.from_bool(
        "sum-free", sf.ok, {"N": bound},
        {"pairs_checked": sf.pairs_checked,
         "counterexample": list(sf.counterexample) if sf.counterexample else None})]
    for n in range(lo, hi + 1):
        rep = recurrence.verify_shift_ip(model, n, args.depth)
        certs.append(Certificate.from_bool(
            f"shift-ip-{n}", rep.ok, {"N": bound, "n": n, "depth": args.depth},
            {"required": len(rep.required), "missing": list(rep.missing)}))
    if args.dual_oracle:
        from_digits = recurrence.digit_enumerate(bound)
        certs.append(Certificate.from_bool(
            "dual-oracle-agreement", from_digits == list(model.elements),
            {"N": bound}, {"members": len(model.elements)}))
    outputs = []
    if args.out_set:     # a set file: one ascending decimal per line
        _atomic_write(args.out_set, "".join(f"{x}\n" for x in model.elements))
        outputs.append(args.out_set)
    if args.out:
        payload = {"schema": SCHEMA, "N": bound, "index_family":
                   "I_n = {2^(n-1)(2i-1)}",
                   "verdicts": [_cert_verdict(c) for c in certs]}
        _atomic_write(args.out, _dump(payload))
        outputs.append(args.out)
    return _report("verify-f",
                   {"N": bound, "depth": args.depth, "shifts": list(args.shifts)},
                   outputs, certs, started=started)


# -- word-stats ----------------------------------------------------------------


def cmd_word_stats(args):
    from . import words

    started = time.monotonic()
    w = words.read_word_file(args.word)
    n_max = args.n_max or min(64, len(w) // 2)   # the type rules out 0
    profile = words.complexity_profile(w, n_max)
    lines = ["n,p,h_est"]
    for n in sorted(profile.p):
        lines.append(f"{n},{profile.p[n]},{profile.h_est[n]:.12f}")
    outputs = _emit_csv(lines, args.csv)
    violations = profile.violations()
    cert = Certificate.from_bool(
        "profile-invariants", not violations, {"length": len(w), "n_max": n_max},
        {"h_at_max": profile.h_est[n_max], "h_inf": min(profile.h_est.values()),
         "violations": violations})
    return _report("word-stats", {"word": args.word, "n_max": n_max},
                   outputs, [cert], started=started)


# -- parser --------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="interpsets",
        description="Interpolation-set constructions and certificates at desk scale")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certificates and densities for a set")
    p.add_argument("--set", required=True, help="generator spec, e.g. 'kind=ap a=3 b=0'")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="window bound N")
    p.add_argument("--gaps", action="store_true")
    p.add_argument("--syndetic", type=int, metavar="G")
    p.add_argument("--thick", type=int, metavar="L")
    p.add_argument("--pw-syndetic", type=int, nargs=2, metavar=("G", "L"))
    p.add_argument("--gap-table", type=int, metavar="LEN")
    p.add_argument("--banach", type=_positive_int, nargs="?", const=0,
                   metavar="NMAX",
                   help="density profile; bare flag picks min(64, N/2)")
    p.add_argument("--out", help="write a JSON report file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="run an interpolation construction")
    p.add_argument("--kind", required=True,
                   choices=["zero", "sturmian", "mixing", "minimal", "ergodic"])
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--l-target", type=int, default=4)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="exact low-weight word counts")
    p.add_argument("--delta", required=True, help="exact rational like 1/3")
    p.add_argument("--k", type=int, required=True)
    m_opts = p.add_mutually_exclusive_group()
    m_opts.add_argument("--m", type=int)
    m_opts.add_argument("--m-list")
    m_opts.add_argument("--m-range", metavar="LO:HI:STEP")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the enumeration oracle")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify-f", help="verify the sum-free recurrence set F")
    p.add_argument("--n", type=_positive_int, default=10 ** 6)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--shifts", type=int, nargs=2, default=(1, 3),
                   metavar=("LO", "HI"))
    p.add_argument("--dual-oracle", action="store_true")
    p.add_argument("--out", help="JSON verdict file")
    p.add_argument("--out-set", help="write F as a set file")
    p.set_defaults(func=cmd_verify_f)

    p = sub.add_parser("word-stats", help="complexity profile of a word file")
    p.add_argument("--word", required=True)
    p.add_argument("--n-max", type=_positive_int)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_word_stats)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        # ValueError covers spec, domain and JSON errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program is not a verdict, so never exit 1 or 2
        import traceback

        print(json.dumps({"error": "internal", "type": type(exc).__name__,
                          "message": str(exc),
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
