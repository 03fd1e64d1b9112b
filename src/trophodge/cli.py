"""Command-line surface for the tropical cohomology pipeline.

Exit codes: 0 success, 1 verification failure, 2 parse error (including
conflicting flags, an invalid weight file, an input file that cannot be
read, is not UTF-8 JSON or repeats a key in an object, and an
``--output`` that cannot be written), 3 invalid fan (or an
incomplete one where a complete fan is needed, as by ``chow`` and
``pair``), 4 cohomology error (an open fan that is not smooth; for
``verify``, a fan whose checks cannot run), 5 non-smooth input (for
``pair``, a weight cycle that cannot be built or paired, which no known
input reaches), 6 unbalanced weights.

Each subcommand declares the code of its library failures as
``failure``; :func:`main` turns a ``ValueError`` into that code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from trophodge import cohomology, cycles, fans, weightss

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVALID_FAN = 3
EXIT_COHOMOLOGY = 4
EXIT_NONSMOOTH = 5
EXIT_UNBALANCED = 6


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _builtin(name):
    try:
        return fans.builtin(name)
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_PARSE, exc.args[0])


def _decimal(text):
    """An integer in ASCII decimal, -?[0-9]+; ``int`` alone would also read
    '_', '+', spaces and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def _load_fan(args):
    if args.builtin:
        return _builtin(args.builtin)
    if args.input:
        data = _load_json(args.input)
        try:
            return fans.from_json_dict(data)
        except ValueError as exc:
            raise CliError(EXIT_INVALID_FAN, f"invalid fan: {exc}")
    raise CliError(EXIT_PARSE, "need --builtin or --input")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or a repeated key
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}")


def _json_object(pairs):
    """A JSON object as a dict; ValueError on a repeated key, which
    ``json`` would otherwise let the last value overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_fan_validate(args):
    fan = _load_fan(args)
    smooth = "yes" if fan.is_smooth() else "no"
    complete = "yes" if fans.is_complete(fan) else "no"
    f = "(" + ",".join(str(x) for x in fan.f_vector()) + ")"
    _emit(
        f"cones={len(fan.cones)} smooth={smooth} complete={complete} f={f}\n",
        args.output,
    )
    return 0


def cmd_cohomology(args):
    if args.all and (args.p is not None or args.q is not None):
        raise CliError(EXIT_PARSE, "--all takes no --p or --q")
    fan = _load_fan(args)
    n = fan.ambient_rank
    if args.all:
        table = cohomology.betti_table(fan)
        if args.output and args.output.endswith(".json"):
            _emit(cohomology.betti_to_json(table) + "\n", args.output)
        else:
            _emit(cohomology.betti_to_tsv(table), args.output)
        return 0
    if args.p is None or args.q is None:
        raise CliError(EXIT_PARSE, "need --p and --q, or --all")
    if not (0 <= args.p <= n and 0 <= args.q <= n):
        raise CliError(EXIT_PARSE, "p and q must lie in 0..n")
    _emit(f"{cohomology.hodge_number(fan, args.p, args.q)}\n", args.output)
    return 0


def cmd_weightss(args):
    fan = _load_fan(args)
    page = weightss.e1_page(fan) if args.level == 1 else weightss.e2_page(fan)
    _emit(page.to_json() + "\n", args.output)
    return 0


def cmd_chow(args):
    if args.all and args.codim is not None:
        raise CliError(EXIT_PARSE, "--all takes no --codim")
    fan = _load_fan(args)
    n = fan.ambient_rank
    if fan.is_smooth() and not fans.is_complete(fan):
        raise CliError(EXIT_INVALID_FAN, "Chow groups via weights need a complete fan")
    if args.all:
        dims = [cycles.chow_dim(fan, p) for p in range(n + 1)]
        _emit(json.dumps({"dims": dims}, sort_keys=True) + "\n", args.output)
        return 0
    if args.codim is None:
        raise CliError(EXIT_PARSE, "need --codim or --all")
    if not 0 <= args.codim <= n:
        raise CliError(EXIT_PARSE, "codim must lie in 0..n")
    _emit(f"{cycles.chow_dim(fan, args.codim)}\n", args.output)
    return 0


def cmd_pair(args):
    if not args.input:
        raise CliError(EXIT_PARSE, "need --input with a weight file")
    data = _load_json(args.input)
    try:
        mw = cycles.MinkowskiWeight.from_json_dict(data)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"invalid weight file: {exc}")
    if not fans.is_complete(mw.fan):
        raise CliError(EXIT_INVALID_FAN, "pairing needs a complete fan")
    if not mw.divisor:
        violations = cycles.balancing_check(mw)
        if violations:
            for sigma, defect in violations:
                print(
                    f"unbalanced at cone {list(sigma.rays)}: "
                    f"defect {[str(x) for x in defect]}",
                    file=sys.stderr,
                )
            raise CliError(EXIT_UNBALANCED, "weights are not balanced")
    cx = weightss.trop_complex_for(mw.fan)
    cycle = cycles.weight_cycle(cx, mw)
    d = cycle.p
    res = cohomology.cohomology(cx, d, d)
    lines = [
        str(cycles.pair(rep, cycle)) for rep in res.representatives
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_subdivide(args):
    fan = _load_fan(args)
    if not args.ray:
        raise CliError(EXIT_PARSE, "need --ray a,b,...")
    try:
        ray = tuple(_decimal(x) for x in args.ray.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise CliError(EXIT_PARSE, "ray must be a comma-separated integer vector")
    out = fans.star_subdivision(fan, ray)
    _emit(json.dumps(fans.to_json_dict(out), sort_keys=True) + "\n", args.output)
    return 0


def _verify_fan(name, fan):
    n = fan.ambient_rank
    checks = []

    def record(label, ok):
        checks.append({"name": label, "pass": bool(ok)})

    comparison = weightss.compare_with_trop(fan)
    record("e2_matches_tropical", comparison["pass"])
    if not comparison["pass"]:
        checks[-1]["mismatches"] = [
            [p, q, e2, h_trop]
            for p, q, e2, h_trop, ok in comparison["entries"]
            if not ok
        ]
    betti = cohomology.betti_table(fan)
    record(
        "vanishing_above_diagonal",
        all(
            betti[p][q] == 0
            for p in range(n + 1)
            for q in range(n + 1)
            if q >= p + 1
        ),
    )
    if fans.is_complete(fan):
        record("euler_vs_h_vector", weightss.euler_consistency(fan)["pass"])
        record(
            "chow_matches_diagonal",
            all(cycles.chow_dim(fan, p) == betti[p][p] for p in range(n + 1)),
        )
        record(
            "vanishing_h_p0",
            all(betti[p][0] == 0 for p in range(1, n + 1)),
        )
        if n == 2:
            record("numerical_kernels", cycles.numerical_kernel_check(fan)["pass"])
    ok = all(c["pass"] for c in checks)
    return {"fan": name, "checks": checks, "pass": ok}


def cmd_verify(args):
    if args.all_builtins:
        names = list(fans.BUILTIN_ZOO)
    elif args.builtin:
        names = [args.builtin]
    else:
        raise CliError(EXIT_PARSE, "need --builtin or --all-builtins")
    reports = [_verify_fan(name, _builtin(name)) for name in names]
    ok = all(r["pass"] for r in reports)
    _emit(
        json.dumps({"reports": reports, "pass": ok}, sort_keys=True) + "\n",
        args.output,
    )
    return 0 if ok else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trophodge",
        description=(
            "Exact tropical cohomology of compactified fan spaces. "
            "Built-in fans include p1, p2, p3, p1xp1, p1xp1xp1, "
            "hirzebruch(a) with rays e1, e2, -e1+a*e2, -e2, blowup_p2, "
            "torus(n), and affine_space(n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fan_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--builtin", help="built-in fan name")
        source.add_argument("--input", help="fan JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("fan-validate", help="validate a fan and print a summary")
    fan_flags(p)
    p.set_defaults(func=cmd_fan_validate, failure=EXIT_INVALID_FAN)

    p = sub.add_parser("cohomology", help="tropical Hodge numbers h^{p,q}")
    fan_flags(p)
    p.add_argument("--p", type=_decimal)
    p.add_argument("--q", type=_decimal)
    p.add_argument("--all", action="store_true", help="full Betti table")
    p.set_defaults(func=cmd_cohomology, failure=EXIT_COHOMOLOGY)

    p = sub.add_parser("weightss", help="weight spectral sequence page dims")
    fan_flags(p)
    p.add_argument("--level", type=_decimal, choices=(1, 2), default=2)
    p.set_defaults(func=cmd_weightss, failure=EXIT_NONSMOOTH)

    p = sub.add_parser("chow", help="Minkowski-weight Chow group dimensions")
    fan_flags(p)
    p.add_argument("--codim", type=_decimal)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_chow, failure=EXIT_NONSMOOTH)

    p = sub.add_parser("verify", help="run the full verification suite")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--builtin", help="verify one built-in fan")
    which.add_argument("--all-builtins", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify, failure=EXIT_COHOMOLOGY)

    p = sub.add_parser("pair", help="pair a weight cycle with cohomology")
    p.add_argument("--input", help="Minkowski weight JSON file", required=False)
    p.add_argument("--output")
    p.set_defaults(func=cmd_pair, failure=EXIT_NONSMOOTH)

    p = sub.add_parser("subdivide", help="star subdivision along a ray")
    fan_flags(p)
    p.add_argument("--ray", help="comma-separated integer ray, e.g. 1,1")
    p.set_defaults(func=cmd_subdivide, failure=EXIT_INVALID_FAN)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        code, message = exc.code, exc
    except ValueError as exc:
        code, message = args.failure, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
