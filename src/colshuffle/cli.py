"""Command-line interface.

Subcommands:

    stats <perm>                     descent statistics of a permutation
    w <file> --eps E                 generating function of a configuration
    hadamard <left> <right> --eps E  closed-form Hadamard product
    verify <suite> [bounds]          run a verification suite
    zeta build <family> <params..>   one catalog entry
    zeta hadamard <fam:p,..> ...     Hadamard product of catalog entries
    zeta verify [--max-n K]          catalog identity sweep

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .configurations import make_strongly_disjoint, parse_labelled_configuration
from .errors import BadParameters, ColshuffleError, ParseError
from .permutations import descent_set, parse_permutation, s_des, stat_triple
from .ratfun import RationalGF, expand, w_of
from .shuffle_algebra import hadamard_via_theorem
from .verify import SUITES, run_suite, series_oracle
from .zeta import build_entry, family_params, hadamard_entries

_USAGE_ERROR = 2
_VERIFY_ERROR = 1


def _write_json(obj, newline: str, put) -> None:
    """Write ``obj`` through ``put`` as ``json.dumps(obj, indent=2,
    sort_keys=True)`` does, byte for byte; ``newline`` is a line break and
    the indent of ``obj``.  With an indent, ``json`` runs its pure-Python
    encoder; here every string and key goes through the C escaper."""
    kind = type(obj)
    if kind is str:
        put(encode_basestring_ascii(obj))
    elif kind is int:
        put(int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            put("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        sep = ("{" if is_dict else "[") + inner
        for item in sorted(obj.items()) if is_dict else obj:
            put(sep)
            if is_dict:
                key, item = item
                put(encode_basestring_ascii(
                    key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + ("}" if is_dict else "]"))
    else:  # None, bools, floats and subclasses of str and int
        put(json.dumps(obj))


def _emit(obj) -> None:
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    print("".join(chunks))


def _rgf_output(rgf: RationalGF, fmt: str) -> None:
    if fmt == "json":
        _emit(rgf.to_json_obj())
    elif fmt == "latex":
        print(rgf.to_latex())
    else:
        print(rgf.to_text())


def cmd_stats(args) -> int:
    perm = parse_permutation(args.permutation)
    st = stat_triple(perm)
    report = {
        "permutation": str(perm),
        "length": len(perm),
        "des": st.des,
        "comaj": st.comaj,
        "col": {str(c): k for c, k in st.col},
        "Des": sorted(descent_set(perm)),
        "sDes": [[p, c] for p, c in s_des(perm)],
    }
    _emit(report)
    return 0


def _load_configuration(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_labelled_configuration(text)


def cmd_w(args) -> int:
    lc = _load_configuration(args.file)
    rgf = w_of(lc, args.eps)
    series = None if args.order is None else expand(rgf, args.order)
    _rgf_output(rgf, args.format)
    if series is not None:
        print(json.dumps([c.to_text() for c in series]))
    return 0


def cmd_hadamard(args) -> int:
    lhs = _load_configuration(args.left)
    rhs = _load_configuration(args.right)
    if not args.assume_coherent:
        rhs = make_strongly_disjoint(lhs, rhs)
    lc, rgf = hadamard_via_theorem(lhs, rhs, args.eps)
    order = args.verify
    if order is not None:  # before any output: a bad order prints nothing
        ok = series_oracle(lhs, rhs, rgf, args.eps, order)
    if args.format == "json":
        obj = lc.to_json_obj()
        obj["eps"] = args.eps
        obj["w"] = rgf.to_json_obj()
        _emit(obj)
    else:
        print(lc.to_text(), end="")
        _rgf_output(rgf, args.format)
    if order is None:
        return 0
    print("PASS" if ok else "FAIL")
    return 0 if ok else _VERIFY_ERROR


def cmd_verify(args) -> int:
    """Run ``args.suite`` with the bounds it takes that were given."""
    bounds = {}
    if args.suite in SUITES:
        for key in inspect.signature(SUITES[args.suite]).parameters:
            value = getattr(args, key, None)
            if value is not None:
                bounds[key] = value
    report = run_suite(args.suite, **bounds)
    _emit(report)
    return 0 if not report["failures"] else _VERIFY_ERROR


def _parse_family_params(family: str, values: list[int]) -> dict:
    names = family_params(family)
    if len(values) != len(names):
        raise BadParameters(
            f"family {family} takes {len(names)} parameter(s) {names}, "
            f"got {len(values)}")
    return dict(zip(names, values))


def cmd_zeta_build(args) -> int:
    params = _parse_family_params(args.family, args.params)
    entry = build_entry(args.family, **params)
    if args.format == "latex":
        print(entry.closed_form.to_latex())
    else:
        _emit(entry.to_json_obj())
    return 0


def cmd_zeta_hadamard(args) -> int:
    entries = []
    for spec in args.entries:
        family, _, rest = spec.partition(":")
        try:
            values = [int(v) for v in rest.split(",") if v] if rest else []
        except ValueError as exc:
            raise ParseError(f"bad parameters in {spec!r}") from exc
        entries.append(build_entry(family,
                                   **_parse_family_params(family, values)))
    result = hadamard_entries(entries)
    if args.format == "latex":
        print(result.rgf.to_latex())
    else:
        _emit(result.to_json_obj())
    return 0


def _add_bounds(parser, *suites) -> None:
    """One integer option per bound the ``suites`` take, named from their
    signatures as ``cmd_verify`` reads them back; an option not given is
    None."""
    for name in dict.fromkeys(name for suite in suites
                              for name in inspect.signature(suite).parameters):
        parser.add_argument("--" + name.replace("_", "-"), type=int)


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gets a new namespace."""
    parser = argparse.ArgumentParser(
        prog="colshuffle",
        description="Closed-form Hadamard products of rational generating "
                    "functions via coloured permutation shuffles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="descent statistics of a permutation")
    p.add_argument("permutation", help='e.g. "1^1 2^2" (colour 0 may be omitted)')
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("w", help="generating function of a configuration file")
    p.add_argument("file")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--order", type=int, default=None,
                   help="also print the series to this order")
    _add_format(p)
    p.set_defaults(func=cmd_w)

    p = sub.add_parser("hadamard",
                       help="closed-form Hadamard product of two "
                            "configuration files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--assume-coherent", action="store_true",
                   help="use the operands as given instead of relabelling "
                        "the right one")
    p.add_argument("--verify", type=int, metavar="N", default=None,
                   help="check against the series oracle to order N")
    _add_format(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    _add_bounds(p, *SUITES.values())
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeta", help="zeta-function catalog")
    zeta_sub = p.add_subparsers(dest="zeta_command", required=True)

    pz = zeta_sub.add_parser("build", help="build one catalog entry")
    pz.add_argument("family")
    pz.add_argument("params", nargs="*", type=int)
    _add_format(pz)
    pz.set_defaults(func=cmd_zeta_build)

    pz = zeta_sub.add_parser("hadamard",
                             help="Hadamard product of catalog entries, "
                                  "e.g. mat:2,1 mat:3,2")
    pz.add_argument("entries", nargs="+")
    _add_format(pz)
    pz.set_defaults(func=cmd_zeta_hadamard)

    pz = zeta_sub.add_parser("verify", help="catalog identity sweep")
    _add_bounds(pz, SUITES["catalog"])
    pz.set_defaults(func=cmd_verify, suite="catalog")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ColshuffleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
