"""Batch command-line front end.

Every subcommand maps to one library operation or verification suite,
prints exact values (rationals always as p/q, never decimals) and is
byte-identical across runs.  Exit codes: 0 success, 1 usage error,
2 verification failure.

A query is parsed once.  When its first word names a subcommand and the
rest is in canonical form (each word an exact flag of that subcommand,
given once and followed by a value that does not start with "-", or its
one bare positional), the arguments are read from the subcommand's flag
table directly, without building a parser.  Any other query goes to
argparse: the subcommand's own parser when the first word names one,
else the top-level parser (no words, --help, an unknown subcommand).
Every route gives the same arguments, and every usage error comes from
argparse with its text.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import degrees, gw, nl, ring, verify
from .arith import parse_rational


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_ints(text: str, what: str) -> List[int]:
    """The ints of a comma-separated list, [] for ''; an empty item is a usage error."""
    try:
        return [int(item) for item in text.split(",")] if text else []
    except ValueError as exc:
        raise UsageError(f"malformed {what} {text!r}: {exc}") from exc


def _parse_delta(text: str) -> degrees.PolarizationType:
    try:
        return degrees.PolarizationType(_parse_ints(text, "polarization type"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Command(NamedTuple):
    help: str
    flags: Dict[str, dict]  # extra arguments beyond --g and --json
    handler: Callable  # parsed arguments -> result with to_json_dict() and __str__


class _Report(NamedTuple):
    """Printed text and JSON of a value that carries no rendering of its own."""

    text: str
    data: dict

    def __str__(self) -> str:
        return self.text

    def to_json_dict(self) -> dict:
        return self.data


def _ring_reduce(args):
    indices = _parse_ints(args.indices, "index list")
    return ring.reduce(ring.LambdaPolynomial.monomial(args.g, indices))


def _degree(value: int, route: str) -> _Report:
    return _Report(str(value), {"degree": str(value), "route": route})


def _deg_phi(args):
    delta = _parse_delta(args.delta)
    if args.route == "closed_form":
        value = degrees.deg_phi(args.g, delta)
    elif args.route == "stratified":
        value = degrees.deg_phi_crt(args.g, delta)
    elif args.g == 1 and delta.u == 1:
        value = degrees.oracle_index(delta.entries[0])
    else:
        raise UsageError("enumeration route exists only for g=1 and a length-1 chain")
    return _degree(value, args.route)


def _sp_order(args):
    order = degrees.sp_order(args.g, args.n)
    return _Report(str(order), {"g": args.g, "n": args.n, "order": str(order)})


def _gw_predict(args):
    if args.integral is None:
        if args.i != 1:
            raise UsageError("without --integral only the printed i=1 case is available")
        value = gw.gw_tau1_lambda(args.g, args.d)
        insertion = "lambda_g*lambda_{g-2}"
    else:
        value = gw.conjecture_prediction(args.g, args.d, args.i, args.integral)
        insertion = "supplied"
    data = {"g": args.g, "d": args.d, "i": args.i, "insertion": insertion, "value": str(value)}
    return _Report(str(value), data)


def _diagnose(args):
    report = degrees.nl_composition(args.g, _parse_delta(args.delta))
    text = (
        f"ring constant:      {report['constant']}\n"
        f"degree composition: {report['composed']}\n"
        f"match: {'yes' if report['match'] else 'no'}"
    )
    data = {
        "constant": str(report["constant"]),
        "composed": str(report["composed"]),
        "match": report["match"],
    }
    return _Report(text, data)


_INT = dict(type=int, required=True)
_CHAIN = dict(type=str, required=True)

# Every subcommand except `verify`, which prints per-suite lines and sets
# the exit code itself.
COMMANDS: Dict[str, _Command] = {
    "taut-nl": _Command(
        "tautological projection of a Noether-Lefschetz cycle",
        {"--delta": dict(_CHAIN, help="comma-separated chain, e.g. 1,2,4")},
        lambda args: nl.taut_nl(args.g, _parse_delta(args.delta)),
    ),
    "taut-nl-tilde": _Command(
        "projection of the degree-d elliptic-homomorphism cycle",
        {"--d": _INT},
        lambda args: nl.taut_nl_tilde(args.g, args.d),
    ),
    "taut-product": _Command(
        "projection of the u x (g-u) product cycle",
        {"--u": _INT},
        lambda args: nl.taut_product_cycle(args.g, args.u),
    ),
    "eisenstein": _Command(
        "q-expansion of the weight-2g Eisenstein series",
        {"--order": _INT},
        lambda args: nl.eisenstein_series(args.g, args.order),
    ),
    "ring-reduce": _Command(
        "normal form of a lambda monomial (indices with repeats)",
        {"--indices": dict(_CHAIN, help="e.g. 1,1,2 for L1^2 L2")},
        _ring_reduce,
    ),
    "ring-pair": _Command(
        "socle pairing matrix between complementary degrees",
        {"--k": _INT},
        lambda args: ring.pairing_matrix(args.g, args.k),
    ),
    "deg-phi": _Command(
        "degree of the polarization-quotient cover",
        {
            "--delta": _CHAIN,
            "--route": dict(
                type=str,
                default="closed_form",
                choices=["closed_form", "stratified", "enumeration"],
            ),
        },
        _deg_phi,
    ),
    "deg-pi": _Command(
        "degree of the level-forgetting cover",
        {"--delta": _CHAIN},
        lambda args: _degree(degrees.deg_pi(args.g, _parse_delta(args.delta)), "closed_form"),
    ),
    "sp-order": _Command("order of the symplectic group over Z/N", {"--n": _INT}, _sp_order),
    "gw-predict": _Command(
        "sigma-weighted Gromov-Witten predictor",
        {
            "--d": _INT,
            "--i": dict(type=int, default=1),
            "--integral": dict(
                type=parse_rational,
                help="Hodge/psi integral as p/q; default derives the printed case",
            ),
        },
        _gw_predict,
    ),
    "diagnose": _Command(
        "consistency diagnostics",
        {"topic": dict(choices=["nl-composition"]), "--delta": _CHAIN},
        _diagnose,
    ),
}

# Each subcommand's flag table: add_argument keywords by flag, positionals
# without a leading "-".  _parser() and _read both read it.
_FLAGS: Dict[str, Dict[str, dict]] = {
    name: {"--g": _INT, **command.flags, "--json": dict(action="store_true")}
    for name, command in COMMANDS.items()
}


@lru_cache(maxsize=None)
def _parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    """The top-level argument parser and each subcommand's own parser by
    name, built from COMMANDS on first use."""
    parser = _Parser(prog="agtaut", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    subparsers = {}
    for name, flags in _FLAGS.items():
        p = subparsers[name] = sub.add_parser(name, help=COMMANDS[name].help)
        # positionals first: argparse names missing arguments in this order
        for flag in sorted(flags, key=lambda f: f.startswith("-")):
            p.add_argument(flag, **flags[flag])
    verify_parser = subparsers["verify"] = sub.add_parser("verify", help="run verification suites")
    selection = verify_parser.add_mutually_exclusive_group()
    selection.add_argument("--all", action="store_true")
    selection.add_argument("--suite", action="append", default=[])
    verify_parser.add_argument("--list", action="store_true")
    return parser, subparsers


def _read(name: str, words: List[str]) -> Optional[argparse.Namespace]:
    """The arguments of subcommand `name` when its words are in canonical
    form, read from its flag table as argparse would read them; None for
    any other query.  Each value must pass its flag's type and choices, and
    every required argument must be present; an absent flag takes its
    default."""
    flags = _FLAGS[name]
    given: Dict[str, str] = {}
    words = iter(words)
    for word in words:
        if not word.startswith("-"):  # a bare word fills the next positional
            flag = next((f for f in flags if f[0] != "-" and f not in given), None)
            value = word
        elif "action" in flags.get(word, {}):  # the --json switch
            flag, value = word, ""
        else:
            flag, value = word, next(words, "-")
            if value.startswith("-"):
                return None
        if flag not in flags or flag in given:
            return None
        given[flag] = value
    args = argparse.Namespace(command=name)
    for flag, spec in flags.items():
        if "action" in spec:
            value = flag in given
        elif flag in given:
            try:
                value = spec.get("type", str)(given[flag])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        elif spec.get("required") or flag[0] != "-":
            return None
        else:
            value = spec.get("default")
        setattr(args, flag.lstrip("-"), value)
    return args


def _parse(argv: List[str]) -> argparse.Namespace:
    """The arguments of one query: read directly when it is a subcommand's
    query in canonical form, else parsed by a single argparse parser."""
    if argv and argv[0] in _FLAGS:
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
    parser, subparsers = _parser()
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args = subparser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _verify(args, out) -> int:
    if args.list:
        for name in verify.CHECKS:
            print(name, file=out)
        return 0
    # --all (and the bare default) run everything; otherwise the named suites
    names = None if args.all or not args.suite else args.suite
    return 0 if verify.run_suites(names, stream=out) else 2


def run(argv: List[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        if args.command == "verify":
            return _verify(args, out)
        result = COMMANDS[args.command].handler(args)
        if args.json:
            print(json.dumps(result.to_json_dict(), sort_keys=True), file=out)
        else:
            print(result, file=out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
