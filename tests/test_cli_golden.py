"""Exact stdout of every README command-line example, as text and as JSON.

The expected strings are byte-for-byte what the command line printed before
its dispatch became table-driven; any change in rendering fails here.
"""

import io
import random
import re
import shlex

import pytest

from agtaut import cli
from agtaut.cli import run

# (arguments, text stdout, --json stdout)
GOLDEN = [
    (
        "taut-nl --g 2 --delta 2",
        "60 * L(1)\n",
        '{"g": 2, "terms": [{"coeff": "60", "indices": [1]}]}\n',
    ),
    (
        "taut-nl --g 4 --delta 1,2",
        "252 * L(1,3)\n",
        '{"g": 4, "terms": [{"coeff": "252", "indices": [1, 3]}]}\n',
    ),
    (
        "taut-nl-tilde --g 2 --d 2",
        "90 * L(1)\n",
        '{"g": 2, "terms": [{"coeff": "90", "indices": [1]}]}\n',
    ),
    (
        "taut-product --g 6 --u 1",
        "2730/691 * L(5)\n",
        '{"g": 6, "terms": [{"coeff": "2730/691", "indices": [5]}]}\n',
    ),
    (
        "eisenstein --g 2 --order 2",
        "1 + 240 q + 2160 q^2\n",
        '{"coeffs": ["1", "240", "2160"], "order": 2}\n',
    ),
    (
        "ring-reduce --g 3 --indices 1,1",
        "2 * L(2)\n",
        '{"g": 3, "terms": [{"coeff": "2", "indices": [2]}]}\n',
    ),
    (
        "ring-pair --g 4 --k 3",
        "rows: [1,2] [3]\ncols: [1,2] [3]\n[4 1]\n[1 0]\nnonsingular: yes\n",
        '{"cols": [[1, 2], [3]], "entries": [["4", "1"], ["1", "0"]], "g": 4, '
        '"k": 3, "nonsingular": true, "rows": [[1, 2], [3]]}\n',
    ),
    (
        "deg-phi --g 2 --delta 2,2",
        "720\n",
        '{"degree": "720", "route": "closed_form"}\n',
    ),
    (
        "deg-phi --g 2 --delta 2,2 --route stratified",
        "720\n",
        '{"degree": "720", "route": "stratified"}\n',
    ),
    (
        "deg-phi --g 1 --delta 2 --route enumeration",
        "6\n",
        '{"degree": "6", "route": "enumeration"}\n',
    ),
    (
        "deg-pi --g 1 --delta 3",
        "24\n",
        '{"degree": "24", "route": "closed_form"}\n',
    ),
    (
        "sp-order --g 2 --n 2",
        "720\n",
        '{"g": 2, "n": 2, "order": "720"}\n',
    ),
    (
        "gw-predict --g 2 --d 1",
        "1/288\n",
        '{"d": 1, "g": 2, "i": 1, "insertion": "lambda_g*lambda_{g-2}", "value": "1/288"}\n',
    ),
    (
        "gw-predict --g 2 --d 1 --integral 1/2880",
        "1/288\n",
        '{"d": 1, "g": 2, "i": 1, "insertion": "supplied", "value": "1/288"}\n',
    ),
    (
        "gw-predict --g 3 --d 2 --i 2 --integral 1/7",
        "99\n",
        '{"d": 2, "g": 3, "i": 2, "insertion": "supplied", "value": "99"}\n',
    ),
    (
        "diagnose nl-composition --g 4 --delta 1,2",
        "ring constant:      6\ndegree composition: 150\nmatch: no\n",
        '{"composed": "150", "constant": "6", "match": false}\n',
    ),
]

SUITES = (
    "ring-normal-form\nperfect-pairing\nmumford-relation\nnl-specializations\n"
    "eisenstein-identity\nisogeny-degrees\ngw-consistency\nprojection-calculus\n"
    "basis-change\n"
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,text,as_json", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(command, text, as_json):
    assert invoke(shlex.split(command)) == (0, text, "")
    assert invoke(shlex.split(command) + ["--json"]) == (0, as_json, "")


def test_parser_reuse_carries_no_state_between_calls():
    first = invoke(["verify", "--suite", "gw-consistency"])
    assert first[0] == 0 and first[1].startswith("PASS gw-consistency")
    # a leaked --suite default would make --list or a later run see it
    assert invoke(["verify", "--list"]) == (0, SUITES, "")
    assert invoke(["verify", "--suite", "gw-consistency"]) == first
    assert invoke(["taut-nl", "--g", "2", "--delta", "2"]) == (0, "60 * L(1)\n", "")
    assert invoke(["taut-nl", "--g", "2", "--delta", "2", "--json"])[1].startswith("{")
    assert invoke(["taut-nl", "--g", "2", "--delta", "2"]) == (0, "60 * L(1)\n", "")


# The usage errors of test_cli.py and a few more: each is reported by the
# parser that reads the subcommand's arguments, or by the top-level one.
USAGE_ERRORS = [
    "",
    "bogus",
    "--help-me",
    "taut-nl --g 2 --delta 2 --bogus",
    "taut-nl --delta 2",
    "taut-nl --g x --delta 2",
    "taut-nl --g 2 --delta 2,7",
    "taut-nl --g 2 --delta x",
    "taut-nl --g 4 --delta 1,,2",
    "taut-product --g 6 --u 3",
    "ring-reduce --g 3 --indices ,",
    "deg-phi --g 2 --delta 2 --route enumeration",
    "deg-phi --g 2 --delta 2 --route bogus",
    "gw-predict --g 2 --d 1 --i 2",
    "gw-predict --g 2 --d 1 --integral 0.5",
    "gw-predict --g 2 --d 1 --integral 1/0",
    "diagnose --g 4 --delta 1,2",
    "diagnose bogus --g 4 --delta 1,2",
    "eisenstein --g 2 --order 100001",
    "verify --suite nope",
    "verify --all --suite x",
    "verify --suite x --all",
]


def _variants(argv, rng):
    """Seeded rewrites of a golden query: its words in another order
    (diagnose's positional in every place), and forms that argparse reads
    or refuses in its own way."""
    name, words, groups = argv[0], argv[1:], []
    while words:  # a flag with its value, --json alone, or diagnose's positional
        size = 2 if words[0].startswith("--") and words[0] != "--json" else 1
        groups.append(words[:size])
        words = words[size:]
    pairs = [g for g in groups if len(g) == 2]

    def flat(gs):
        return [name] + [w for g in gs for w in g]

    def rewrite(make, among=pairs):
        pair = rng.choice(among)
        return flat(make(*pair) if g is pair else g for g in groups)

    variants = [
        flat(rng.sample(groups, len(groups))),
        flat(groups + [rng.choice(pairs)]),  # a repeated flag
        flat(groups + [["--js"]]),  # an abbreviation
        rewrite(lambda flag, value: [f"{flag}={value}"]),
        rewrite(lambda flag, value: [flag, "-" + value]),
        rewrite(lambda flag, value: [flag, ""]),
        rewrite(lambda flag, value: [flag, "x"]),
        rewrite(lambda flag, value: []),  # a missing flag
        rewrite(lambda flag, value: [flag, value, "--bogus", value]),
    ]
    long_flags = [p for p in pairs if len(p[0]) > 3]
    if long_flags:
        variants.append(rewrite(lambda flag, value: [flag[:-1], value], long_flags))
    if name == "diagnose":
        variants += [flat(pairs[:i] + [["nl-composition"]] + pairs[i:]) for i in range(len(pairs) + 1)]
    return variants


DISPATCHED = [shlex.split(c) + j for c, _, _ in GOLDEN for j in ([], ["--json"])]
DISPATCHED += [shlex.split(c) for c in USAGE_ERRORS] + [["verify", "--list"]]
_rng = random.Random(36)
DISPATCHED += [v for c, _, _ in GOLDEN for v in _variants(shlex.split(c), _rng)]


def _top_level_parse(argv):
    return cli._parser()[0].parse_args(argv)


@pytest.mark.parametrize("argv", DISPATCHED, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_subcommand_dispatch_matches_the_top_level_parser(argv, monkeypatch):
    direct = invoke(argv)
    if argv and argv[0] in cli._parser()[1]:
        try:
            expected = _top_level_parse(argv)
        except cli.UsageError as exc:
            with pytest.raises(cli.UsageError, match=f"^{re.escape(str(exc))}$"):
                cli._parse(argv)
        else:
            assert cli._parse(argv) == expected
    monkeypatch.setattr(cli, "_parse", _top_level_parse)
    assert invoke(argv) == direct


def test_a_canonical_query_builds_no_parser():
    cli._parser.cache_clear()
    assert run(["sp-order", "--g", "1", "--n", "2"], out=io.StringIO()) == 0
    assert cli._parser.cache_info().currsize == 0
