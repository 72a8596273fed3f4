"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N [--trace] [--check]

prints one JSON object describing the pass.  `run.py` starts this script
once per pass, so every pass pays cold caches, as a user of the `agtaut`
command does.  The timed region holds only the workload's own calls into
the package, and the calibration kernel runs that calibrate.py leaves out
of every time; output checks run after it, and only with --check.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402  (the benchmark's own modules)
import tracer as tracing  # noqa: E402

clock = time.perf_counter

# Largest genus whose socle pairing matrices ring-socle builds (all degrees),
# and largest genus whose lambda_1 power it reduces to the socle.
PAIRING_GENUS = 11
SOCLE_GENUS = 14

# query-stream: the CLI subcommands it sends, except `verify`, which
# verify-all covers.  Each gets the same number of fresh queries, each query
# asks for --json with probability 1/2, and deg-phi's three routes share
# its queries equally: the mix is uniform, not a guess at real traffic.
COMMANDS = (
    "taut-nl",
    "taut-nl-tilde",
    "taut-product",
    "eisenstein",
    "ring-reduce",
    "ring-pair",
    "deg-phi",
    "deg-pi",
    "sp-order",
    "gw-predict",
    "diagnose",
)
FRESH_PER_COMMAND = 48  # 11 * 48 fresh queries, each sent twice: 1056
# Eisenstein coefficients checked per distinct query, besides both ends.
EISENSTEIN_SAMPLES = 10
MAX_PROBLEMS = 5


def _span(tracer, name):
    return tracer.root(name) if tracer is not None else nullcontext()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


# -- verify-all ----------------------------------------------------------------


def verify_all(seed: int, tracer, check: bool, cal: calibrate.Calibrator) -> dict:
    """The nine suites in `verify --all` order.  Their ranges are fixed, so
    the seed changes nothing here."""
    from agtaut import verify

    stamps: Dict[str, tuple] = {}
    summaries: List[str] = []
    problems: List[str] = []
    with cal:
        for name, suite in verify.CHECKS.items():
            t0 = clock()
            try:
                with _span(tracer, f"verify.{name}"):
                    summaries.append(f"{name}: {suite()}")
            except verify.VerificationFailure as exc:
                problems.append(f"{name}: {exc.context}")
            except Exception as exc:  # a crash in one suite must not hide the others
                problems.append(f"{name}: {exc!r}")
            stamps[name] = (t0, clock())
    result = _measured(cal)
    return {
        **result,
        "attempted": len(verify.CHECKS),
        "problems": problems,
        "digest": _digest(summaries),
        "parts": {f"{name}_s": cal.scale(*span) for name, span in stamps.items()},
    }


# -- ring-socle ----------------------------------------------------------------


def shifted_staircase_tableaux(m: int) -> int:
    """Shifted standard tableaux of the staircase (m, m-1, ..., 1), by
    Thrall's formula  n! / prod(l_i!) * prod_{i<j} (l_i - l_j) / (l_i + l_j)."""
    parts = list(range(m, 0, -1))
    value = Fraction(factorial(sum(parts)))
    for i, a in enumerate(parts):
        value /= factorial(a)
        for b in parts[i + 1 :]:
            value *= Fraction(a - b, a + b)
    assert value.denominator == 1
    return int(value)


def ring_socle(seed: int, tracer, check: bool, cal: calibrate.Calibrator) -> dict:
    """Cold genus ramp: every socle pairing matrix up to PAIRING_GENUS with a
    rank check, then lambda_1^(g(g-1)/2) reduced to the socle up to
    SOCLE_GENUS.  Its inputs are fixed, so the seed changes nothing here."""
    from agtaut import ring

    order = [(g, k) for g in range(2, PAIRING_GENUS + 1) for k in range(ring.top_degree(g) + 1)]
    genera = range(2, SOCLE_GENUS + 1)

    matrices, socles, problems = {}, {}, []
    stamps: List[tuple] = []  # (t0, t1, t2): build from t0 to t1, rank check to t2
    with cal:
        with _span(tracer, "ring-socle.pairing"):
            for g, k in order:
                t0 = clock()
                try:
                    matrix = ring.pairing_matrix(g, k)
                    t1 = clock()
                    matrices[g, k] = (matrix, matrix.is_nonsingular())
                except Exception as exc:
                    t1 = clock()
                    problems.append(f"pairing g={g} k={k}: {exc!r}")
                stamps.append((t0, t1, clock()))
        with _span(tracer, "ring-socle.socle"):
            t3 = clock()
            for g in genera:
                try:
                    power = ring.LambdaPolynomial.monomial(g, [1] * ring.top_degree(g))
                    socles[g] = ring.reduce(power)
                except Exception as exc:
                    problems.append(f"socle g={g}: {exc!r}")
            t4 = clock()
    result = _measured(cal)
    build = sum(cal.scale(t0, t1) for t0, t1, _ in stamps)
    rank = sum(cal.scale(t1, t2) for _, t1, t2 in stamps)

    if check:
        for (g, k), (matrix, nonsingular) in matrices.items():
            side = ring.graded_dimension(g, k)
            square = len(matrix.rows) == len(matrix.cols) == side and len(matrix.entries) == side
            square = square and all(len(row) == side for row in matrix.entries)
            if not (nonsingular and square):
                problems.append(f"pairing g={g} k={k}: nonsingular={nonsingular}, square={square}")
        for g, socle in socles.items():
            expected = 2 ** ((g - 1) * (g - 2) // 2) * shifted_staircase_tableaux(g - 1)
            if socle.terms != {tuple(range(1, g)): Fraction(expected)}:
                problems.append(f"socle g={g}: {socle} != {expected} * socle monomial")

    outputs = [f"{g},{k}:{m.entries}:{ok}" for (g, k), (m, ok) in sorted(matrices.items())]
    outputs += [f"{g}:{socles[g]}" for g in sorted(socles)]
    return {
        **result,
        "attempted": len(order) + len(genera),
        "problems": problems,
        "digest": _digest(outputs),
        "parts": {"pairing_build_s": build, "rank_check_s": rank, "socle_reduce_s": cal.scale(t3, t4)},
    }


# -- query-stream --------------------------------------------------------------


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """n integers covering [lo, hi] evenly, one draw per stratum in stratum
    order, with both ends always present.  Stratifying, and pairing the
    strata of two parameters in order, keeps the stream's total cost and its
    largest single query nearly the same for every seed."""
    width = hi - lo + 1
    values = [lo + int(width * (i + rng.random()) / n) for i in range(n)]
    values[0], values[-1] = lo, hi
    return values


def _chain(rng: random.Random, length: int, step: int, cap: int = 10**9) -> str:
    """A divisibility chain d_1 | ... | d_length with product at most cap."""
    while True:
        entries = [rng.randint(1, step)]
        for _ in range(length - 1):
            entries.append(entries[-1] * rng.randint(1, step))
        if prod(entries) <= cap:
            return ",".join(map(str, entries))


def _top(g: int) -> int:
    return g * (g - 1) // 2


def _fresh_queries(rng: random.Random) -> List[List[str]]:
    queries: List[List[str]] = []
    n = FRESH_PER_COMMAND

    for g in _spread(rng, n, 2, 40):
        if g >= 4 and rng.random() < 0.5:
            d1 = rng.randint(1, 30)
            delta = f"{d1},{d1 * rng.randint(1, 12)}"
        else:
            delta = str(rng.randint(1, 60))
        queries.append(["taut-nl", "--g", str(g), "--delta", delta])
    for g, d in zip(_spread(rng, n, 2, 30), _spread(rng, n, 1, 10**6)):
        queries.append(["taut-nl-tilde", "--g", str(g), "--d", str(d)])
    for g in _spread(rng, n, 2, 200):
        u = 1 if g < 4 else rng.randint(1, 2)
        queries.append(["taut-product", "--g", str(g), "--u", str(u)])
    for g, order in zip(_spread(rng, n, 2, 16), _spread(rng, n, 0, 1500)):
        queries.append(["eisenstein", "--g", str(g), "--order", str(order)])
    # At most four factors: longer random monomials make the rewriting cache,
    # and so peak memory, depend strongly on the seed.  ring-socle covers
    # long rewrites.
    for g in _spread(rng, n, 2, 12):
        while True:
            indices = [rng.randint(1, g) for _ in range(rng.randint(1, 4))]
            if sum(indices) <= _top(g):
                break
        queries.append(["ring-reduce", "--g", str(g), "--indices", ",".join(map(str, sorted(indices)))])
    for g in _spread(rng, n, 2, 9):
        queries.append(["ring-pair", "--g", str(g), "--k", str(rng.randint(0, _top(g)))])
    # The enumeration route takes only g = 1 and one entry; its cost grows
    # as d^6, so d is spread too.
    for d in _spread(rng, n // 3, 2, 8):
        queries.append(["deg-phi", "--g", "1", "--delta", str(d), "--route", "enumeration"])
    for i, g in enumerate(_spread(rng, n - n // 3, 1, 6)):
        delta = _chain(rng, rng.randint(1, g), 6)
        route = "closed_form" if i % 2 else "stratified"
        queries.append(["deg-phi", "--g", str(g), "--delta", delta, "--route", route])
    for g in _spread(rng, n, 1, 6):
        queries.append(["deg-pi", "--g", str(g), "--delta", _chain(rng, rng.randint(1, g), 6)])
    # Up to genus 12 the group order stays within int-to-str's 4300 digits.
    for g, order in zip(_spread(rng, n, 1, 12), _spread(rng, n, 1, 10**6)):
        queries.append(["sp-order", "--g", str(g), "--n", str(order)])
    for g, d in zip(_spread(rng, n, 2, 30), _spread(rng, n, 1, 10**4)):
        query = ["gw-predict", "--g", str(g), "--d", str(d)]
        if rng.random() < 0.5:
            integral = f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}"
            query += ["--i", str(rng.randint(0, 5)), f"--integral={integral}"]
        queries.append(query)
    for g in _spread(rng, n, 2, 12):
        delta = _chain(rng, rng.randint(1, min(3, g // 2)), 6)
        queries.append(["diagnose", "nl-composition", "--g", str(g), "--delta", delta])

    assert sorted({q[0] for q in queries}) == sorted(COMMANDS) and len(queries) == n * len(COMMANDS)
    for query in queries:
        if rng.random() < 0.5:
            query.append("--json")
    return queries


def query_argv(seed: int) -> List[List[str]]:
    """The seeded stream: every fresh query twice, in random order, so half
    the queries repeat an earlier one."""
    rng = random.Random(seed)
    stream = _fresh_queries(rng) * 2
    rng.shuffle(stream)
    return stream


def _parse_series(text: str) -> List[Fraction]:
    """Coefficients of a printed QSeries: '1 + c q + c q^2 - c q^5 ...'."""
    tokens = text.split()
    coeffs = [Fraction(tokens[0])]
    for sign, value, power in zip(tokens[1::3], tokens[2::3], tokens[3::3]):
        d = 1 if power == "q" else int(power[2:])
        coeffs += [Fraction(0)] * (d - len(coeffs))
        coeffs.append(Fraction(value) if sign == "+" else -Fraction(value))
    return coeffs


def _as_text(result, as_json: bool) -> str:
    """What the CLI prints for a library result."""
    if as_json:
        return json.dumps(result.to_json_dict(), sort_keys=True) + "\n"
    return f"{result}\n"


def _flag(argv: List[str], name: str) -> str:
    return argv[argv.index(name) + 1]


SECOND_ROUTES = ("deg-phi", "taut-nl", "eisenstein")


def _second_route(argv: List[str], out: str, rng: random.Random) -> Optional[str]:
    """Cross-check one answer against the package's other route; returns a
    description of the mismatch, or None."""
    from agtaut import degrees, nl

    command, as_json = argv[0], "--json" in argv
    if command == "deg-phi":
        g, delta, route = int(_flag(argv, "--g")), _flag(argv, "--delta"), _flag(argv, "--route")
        printed = json.loads(out)["degree"] if as_json else out.strip()
        if route == "enumeration":
            routes = [degrees.deg_phi(1, (int(delta),))]
        else:
            entries = tuple(int(x) for x in delta.split(","))
            routes = [degrees.deg_phi(g, entries), degrees.deg_phi_crt(g, entries)]
        if any(str(r) != printed for r in routes):
            return f"routes give {[str(r) for r in routes]}"
    elif command == "taut-nl":
        g, entries = int(_flag(argv, "--g")), [int(x) for x in _flag(argv, "--delta").split(",")]
        if len(entries) == 1:
            special = nl.taut_nl_d_special(g, entries[0])
        else:
            special = nl.taut_nl_pair_special(g, *entries)
        if out != _as_text(special, as_json):
            return f"displayed specialization gives {special}"
    elif command == "eisenstein":
        g, order = int(_flag(argv, "--g")), int(_flag(argv, "--order"))
        if as_json:
            coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
        else:
            coeffs = _parse_series(out)
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        if len(coeffs) != order + 1 or coeffs[0] != 1:
            return f"series has {len(coeffs)} coefficients, constant {coeffs[0]}"
        ends = [1, order] if order else []
        for d in sorted(set(ends + rng.sample(range(1, order + 1), min(order, EISENSTEIN_SAMPLES)))):
            tilde = nl.taut_nl_tilde(g, d).coefficient((g - 1,))
            if coeffs[d] * Fraction((-1) ** g, 24) != tilde:
                return f"q^{d} coefficient {coeffs[d]} vs tilde projection {tilde}"
    return None


def _send(cli, argv: List[str]) -> tuple:
    """One query through cli.run: (exit code or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv, out=out, err=err)
    except Exception as exc:
        code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def query_stream(seed: int, tracer, check: bool, cal: calibrate.Calibrator) -> dict:
    """A seeded stream of CLI queries through cli.run in this process.

    The timed region keeps only a hash of each answer, in every pass, so
    that peak_rss_mb measures the package rather than stored answers.  The
    checking pass sends the queries that have a second route once more,
    after the timed region, and checks that text."""
    from agtaut import cli

    stream = query_argv(seed)
    records, stamps = [], []
    with cal, _span(tracer, "query-stream"):
        for argv in stream:
            t0 = clock()
            code, text, err = _send(cli, argv)
            stamps.append((t0, clock()))
            records.append((code, hashlib.sha256(text.encode()).hexdigest(), err))
    result = _measured(cal)
    latencies = [cal.scale(t0, t1) for t0, t1 in stamps]

    problems = []
    first: Dict[str, str] = {}
    rng = random.Random(seed)
    for argv, (code, sha, err) in zip(stream, records):
        key = " ".join(argv)
        if code != 0:
            problems.append(f"{key}: exit {code}: {err.strip()}")
        elif key in first:
            if sha != first[key]:
                problems.append(f"{key}: repeated query printed a different answer")
        else:
            first[key] = sha
            if check and argv[0] in SECOND_ROUTES:
                _, text, _ = _send(cli, argv)
                if hashlib.sha256(text.encode()).hexdigest() != sha:
                    problems.append(f"{key}: sent again, it printed a different answer")
                mismatch = _second_route(argv, text, rng)
                if mismatch:
                    problems.append(f"{key}: {mismatch}")
    parts = {f"{command}_s": 0.0 for command in COMMANDS}
    for argv, seconds in zip(stream, latencies):
        parts[f"{argv[0]}_s"] += seconds
    return {
        **result,
        "attempted": len(stream),
        "problems": problems,
        "digest": _digest(f"{' '.join(a)}\n{r[0]}\n{r[1]}" for a, r in zip(stream, records)),
        "parts": parts,
        "latencies_ms": [1000 * t for t in latencies],
    }


WORKLOADS = {
    "verify-all": verify_all,
    "ring-socle": ring_socle,
    "query-stream": query_stream,
}


def _measured(cal: calibrate.Calibrator) -> dict:
    """What is read right after a timed region: its time in reference
    seconds and in plain wall seconds, the peak resident set so far
    (ru_maxrss is in KiB on Linux) and the caches."""
    return {
        "wall_s": cal.wall_s,
        "raw_wall_s": cal.end - cal.start,
        "kernel_median_s": cal.kernel_median_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": tracing.cache_stats(),
    }


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and args.check:
        parser.error("--check runs library code that --trace would count")

    import agtaut.cli  # noqa: F401  (imports every layer; import time is setup_s)

    tracer = tracing.Tracer() if args.trace else None
    with tracer if tracer is not None else nullcontext():
        result = WORKLOADS[args.workload](args.seed, tracer, args.check, calibrate.Calibrator())
    if tracer is not None:
        result["layers"] = tracer.stats
        result["roots"] = tracer.roots
    result["failed"] = len(result["problems"])
    del result["problems"][MAX_PROBLEMS:]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
