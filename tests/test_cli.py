import io
import json
import os
import subprocess
import sys

import agtaut
from agtaut.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_taut_nl_plain():
    code, out, _ = invoke(["taut-nl", "--g", "2", "--delta", "2"])
    assert code == 0 and out == "60 * L(1)\n"


def test_taut_nl_json():
    code, out, _ = invoke(["taut-nl", "--g", "2", "--delta", "2", "--json"])
    assert code == 0
    assert json.loads(out) == {"g": 2, "terms": [{"coeff": "60", "indices": [1]}]}


def test_taut_nl_tilde():
    code, out, _ = invoke(["taut-nl-tilde", "--g", "2", "--d", "2"])
    assert code == 0 and out == "90 * L(1)\n"
    code, out, _ = invoke(["taut-nl-tilde", "--g", "3", "--d", "0"])
    assert code == 0 and out == "-1/24 * L(2)\n"


def test_taut_product():
    code, out, _ = invoke(["taut-product", "--g", "6", "--u", "1"])
    assert code == 0 and out == "2730/691 * L(5)\n"


def test_eisenstein():
    code, out, _ = invoke(["eisenstein", "--g", "2", "--order", "2"])
    assert code == 0 and out == "1 + 240 q + 2160 q^2\n"
    code, out, _ = invoke(["eisenstein", "--g", "3", "--order", "1", "--json"])
    assert json.loads(out) == {"order": 1, "coeffs": ["1", "-504"]}


def test_ring_reduce():
    code, out, _ = invoke(["ring-reduce", "--g", "3", "--indices", "1,1"])
    assert code == 0 and out == "2 * L(2)\n"
    code, out, _ = invoke(["ring-reduce", "--g", "2", "--indices", "1,1"])
    assert code == 0 and out == "0\n"


def test_ring_reduce_deep_rewrite():
    # lambda_1^105 at g = 15 used to raise RecursionError.
    code, out, _ = invoke(["ring-reduce", "--g", "15", "--indices", ",".join(["1"] * 105)])
    assert code == 0
    assert out == (
        "513782568580731957367019767803085320396632776099975918380865685412418054992691200"
        " * L(1,2,3,4,5,6,7,8,9,10,11,12,13,14)\n"
    )


def test_ring_pair():
    code, out, _ = invoke(["ring-pair", "--g", "4", "--k", "3"])
    assert code == 0
    assert out.splitlines() == [
        "rows: [1,2] [3]",
        "cols: [1,2] [3]",
        "[4 1]",
        "[1 0]",
        "nonsingular: yes",
    ]
    code, out, _ = invoke(["ring-pair", "--g", "4", "--k", "3", "--json"])
    data = json.loads(out)
    assert data["nonsingular"] is True and data["entries"] == [["4", "1"], ["1", "0"]]


def test_deg_phi_routes():
    code, out, _ = invoke(["deg-phi", "--g", "2", "--delta", "2,2"])
    assert code == 0 and out == "720\n"
    code, out, _ = invoke(["deg-phi", "--g", "2", "--delta", "2,2", "--route", "stratified"])
    assert code == 0 and out == "720\n"
    code, out, _ = invoke(["deg-phi", "--g", "1", "--delta", "2", "--route", "enumeration"])
    assert code == 0 and out == "6\n"
    code, out, _ = invoke(
        ["deg-phi", "--g", "1", "--delta", "3", "--route", "enumeration", "--json"]
    )
    assert json.loads(out) == {"degree": "24", "route": "enumeration"}


def test_deg_phi_enumeration_out_of_scope():
    code, _, err = invoke(["deg-phi", "--g", "2", "--delta", "2", "--route", "enumeration"])
    assert code == 1 and "enumeration route" in err


def test_deg_pi():
    code, out, _ = invoke(["deg-pi", "--g", "1", "--delta", "3"])
    assert code == 0 and out == "24\n"


def test_sp_order():
    code, out, _ = invoke(["sp-order", "--g", "2", "--n", "2"])
    assert code == 0 and out == "720\n"
    code, out, _ = invoke(["sp-order", "--g", "1", "--n", "6", "--json"])
    assert json.loads(out) == {"g": 1, "n": 6, "order": "144"}


def test_gw_predict():
    code, out, _ = invoke(["gw-predict", "--g", "2", "--d", "1"])
    assert code == 0 and out == "1/288\n"
    code, out, _ = invoke(
        ["gw-predict", "--g", "2", "--d", "1", "--i", "1", "--integral", "1/2880", "--json"]
    )
    data = json.loads(out)
    assert data["value"] == "1/288" and data["insertion"] == "supplied"
    code, _, err = invoke(["gw-predict", "--g", "2", "--d", "1", "--i", "2"])
    assert code == 1 and "only the printed i=1 case" in err


def test_gw_predict_integral_takes_only_p_over_q():
    for text in ("0.5", "1e3", " 1/2 ", "1/0", "x"):
        code, out, err = invoke(["gw-predict", "--g", "2", "--d", "1", "--integral", text])
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --integral") and repr(text) in err


def test_diagnose_nl_composition():
    code, out, _ = invoke(["diagnose", "nl-composition", "--g", "4", "--delta", "1,2"])
    assert code == 0
    assert out.splitlines() == [
        "ring constant:      6",
        "degree composition: 150",
        "match: no",
    ]
    code, out, _ = invoke(["diagnose", "nl-composition", "--g", "3", "--delta", "2", "--json"])
    assert json.loads(out) == {"constant": "30", "composed": "30", "match": True}


def test_verify_single_suite():
    code, out, _ = invoke(["verify", "--suite", "gw-consistency"])
    assert code == 0 and out.startswith("PASS gw-consistency")


def test_verify_list():
    code, out, _ = invoke(["verify", "--list"])
    assert code == 0 and "ring-normal-form" in out.split()


def test_verify_unknown_suite():
    code, _, err = invoke(["verify", "--suite", "nope"])
    assert code == 1 and "unknown suites" in err


def test_verify_all_and_suite_are_exclusive():
    # a suite name next to --all would be ignored, so the pair is a usage error
    for argv in (["verify", "--all", "--suite", "nope"], ["verify", "--suite", "nope", "--all"]):
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        assert "not allowed with argument" in err


def test_verify_failure_prints_both_sides_and_exits_2(monkeypatch):
    from agtaut import verify as verify_module

    def broken():
        raise verify_module.VerificationFailure("1 equals 2", "1", "2")

    monkeypatch.setitem(verify_module.CHECKS, "demo-suite", broken)
    code, out, _ = invoke(["verify", "--suite", "demo-suite"])
    assert code == 2
    assert "FAIL demo-suite: 1 equals 2" in out
    assert "lhs = 1" in out and "rhs = 2" in out


def test_verify_reports_a_failed_library_self_check_and_exits_2(monkeypatch):
    from agtaut import degrees, verify as verify_module

    def disagreeing_count(g, h, p):
        raise AssertionError(f"isotropic count expressions disagree at (g={g}, h={h}, p={p})")

    monkeypatch.setattr(degrees, "isotropic_tuple_count", disagreeing_count)
    code, out, _ = invoke(["verify", "--suite", "isogeny-degrees"])
    assert code == 2
    assert out == "FAIL isogeny-degrees: AssertionError: isotropic count expressions disagree at (g=1, h=1, p=2)\n"

    def broken_oracle():
        raise RuntimeError("localized pairing is not certified")

    # the first failure stops the run: the suite after it never starts
    monkeypatch.setitem(verify_module.CHECKS, "demo-suite", broken_oracle)
    code, out, _ = invoke(["verify", "--suite", "demo-suite", "--suite", "gw-consistency"])
    assert code == 2
    assert out == "FAIL demo-suite: RuntimeError: localized pairing is not certified\n"


def test_usage_errors():
    code, _, err = invoke(["bogus"])
    assert code == 1 and "invalid choice" in err
    code, _, err = invoke([])
    assert code == 1
    code, _, err = invoke(["taut-nl", "--g", "2", "--delta", "2,7"])
    assert code == 1 and "divide" in err
    code, _, err = invoke(["taut-nl", "--g", "2", "--delta", "x"])
    assert code == 1
    code, _, err = invoke(["taut-product", "--g", "6", "--u", "3"])
    assert code == 1 and "out of scope" in err
    # a refused chain is printed as the type prints it, not as a Python tuple
    assert invoke(["taut-nl", "--g", "4", "--delta", "2,3"]) == (
        1,
        "",
        "usage error: invalid polarization type (2,3): each entry must divide the next"
        " (2 does not divide 3)\n",
    )
    assert invoke(["deg-phi", "--g", "3", "--delta", "0,2"]) == (
        1,
        "",
        "usage error: entries must be positive, got (0,2)\n",
    )
    assert invoke(["deg-phi", "--g", "3", "--delta", "0"]) == (
        1,
        "",
        "usage error: entries must be positive, got (0)\n",
    )


def test_empty_list_items_are_usage_errors():
    for argv in (
        ["taut-nl", "--g", "4", "--delta", "1,,2"],
        ["taut-nl", "--g", "4", "--delta", "2,"],
        ["taut-nl", "--g", "4", "--delta", ""],
        ["ring-reduce", "--g", "3", "--indices", "1,,1"],
        ["ring-reduce", "--g", "3", "--indices", ","],
        ["deg-pi", "--g", "2", "--delta", ",2"],
    ):
        code, out, err = invoke(argv)
        assert code == 1 and out == "" and err.startswith("usage error"), argv
    # an empty index list is the empty monomial
    assert invoke(["ring-reduce", "--g", "3", "--indices", ""]) == (0, "1\n", "")


def test_output_is_deterministic():
    for argv in (
        ["taut-nl", "--g", "4", "--delta", "1,2", "--json"],
        ["eisenstein", "--g", "4", "--order", "8"],
        ["ring-pair", "--g", "5", "--k", "4", "--json"],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_module_entry_point():
    # the child interpreter must import the same package as this process,
    # which pytest may have found through its own pythonpath setting
    package_root = os.path.dirname(os.path.dirname(agtaut.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "agtaut", "taut-nl", "--g", "2", "--delta", "2"],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout == b"60 * L(1)\n"
