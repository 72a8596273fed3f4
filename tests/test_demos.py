"""Exact stdout of every demo, pinned by its sha256 digest.

A demo prints exact values from several layers at once, so a change in any
rendered number or line fails here.  Each demo runs in its own interpreter
against the same package as this process.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import agtaut

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_tautological_ring.py": "9042ce09c581aa531e5673eb472e6982cea62aebf226e7e22f7d7027fa1ae7b7",
    "02_noether_lefschetz_eisenstein.py": "f65532db0ae5c4434a92594c15be83705b175c62ca65f26a78c8035b471c3bb8",
    "03_isogeny_degrees.py": "1abef8b841bf8bec7c885e18123ae7a22426c2afce41de0c1aea48d8e863ff17",
    "04_gw_predictor.py": "e4e2687f14d4d26e86386d690bd3f0e5592e9ed27fc29302d7eddd37c19da8da",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout(name):
    package_root = os.path.dirname(os.path.dirname(agtaut.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[name]
