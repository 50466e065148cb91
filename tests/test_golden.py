"""Golden reports: each case's JSON must stay byte-identical.

The files under tests/golden/ are reports written by `sl2tate ... --out`.
A refactor of the arithmetic is correct when every report still matches
byte for byte; regenerate a file only for an intended change of output.
"""
import os
import subprocess
import sys

import pytest

from sl2tate.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(HERE, "..", "src")
FIXTURES = os.path.join(SRC, "sl2tate", "fixtures")
Q23 = ",".join(["1"] * 23)

CASES = {
    "sl2z_ell3": ["analyze", "--field", "0,1", "--ell", "3"],
    "qi_s23_ell3": ["analyze", "--field=1,0,1", "--ell", "3", "--places", "2,3"],
    "qsqrt-2_s2_ell3": ["analyze", "--field=2,0,1", "--ell", "3",
                        "--places", "2"],
    # the class group of the quartic K(zeta_3) dominates these two
    "qsqrt-5_ell3": ["analyze", "--field=5,0,1", "--ell", "3"],
    "qsqrt-14_ell3": ["analyze", "--field=14,0,1", "--ell", "3"],
    "q23_ell23": ["analyze", "--field", Q23, "--places", "23", "--ell", "23",
                  "--fixtures", os.path.join(FIXTURES, "q23.json")],
    "q23_hilbert_restrict": [
        "restrict", "--scenario", os.path.join(FIXTURES, "q23_hilbert.json"),
        "--fixtures", os.path.join(FIXTURES, "q23.json")],
    "identity_restrict": ["restrict", "--field", "0,1", "--ell", "3",
                          "--target-field", "0,1", "--embedding", "0"],
    "oracle_forms100": ["oracle-check", "--forms-bound", "100"],
}


def _golden(name):
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == _golden(name)


def test_golden_report_under_optimize(tmp_path):
    # verification must not hinge on `assert`, which -O strips
    env = dict(os.environ, PYTHONPATH=SRC)
    # qsqrt-5_ell3 runs the quartic unit group and classify._checked
    for name in ("sl2z_ell3", "qsqrt-2_s2_ell3", "qsqrt-5_ell3"):
        out = tmp_path / (name + ".json")
        subprocess.run([sys.executable, "-O", "-m", "sl2tate.cli",
                        *CASES[name], "--out", str(out)],
                       check=True, env=env)
        assert out.read_bytes() == _golden(name)
