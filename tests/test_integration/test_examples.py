"""Every shipped example must run cleanly and print its headline facts."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"


def _env() -> dict:
    """The inherited environment with ``src`` on PYTHONPATH.

    Subprocesses do not see pytest.ini's ``pythonpath`` setting, so the
    examples need it spelled out regardless of how pytest was invoked.
    """
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def run_example(name: str) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_env(),
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "G1 is a solution under Omega:  True" in out
        assert "cert_Omega(Q, I) = [('c1', 'c1'), ('c1', 'c3'), "
        assert "('c3', 'c3')]" in out

    def test_rdf_sameas_exchange(self):
        out = run_example("rdf_sameas_exchange.py")
        assert "widgetA -sameAs-> widgetB" in out
        assert "sameas-construction" in out

    def test_sat_reduction_demo(self):
        out = run_example("sat_reduction_demo.py")
        assert "agreement with CDCL: 10/10" in out
        assert "Figure 4 graph is a solution: True" in out

    def test_universal_representatives(self):
        out = run_example("universal_representatives.py")
        assert "pattern still maps in: True" in out
        assert "still a solution:      False" in out
        assert "loop-collapse" in out

    def test_social_network_tgds(self):
        out = run_example("social_network_tgds.py")
        assert "closure rules weakly acyclic: True" in out
        assert "verified solution: True" in out

    def test_regenerate_figures(self, tmp_path):
        process = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "regenerate_figures.py"),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=_env(),
        )
        assert process.returncode == 0, process.stderr
        written = sorted(p.name for p in tmp_path.glob("*.dot"))
        assert len(written) == 10
        assert "figure5_egd_chase.dot" in written
        figure5 = (tmp_path / "figure5_egd_chase.dot").read_text()
        assert figure5.count("->") == 7  # the Figure 5 pattern's edges
