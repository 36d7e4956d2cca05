"""The documentation suite executes: TUTORIAL.md blocks and the runner.

``docs/API.md`` runs inside the doctest suite
(``tests/test_engine/test_doctest_suite.py``); this module covers the
tutorial (whose blocks mutate process state, so it runs hermetically in
a subprocess) and the extraction logic of ``tools/run_doc_examples.py``.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
TOOLS = os.path.join(REPO_ROOT, "tools")

sys.path.insert(0, TOOLS)
from run_doc_examples import extract_blocks  # noqa: E402


class TestTutorialExecutes:
    def test_tutorial_runs_end_to_end(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("REPRO_SNAPSHOT_DIR", None)
        completed = subprocess.run(
            [
                sys.executable,
                os.path.join(TOOLS, "run_doc_examples.py"),
                os.path.join(REPO_ROOT, "docs", "TUTORIAL.md"),
                "--quiet",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert completed.returncode == 0, (
            f"tutorial failed\nstdout:\n{completed.stdout}\n"
            f"stderr:\n{completed.stderr}"
        )
        assert "block(s) executed OK" in completed.stdout


class TestBlockExtraction:
    def test_extracts_python_blocks_with_line_numbers(self):
        text = "\n".join(
            ["prose", "```python", "x = 1", "```", "", "```bash", "ls", "```",
             "```python", "y = x + 1", "```"]
        )
        blocks = extract_blocks(text)
        assert [(line, src) for line, src in blocks] == [
            (3, "x = 1"), (10, "y = x + 1")]

    def test_no_run_blocks_are_skipped(self):
        text = "\n".join(
            ["```python no-run", "this would explode(", "```",
             "```python", "ok = True", "```"]
        )
        blocks = extract_blocks(text)
        assert len(blocks) == 1 and blocks[0][1] == "ok = True"

    def test_unterminated_fence_is_an_error(self):
        import pytest

        with pytest.raises(SystemExit):
            extract_blocks("```python\nx = 1\n")

    def test_tutorial_has_blocks(self):
        with open(os.path.join(REPO_ROOT, "docs", "TUTORIAL.md")) as handle:
            assert len(extract_blocks(handle.read())) >= 5
