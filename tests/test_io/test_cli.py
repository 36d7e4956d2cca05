"""End-to-end tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import load_document, main


@pytest.fixture
def document_path(tmp_path):
    path = tmp_path / "flights.json"
    assert main(["demo", "-o", str(path)]) == 0
    return str(path)


class TestDemo:
    def test_demo_to_stdout(self, capsys):
        assert main(["demo"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "setting" in data and "instance" in data

    def test_demo_document_loads(self, document_path):
        setting, instance = load_document(document_path)
        assert setting.name == "Omega"
        assert instance.size() == 5


class TestChase:
    def test_pretty_output(self, document_path, capsys):
        assert main(["chase", document_path]) == 0
        out = capsys.readouterr().out
        assert "3 trigger(s), 1 merge(s)" in out
        assert "f . f*" in out

    def test_json_output(self, document_path, capsys):
        assert main(["chase", document_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["edges"]) == 7

    def test_failing_chase_exit_code(self, tmp_path, capsys):
        from repro.core.setting import DataExchangeSetting
        from repro.io.dependencies import setting_to_dict
        from repro.io.json_io import instance_to_dict
        from repro.mappings.parser import parse_egd, parse_st_tgd
        from repro.relational.instance import RelationalInstance
        from repro.relational.schema import RelationalSchema

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2")],
        )
        path = tmp_path / "failing.json"
        path.write_text(
            json.dumps(
                {"setting": setting_to_dict(setting), "instance": instance_to_dict(instance)}
            )
        )
        assert main(["chase", str(path)]) == 1
        assert "no solution exists" in capsys.readouterr().out


class TestExists:
    def test_exists_exit_zero(self, document_path, capsys):
        assert main(["exists", document_path]) == 0
        assert "status: exists" in capsys.readouterr().out

    def test_witness_printed(self, document_path, capsys):
        assert main(["exists", document_path, "--witness"]) == 0
        out = capsys.readouterr().out
        assert '"edges"' in out


class TestCertain:
    def test_paper_certain_answers(self, document_path, capsys):
        code = main(["certain", document_path, "f . f*[h] . f- . (f-)*",
                     "--star-bound", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c1  c3" in out
        assert "c3  c1" in out

    def test_empty_answer_set(self, document_path, capsys):
        assert main(["certain", document_path, "h . h"]) == 0
        assert "(no certain answers)" in capsys.readouterr().out

    def test_pair_mode_certain(self, document_path, capsys):
        code = main(["certain", document_path, "f . f*[h] . f- . (f-)*",
                     "--pair", "c1", "c3"])
        assert code == 0
        assert "is a certain answer" in capsys.readouterr().out

    def test_pair_mode_counterexample(self, document_path, capsys):
        code = main(["certain", document_path, "f . f*[h] . f- . (f-)*",
                     "--pair", "c1", "c2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "NOT certain" in out
        assert '"edges"' in out


class TestExistsExitCodes:
    def test_not_exists_exit_one(self, tmp_path, capsys):
        """Example 5.2: chase succeeds but no solution exists."""
        from repro.io.json_io import document_to_dict
        from repro.scenarios.figures import example52_instance, example52_setting

        path = tmp_path / "ex52.json"
        path.write_text(
            json.dumps(document_to_dict(example52_setting(), example52_instance()))
        )
        assert main(["exists", str(path)]) == 1
        assert "status: not-exists" in capsys.readouterr().out


class TestSubmit:
    """`repro submit` against an embedded server (the client-side path)."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.service.server import start_in_thread

        handle = start_in_thread(workers=0)
        yield handle
        handle.close()

    def submit(self, server, *argv):
        return main(["submit", "--port", str(server.port), *argv])

    def test_ping(self, server, capsys):
        assert self.submit(server, "ping") == 0
        assert json.loads(capsys.readouterr().out)["pong"] is True

    def test_exists_mirrors_direct_exit_code(self, server, document_path, capsys):
        assert self.submit(server, "exists", document_path) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "exists"

    def test_certain_whole_set(self, server, document_path, capsys):
        code = self.submit(
            server, "certain", document_path, "f . f*[h] . f- . (f-)*"
        )
        assert code == 0
        answers = json.loads(capsys.readouterr().out)["answers"]
        assert ["c1", "c3"] in answers and ["c3", "c1"] in answers

    def test_certain_pair_exit_codes(self, server, document_path, capsys):
        assert self.submit(
            server, "certain", document_path, "f . f*[h] . f- . (f-)*",
            "--pair", "c1", "c3",
        ) == 0
        assert self.submit(
            server, "certain", document_path, "f . f*[h] . f- . (f-)*",
            "--pair", "c1", "c2",
        ) == 1
        capsys.readouterr()

    def test_batch(self, server, document_path, capsys):
        assert self.submit(server, "batch", document_path, "h . h", "f . f-") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["queries"] == ["h . h", "f . f-"]
        assert result["results"][0]["answers"] == []

    def test_chase(self, server, document_path, capsys):
        assert self.submit(server, "chase", document_path) == 0
        assert len(json.loads(capsys.readouterr().out)["pattern"]["edges"]) == 7

    def test_cached_marker_on_stderr(self, server, document_path, capsys):
        self.submit(server, "exists", document_path)
        capsys.readouterr()
        self.submit(server, "exists", document_path)
        assert "result cache" in capsys.readouterr().err

    def test_stats(self, server, capsys):
        assert self.submit(server, "stats") == 0
        assert json.loads(capsys.readouterr().out)["pool"]["mode"] == "inline"

    def test_error_envelope_exit_three(self, server, document_path, capsys):
        code = self.submit(server, "certain", document_path, "f . (")
        assert code == 3
        assert "error[bad-request]" in capsys.readouterr().err

    def test_unreachable_server_exit_three(self, document_path, capsys):
        code = main(
            ["submit", "--port", "1", "--timeout", "2", "exists", document_path]
        )
        assert code == 3
        assert "service error" in capsys.readouterr().err


class TestServeProcess:
    """The real `repro serve` process: announce line, requests, shutdown."""

    def test_serve_submit_shutdown_round_trip(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        document = tmp_path / "doc.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "demo", "-o", str(document)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            announce = server.stdout.readline()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", announce)
            assert match, f"bad announce line: {announce!r}"
            port = match.group(1)

            def submit(*argv):
                return subprocess.run(
                    [sys.executable, "-m", "repro.cli", "submit",
                     "--port", port, *argv],
                    env=env, capture_output=True, text=True, timeout=300,
                )

            ping = submit("ping")
            assert ping.returncode == 0 and '"pong": true' in ping.stdout
            exists = submit("exists", str(document))
            assert exists.returncode == 0 and '"status": "exists"' in exists.stdout
            down = submit("shutdown")
            assert down.returncode == 0
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)


class TestRender:
    def test_graph_render(self, tmp_path, capsys):
        from repro.io.json_io import graph_to_dict
        from repro.scenarios.flights import graph_g1

        path = tmp_path / "g1.json"
        path.write_text(json.dumps(graph_to_dict(graph_g1())))
        assert main(["render", str(path), "--name", "G1"]) == 0
        out = capsys.readouterr().out
        assert 'digraph "G1"' in out
        assert "->" in out

    def test_pattern_render(self, tmp_path, capsys):
        from repro.io.json_io import pattern_to_dict
        from repro.scenarios.flights import figure5_expected_pattern

        path = tmp_path / "fig5.json"
        path.write_text(json.dumps(pattern_to_dict(figure5_expected_pattern())))
        assert main(["render", str(path), "--name", "fig5"]) == 0
        assert 'digraph "fig5"' in capsys.readouterr().out


class TestRetiredFlags:
    """There is one NRE search: the CLI offers no storage or cache switch."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["exists", "doc.json", "--backend", "csr"],
            ["certain", "doc.json", "f", "--backend", "csr"],
            ["submit", "--port", "1", "certain", "doc.json", "f", "--backend", "csr"],
            ["submit", "--port", "1", "exists", "doc.json", "--backend", "dict"],
            ["certain", "doc.json", "f", "--no-automaton-cache"],
        ],
    )
    def test_retired_flag_is_refused(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stats_name_the_compiled_engine(self, document_path, capsys):
        query = "f . f-"
        assert main(["certain", document_path, query, "--stats"]) == 0
        assert "engine: compiled" in capsys.readouterr().out


class TestSnapshotCommand:
    @pytest.fixture
    def graph_path(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(
            json.dumps(
                {
                    "alphabet": ["f", "h"],
                    "nodes": ["c1", "c2", {"null": "N1"}],
                    "edges": [
                        ["c1", "f", {"null": "N1"}],
                        [{"null": "N1"}, "h", "c2"],
                    ],
                }
            )
        )
        return str(path)

    def test_save_load_round_trip(self, graph_path, tmp_path, capsys):
        snap = str(tmp_path / "graph.snap")
        assert main(["snapshot", "save", graph_path, snap]) == 0
        assert "snapshot format 2" in capsys.readouterr().out
        assert main(["snapshot", "load", snap]) == 0
        loaded = json.loads(capsys.readouterr().out)
        original = json.loads(open(graph_path).read())
        assert loaded["edges"] == sorted(original["edges"], key=repr)
        assert set(map(repr, loaded["nodes"])) == set(map(repr, original["nodes"]))

    def test_info(self, graph_path, tmp_path, capsys):
        snap = str(tmp_path / "graph.snap")
        assert main(["snapshot", "save", graph_path, snap]) == 0
        capsys.readouterr()
        assert main(["snapshot", "info", snap]) == 0
        out = capsys.readouterr().out
        assert "format: 2" in out
        assert "nodes: 3" in out and "edges: 2" in out
        assert "fingerprintable: True" in out

    def test_load_missing_file_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.snap")
        assert main(["snapshot", "load", missing]) == 2
        assert "snapshot error" in capsys.readouterr().err

    def test_load_to_file(self, graph_path, tmp_path, capsys):
        snap = str(tmp_path / "graph.snap")
        out_json = str(tmp_path / "out.json")
        assert main(["snapshot", "save", graph_path, snap]) == 0
        assert main(["snapshot", "load", snap, "-o", out_json]) == 0
        assert json.loads(open(out_json).read())["edges"]


class TestServeSnapshotDirFlag:
    def test_serve_parser_accepts_snapshot_dir(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--snapshot-dir", "/tmp/snaps"]
        )
        assert args.snapshot_dir == "/tmp/snaps"
