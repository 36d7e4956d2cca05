"""Unit tests for the scalable workload families and ``repro genscale``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.classes import alphabet_of
from repro.graph.parser import parse_nre
from repro.io.json_io import document_from_dict
from repro.scenarios.scale import (
    FAMILIES,
    GeneratorConfig,
    fact_counts,
    generate_instance,
    iter_fact_batches,
    iter_facts,
    scale_document,
    scale_setting,
    update_stream,
    workload_queries,
)


class TestGeneratorConfig:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(family="weblogs")

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            GeneratorConfig(nodes=0)
        with pytest.raises(ValueError):
            GeneratorConfig(batch_size=0)
        with pytest.raises(ValueError):
            GeneratorConfig(family="social", attach=0)

    def test_scaled_copies(self):
        config = GeneratorConfig(family="medlit", nodes=1_000, seed=3)
        smaller = config.scaled(nodes=10)
        assert smaller.nodes == 10 and smaller.seed == 3
        assert config.nodes == 1_000  # frozen original untouched


class TestStreams:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_byte_identical_per_seed(self, family):
        config = GeneratorConfig(family=family, nodes=200, seed=11)
        assert list(iter_facts(config)) == list(iter_facts(config))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_different_seeds_differ(self, family):
        one = GeneratorConfig(family=family, nodes=200, seed=1)
        two = GeneratorConfig(family=family, nodes=200, seed=2)
        assert list(iter_facts(one)) != list(iter_facts(two))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batching_never_changes_the_stream(self, family):
        config = GeneratorConfig(family=family, nodes=150, seed=5, batch_size=37)
        flattened = [
            fact for batch in iter_fact_batches(config) for fact in batch
        ]
        assert flattened == list(iter_facts(config))
        assert all(
            len(batch) <= 37 for batch in iter_fact_batches(config)
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_facts_fit_the_declared_schema(self, family):
        schema = scale_setting(family).source_schema
        for relation, values in iter_facts(
            GeneratorConfig(family=family, nodes=120, seed=9)
        ):
            assert schema.get(relation).arity == len(values)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fact_counts_match_the_stream(self, family):
        config = GeneratorConfig(family=family, nodes=100, seed=2)
        counts = fact_counts(config)
        assert sum(counts.values()) == len(list(iter_facts(config)))
        assert set(counts) <= set(scale_setting(family).source_schema.names())


class TestSettings:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_in_the_friendly_fragments(self, family):
        fragment = scale_setting(family).fragment()
        assert fragment.heads_single_symbols
        assert fragment.sat_encodable
        assert not fragment.has_sameas and not fragment.has_general_tgds

    @pytest.mark.parametrize("family", FAMILIES)
    def test_queries_parse_within_the_alphabet(self, family):
        setting = scale_setting(family)
        queries = workload_queries(family)
        assert queries
        for text in queries:
            assert alphabet_of(parse_nre(text)) <= set(setting.alphabet)

    def test_unknown_family_everywhere(self):
        with pytest.raises(ValueError):
            scale_setting("weblogs")
        with pytest.raises(ValueError):
            workload_queries("weblogs")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_document_round_trips(self, family):
        config = GeneratorConfig(family=family, nodes=60, seed=4)
        setting, instance = document_from_dict(scale_document(config))
        assert setting.name == family
        assert instance == generate_instance(config)


class TestUpdateStream:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic_and_sized(self, family):
        config = GeneratorConfig(family=family, nodes=80, seed=6)
        one = list(update_stream(config, batches=20, ops_per_batch=3))
        two = list(update_stream(config, batches=20, ops_per_batch=3))
        assert one == two
        assert len(one) == 20
        assert all(len(batch) == 3 for batch in one)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deletes_only_previous_inserts(self, family):
        from collections import Counter

        config = GeneratorConfig(family=family, nodes=80, seed=6)
        outstanding = Counter()
        schema = scale_setting(family).source_schema
        for batch in update_stream(config, batches=60, ops_per_batch=4):
            for op, relation, values in batch:
                assert schema.get(relation).arity == len(values)
                if op == "insert":
                    outstanding[(relation, values)] += 1
                else:
                    assert op == "delete"
                    assert outstanding[(relation, values)] > 0
                    outstanding[(relation, values)] -= 1

REPO_ROOT = Path(__file__).resolve().parents[2]
"""The checkout this test file belongs to; the CLI runs from its ``src``."""


class TestGenscaleCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "genscale", *args],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=REPO_ROOT,
        )

    def test_jsonl_stream_matches_the_library(self):
        result = self.run_cli(
            "--family", "social", "--nodes", "40", "--seed", "3"
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        header, trailer = json.loads(lines[0]), json.loads(lines[-1])
        assert header["family"] == "social" and header["nodes"] == 40
        config = GeneratorConfig(family="social", nodes=40, seed=3)
        expected = list(iter_facts(config))
        assert trailer["facts"] == len(expected)
        facts = [tuple(json.loads(line)) for line in lines[1:-1]]
        assert [(rel, tuple(vals)) for rel, vals in facts] == expected

    def test_document_format_round_trips(self, tmp_path):
        out = tmp_path / "doc.json"
        result = self.run_cli(
            "--family", "medlit", "--nodes", "30", "--seed", "2",
            "--format", "document", "-o", str(out),
        )
        assert result.returncode == 0, result.stderr
        setting, instance = document_from_dict(json.loads(out.read_text()))
        assert setting.name == "medlit"
        config = GeneratorConfig(family="medlit", nodes=30, seed=2)
        assert instance == generate_instance(config)

    def test_byte_identical_across_runs(self):
        first = self.run_cli("--family", "medlit", "--nodes", "50")
        second = self.run_cli("--family", "medlit", "--nodes", "50")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
