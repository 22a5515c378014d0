"""Tests for the CLI front-end and the clique-finding application."""

from __future__ import annotations

import pytest

from repro.apps.clique_finding import clique_census, count_cliques, max_clique_size
from repro.cli import main, resolve_pattern
from repro.core.atlas import TAILED_TRIANGLE
from repro.core.pattern import Pattern
from repro.graph.datagraph import DataGraph

from .oracle import brute_force_count


class TestCliqueFinding:
    @pytest.fixture(scope="class")
    def graph(self):
        # A K5 glued to a K3 plus some noise edges.
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
            (2, 3), (2, 4), (3, 4),
            (5, 6), (6, 7), (5, 7),
            (4, 5), (7, 8), (8, 9),
        ]
        return DataGraph(10, edges, name="cliquey")

    def test_count_cliques(self, graph):
        assert count_cliques(graph, 3) == brute_force_count(graph, Pattern.clique(3))
        assert count_cliques(graph, 5) == 1

    def test_census_stops_at_empty(self, graph):
        census = clique_census(graph, 8)
        assert census[5] == 1
        assert census[6] == 0
        assert 7 not in census  # stopped after the first empty size

    def test_max_clique(self, graph):
        assert max_clique_size(graph) == 5

    def test_max_clique_trivial(self):
        lonely = DataGraph(3, [(0, 1)], name="lonely")
        assert max_clique_size(lonely) == 2

    def test_size_validation(self, graph):
        with pytest.raises(ValueError):
            count_cliques(graph, 1)


class TestPatternResolution:
    def test_named(self):
        assert resolve_pattern("TT") == TAILED_TRIANGLE

    def test_vertex_variant(self):
        assert resolve_pattern("C4-V").is_vertex_induced

    def test_edge_suffix(self):
        assert resolve_pattern("C4-E").is_edge_induced

    def test_unknown_pattern(self):
        with pytest.raises(SystemExit):
            resolve_pattern("nope")

    def test_unknown_suffix(self):
        with pytest.raises(SystemExit):
            resolve_pattern("TT-X")


class TestCliCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "MI" in out and "friendster" in out

    def test_equation(self, capsys):
        assert main(["equation", "TT"]) == 0
        assert "TT^E" in capsys.readouterr().out

    def test_bench_verb_is_gone(self, capsys):
        """Removed in 3.0.0 (morphbench is the yardstick); argparse exits 2."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "record"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["count", "--pattern", "triangle"], ["motifs", "--size", "3"]],
        ids=["count", "motifs"],
    )
    def test_max_retries_flag_is_gone(self, capsys, argv):
        """A shard runs once, so there is no retry budget to set."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-retries", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-retries 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["count", "--pattern", "triangle"], ["motifs", "--size", "3"]],
        ids=["count", "motifs"],
    )
    def test_checkpoint_flag_resumes_to_the_same_answer(
        self, capsys, tmp_path, small_graph, argv
    ):
        from repro.checkpoint import ShardCheckpoint
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        journal = tmp_path / "run.ckpt.jsonl"
        args = argv + [
            "--graph-file", str(path),
            "--checkpoint", str(journal),
            "--deadline", "600",
        ]

        def answer_lines() -> list[str]:
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if not line.startswith("#")]

        assert main(args) == 0
        first = answer_lines()
        with ShardCheckpoint(journal) as written:
            assert len(written) > 0
        assert main(args) == 0
        assert answer_lines() == first
        expected = brute_force_count(small_graph, Pattern.clique(3))
        assert f"triangle   {expected}" in first

    def test_count_on_file(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            ["count", "--graph-file", str(path), "--pattern", "triangle"]
        ) == 0
        out = capsys.readouterr().out
        expected = brute_force_count(small_graph, Pattern.clique(3))
        assert str(expected) in out

    def test_dirty_file_warns_once(self, capsys, tmp_path):
        path = tmp_path / "dirty.edges"
        path.write_text("0 1\n1 0\n2 2\n1 2\n")
        assert main(
            ["count", "--graph-file", str(path), "--pattern", "triangle"]
        ) == 0
        err = capsys.readouterr().err
        assert "dropped 1 self-loops and 1 duplicate edges" in err

    def test_clean_file_stays_quiet(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            ["count", "--graph-file", str(path), "--pattern", "triangle"]
        ) == 0
        assert "dropped" not in capsys.readouterr().err

    def test_count_baseline_flag(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            [
                "count", "--graph-file", str(path),
                "--pattern", "C4-V", "--no-morph", "--engine", "bigjoin",
            ]
        ) == 0
        out = capsys.readouterr().out
        from repro.core.atlas import FOUR_CYCLE

        assert str(brute_force_count(small_graph, FOUR_CYCLE.vertex_induced())) in out

    def test_cliques_on_file(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            ["cliques", "--graph-file", str(path), "--max-size", "4"]
        ) == 0
        assert "3-clique" in capsys.readouterr().out

    def test_fsm_requires_labels(self, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        with pytest.raises(SystemExit):
            main(["fsm", "--graph-file", str(path), "--support", "3"])

    def test_fsm_on_labeled_file(self, capsys, tmp_path, small_labeled_graph):
        from repro.graph.io import save_edge_list

        epath = tmp_path / "g.edges"
        lpath = tmp_path / "g.labels"
        save_edge_list(small_labeled_graph, epath, lpath)
        assert main(
            [
                "fsm", "--graph-file", str(epath), "--label-file", str(lpath),
                "--support", "4", "--max-edges", "2",
            ]
        ) == 0
        assert "frequent patterns" in capsys.readouterr().out


class TestNewCliCommands:
    def test_orbits_command(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            ["orbits", "--graph-file", str(path), "--vertex", "0", "--size", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "triangle" in out

    def test_approx_command(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            [
                "approx", "--graph-file", str(path),
                "--pattern", "triangle", "--prob", "0.8", "--trials", "3",
            ]
        ) == 0
        assert "estimate" in capsys.readouterr().out

    def test_dsl_pattern_via_cli(self, capsys, tmp_path, small_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        assert main(
            ["count", "--graph-file", str(path), "--pattern", "a-b,b-c,c-a"]
        ) == 0
        from repro.core.pattern import Pattern

        from .oracle import brute_force_count

        expected = brute_force_count(small_graph, Pattern.clique(3))
        assert str(expected) in capsys.readouterr().out
