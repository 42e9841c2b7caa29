"""Command-line interface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mckaycuts import cli
from mckaycuts.construct import cut_from_json
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.quiver import build_mckay
from oracles import all_cuts_exhaustive

THIRD = {"n": 2, "generators": [{"order": 3, "weights": [1, 1, 1]}]}
KLEIN = {
    "n": 2,
    "generators": [
        {"order": 2, "weights": [1, 1, 0]},
        {"order": 2, "weights": [1, 0, 1]},
    ],
}
QUARTER_112 = {"n": 2, "generators": [{"order": 4, "weights": [1, 1, 2]}]}


@pytest.fixture
def write_input(tmp_path):
    def _write(payload, name="group.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_reports_simplex(self, capsys, write_input):
        code, out, _ = run_cli(capsys, ["--input", write_input(THIRD), "analyze"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 3
        assert payload["bprime_hnf"] == [[3, 2], [0, 1]]
        assert len(payload["types"]["types"]) == 4
        assert payload["hollow"] is False

    def test_hollow_instance(self, capsys, write_input):
        code, out, _ = run_cli(capsys, ["--input", write_input(KLEIN), "analyze"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["types"]["types"]) == 6
        assert payload["hollow"] is True
        assert payload["preprojective_cut_exists"] is False

    def test_deterministic_output(self, capsys, write_input):
        path = write_input(THIRD)
        _, first, _ = run_cli(capsys, ["--input", path, "analyze"])
        _, second, _ = run_cli(capsys, ["--input", path, "analyze"])
        assert first == second

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(THIRD)))
        code, out, _ = run_cli(capsys, ["types"])
        assert code == 0
        assert json.loads(out)["hollow"] is False

    def test_n6_counts_cycles_in_bounded_memory(self, write_input):
        # m * n! = 432,000 elementary cycles: reported, never materialised
        resource = pytest.importorskip("resource")
        limit = 128 * 1024 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        group = {
            "n": 6,
            "generators": [{"order": 600, "weights": [1, 2, 3, 4, 5, 6, 579]}],
        }
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mckaycuts.cli",
             "--input", write_input(group), "analyze"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["quiver"]["elementary_cycles"] == 432000

    def test_largest_accepted_input(self, capsys, write_input):
        # n = 6, m = 5000 is the largest n = 6 group under the default --max-m
        group = {
            "n": 6,
            "generators": [{"order": 5000, "weights": [1, 2, 3, 4, 5, 6, 4979]}],
        }
        code, out, _ = run_cli(capsys, ["--input", write_input(group), "analyze"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["types"]["types"]) == 245
        assert len(payload["types"]["positive"]) == 238

    def test_trivial_group(self, capsys, write_input):
        trivial = {"n": 2, "generators": []}
        code, out, _ = run_cli(capsys, ["--input", write_input(trivial), "analyze"])
        assert code == 0
        payload = json.loads(out)
        assert payload["quiver"]["vertices"] == 1
        assert payload["hollow"] is True

    def test_negative_budget_rejected(self, capsys, write_input):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--input", write_input(THIRD), "verify", "--budget", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestErrorPaths:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["--input", str(path), "analyze"])
        assert code == 2
        assert "malformed" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["--input", "/nonexistent.json", "analyze"])
        assert code == 2

    def test_invalid_weights_exit_2(self, capsys, write_input):
        bad = {"n": 2, "generators": [{"order": 3, "weights": [1, 1, 2]}]}
        code, _, err = run_cli(capsys, ["--input", write_input(bad), "analyze"])
        assert code == 2
        assert "invalid weights" in err

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 2.7, "generators": THIRD["generators"]},
            {"n": 2, "generators": [{"order": 3.9, "weights": [1, 1, 1]}]},
            {"n": 2, "generators": [{"order": 3, "weights": [1.5, 1, 1]}]},
            {"n": 2, "bprime": [[1.5, 0], [0, 3]]},
            {"n": True, "generators": [{"order": 2, "weights": [1, 1]}]},
        ],
        ids=["float_n", "float_order", "float_weight", "float_bprime", "bool_n"],
    )
    def test_non_integer_numbers_exit_2(self, capsys, write_input, bad):
        code, out, err = run_cli(capsys, ["--input", write_input(bad), "types"])
        assert code == 2
        assert out == ""
        assert "JSON integers" in err

    @pytest.mark.parametrize(
        "arrows",
        [
            # truncated, these arrow types give a valid cut of type (1, 1, 1)
            [{"source": [2, 0], "arrow_type": t} for t in (1.5, 2.5, 3.5)],
            [{"source": [2.0, 0], "arrow_type": t} for t in (1, 2, 3)],
            [{"source": [2, 0], "arrow_type": t} for t in (True, 2, 3)],
        ],
        ids=["float_arrow_type", "float_source", "bool_arrow_type"],
    )
    def test_non_integer_cut_file_exits_2(self, capsys, write_input, arrows):
        cut = write_input({"type": [1, 1, 1], "arrows": arrows}, name="cut.json")
        code, out, err = run_cli(
            capsys, ["--input", write_input(THIRD), "verify", "--cut", cut]
        )
        assert code == 2
        assert out == ""
        assert "malformed cut file" in err

    def test_oversized_exits_3(self, capsys, write_input):
        big = {"n": 1, "generators": [{"order": 9, "weights": [1, 8]}]}
        code, _, err = run_cli(
            capsys, ["--input", write_input(big), "--max-m", "5", "analyze"]
        )
        assert code == 3
        assert "unsupported size" in err

    def test_inadmissible_type_exits_4(self, capsys, write_input):
        code, _, err = run_cli(
            capsys,
            ["--input", write_input(THIRD), "construct", "--type", "2,1,0"],
        )
        assert code == 4
        assert "not the type" in err

    def test_bad_type_string_exits_2(self, capsys, write_input):
        code, _, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "construct", "--type", "a,b,c"],
        )
        assert code == 2

    def test_lattice_budget_option_removed(self, capsys, write_input):
        for command in (["lattice"], ["export-dot", "hasse"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(
                    ["--input", write_input(QUARTER_112), *command,
                     "--type", "2,2,0", "--budget", "2"]
                )
            assert exc.value.code == 2
        capsys.readouterr()

    def test_nonpositive_extremes_exit_5(self, capsys, write_input):
        code, _, _ = run_cli(
            capsys,
            ["--input", write_input(QUARTER_112), "extremes", "--type", "2,2,0"],
        )
        assert code == 5


class TestConstruct:
    def test_emits_cut_height_presentation(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "construct", "--type", "1,1,1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cut"]["type"] == [1, 1, 1]
        assert payload["acyclic"] is True
        assert payload["height"]["values"]["0,0"] == 0
        assert len(payload["degree_zero"]["relations"]) == 3

    def test_dot_format(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            [
                "--input",
                write_input(THIRD),
                "construct",
                "--type",
                "1,1,1",
                "--format",
                "dot",
            ],
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("style=dashed") == 3


class TestLatticeAndExtremes:
    def test_chain(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "lattice", "--type", "1,1,1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cuts"]) == 3
        assert len(payload["hasse_edges"]) == 2
        assert payload["max_index"] == 2
        assert payload["min_index"] == 0

    def test_hasse_dot(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            [
                "--input",
                write_input(THIRD),
                "lattice",
                "--type",
                "1,1,1",
                "--format",
                "dot",
            ],
        )
        assert code == 0
        assert out.startswith("digraph hasse")

    def test_nonpositive_lattice_beyond_m_6(self, capsys, write_input):
        group = {"n": 2, "generators": [{"order": 12, "weights": [1, 5, 6]}]}
        path = write_input(group)
        code, out, _ = run_cli(
            capsys, ["--input", path, "lattice", "--type", "6,6,0"]
        )
        assert code == 0
        payload = json.loads(out)
        spec = GroupSpec.make(2, [(12, (1, 5, 6))])
        quiver = build_mckay(embedding_from_spec(spec))
        oracle = set(all_cuts_exhaustive(quiver, (6, 6, 0)))
        found = {cut_from_json(quiver, cut) for cut in payload["cuts"]}
        assert found == oracle and len(payload["cuts"]) == 20
        assert payload["hasse_edges"] == []
        code, out, _ = run_cli(
            capsys, ["--input", path, "export-dot", "hasse", "--type", "6,6,0"]
        )
        assert code == 0
        assert out.count("->") == 0 and out.count("label=") == 20

    def test_extremes_agree(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "extremes", "--type", "1,1,1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["methods_agree"] is True
        assert payload["max_greedy"] == payload["max_via_p"]


class TestVerify:
    def test_full_suite_passes(self, capsys, write_input):
        code, out, _ = run_cli(capsys, ["--input", write_input(THIRD), "verify"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["status"] != "fail" for c in payload["checks"])

    def test_budget_zero_skips_oracles(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys, ["--input", write_input(THIRD), "verify", "--budget", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        skipped = [c for c in payload["checks"] if c["status"] == "skipped"]
        assert skipped and all("skipped" in c["detail"] for c in skipped)

    def test_corrupted_cut_fails(self, capsys, write_input, tmp_path):
        good = {
            "type": [1, 1, 1],
            "arrows": [
                {"source": [2, 0], "arrow_type": 1},
                {"source": [2, 0], "arrow_type": 2},
                {"source": [2, 0], "arrow_type": 3},
            ],
        }
        bad = {"type": [1, 1, 1], "arrows": good["arrows"][:-1]}
        cut_path = tmp_path / "cut.json"
        cut_path.write_text(json.dumps(bad))
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "verify", "--cut", str(cut_path)],
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        failure = next(c for c in payload["checks"] if c["name"] == "cut_file")
        assert "elementary cycle uncovered" in failure["detail"]

    def test_valid_cut_passes(self, capsys, write_input, tmp_path):
        cut_path = tmp_path / "cut.json"
        cut_path.write_text(
            json.dumps(
                {
                    "type": [1, 1, 1],
                    "arrows": [
                        {"source": [2, 0], "arrow_type": t} for t in (1, 2, 3)
                    ],
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "verify", "--cut", str(cut_path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True


class TestExportDot:
    def test_quiver(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys, ["--input", write_input(THIRD), "export-dot", "quiver"]
        )
        assert code == 0
        assert out.startswith("digraph mckay")

    def test_cut_requires_type(self, capsys, write_input):
        code, _, err = run_cli(
            capsys, ["--input", write_input(THIRD), "export-dot", "cut"]
        )
        assert code == 2
        assert "requires --type" in err

    def test_hasse(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            [
                "--input",
                write_input(THIRD),
                "export-dot",
                "hasse",
                "--type",
                "1,1,1",
            ],
        )
        assert code == 0
        assert out.startswith("digraph hasse")
