"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mckaycuts import cli, construct, mutation
from mckaycuts.construct import (
    _arrow_json,
    construct_cut,
    cut_from_json,
    cut_to_json,
    degree_zero_presentation,
)
from mckaycuts.errors import SearchBoundExceededError
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.heights import height_from_cut
from mckaycuts.mutation import MutationLattice, enumerate_cut_lattice
from mckaycuts.quiver import Cut, build_mckay, is_acyclic
from mckaycuts.typesimplex import enumerate_types
import record_golden
from conftest import NAMED_SPECS, assert_same_text, oracle_extremes
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
# 2,100 arrows, 4,500 relation squares and 3.5 MB of `construct` JSON.
C300 = {"n": 6, "generators": [{"order": 300, "weights": [1, 2, 3, 4, 5, 6, 279]}]}
C300_TYPE = "1,2,3,4,5,6,279"
# Nested too deeply for json to decode.
DEEP_JSON = "[" * 100_000
GOLDEN = record_golden.load()
C300_CONSTRUCT_SHA256 = record_golden.find_row(
    GOLDEN, "c300", ["construct", "--type", C300_TYPE]
)["sha256"]

# Runs its arguments as a command and prints its exit code, the sha256 of
# its stdout and its peak RSS in KiB (``ru_maxrss`` from ``wait4``, Linux).
PEAK_RSS_PROBE = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(chunk)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, digest.hexdigest(), usage.ru_maxrss)
"""


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


def extremes_in_child(write_input, m, weights, cut_type):
    """Run ``extremes`` on 1/m(weights) in a child process with a 60 s timeout."""
    group = {"n": 2, "generators": [{"order": m, "weights": list(weights)}]}
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mckaycuts.cli",
         "--input", write_input(group), "extremes", "--type", cut_type],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
    def test_malformed_json_exits_2(self, capsys, tmp_path, monkeypatch):
        # Deep nesting makes json raise RecursionError, not JSONDecodeError.
        for text in ("{not json", DEEP_JSON):
            path = tmp_path / "broken.json"
            path.write_text(text)
            code, _, err = run_cli(capsys, ["--input", str(path), "analyze"])
            assert code == 2
            assert "malformed input" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_JSON))
        code, _, err = run_cli(capsys, ["analyze"])
        assert code == 2
        assert "malformed input" in err

    def test_malformed_cut_file_exits_2(self, capsys, write_input, tmp_path):
        for text in ("{not json", DEEP_JSON):
            cut = tmp_path / "cut.json"
            cut.write_text(text)
            code, out, err = run_cli(
                capsys, ["--input", write_input(THIRD), "verify", "--cut", str(cut)]
            )
            assert code == 2
            assert out == ""
            assert "malformed cut file" in err

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

    def test_object_in_place_of_an_array_exits_2(self, capsys, write_input):
        # Read as the trivial group and as an empty cut, these exited 0 and 1.
        group = write_input({"n": 2, "generators": {}})
        code, out, err = run_cli(capsys, ["--input", group, "types"])
        assert (code, out) == (2, "")
        assert "malformed input" in err
        cut = write_input({"type": [1, 1, 1], "arrows": {}}, name="cut.json")
        code, out, err = run_cli(
            capsys, ["--input", write_input(THIRD), "verify", "--cut", cut]
        )
        assert (code, out) == (2, "")
        assert "malformed cut file" in err

    @pytest.mark.parametrize(
        "group, argv, code, text",
        [
            ("{not json", ["construct", "--type", "a,b,c"], 2, "malformed input"),
            (THIRD, ["--max-m", "1", "lattice", "--type", "a,b,c"], 3, "m = 3"),
            (None, ["export-dot", "hasse"], 2, "requires --type"),
            (THIRD, ["export-dot", "quiver", "--type", "junk"], 0, "digraph mckay"),
            (THIRD, ["export-dot", "cut", "--type", "2,1,0"], 4, "not the type"),
            (
                {"n": 1, "bprime": [[2]], "generators": {}},
                ["types"],
                2,
                "malformed input",
            ),
        ],
        ids=[
            "input_before_type",
            "size_before_type",
            "missing_type_before_input",
            "quiver_ignores_type",
            "export_cut_inadmissible",
            "bprime_and_generators",
        ],
    )
    def test_refusal_order(self, capsys, tmp_path, group, argv, code, text):
        path = tmp_path / "group.json"  # None leaves the input unreadable
        if group is not None:
            path.write_text(group if isinstance(group, str) else json.dumps(group))
        got, out, err = run_cli(capsys, ["--input", str(path), *argv])
        assert got == code
        assert text in (out if code == 0 else err)
        assert code == 0 or out == ""

    def test_oversized_exits_3(self, capsys, write_input):
        big = {"n": 1, "generators": [{"order": 9, "weights": [1, 8]}]}
        code, _, err = run_cli(
            capsys, ["--input", write_input(big), "--max-m", "5", "analyze"]
        )
        assert code == 3
        assert "unsupported size" in err

    @pytest.mark.parametrize(
        "generators, code, err",
        [
            # Faithful, with m about 10^4398: past Python's 4,300-digit
            # limit for printing an int.
            (
                [
                    {"order": 10**2199 + 3, "weights": [1, 10**2199 + 2, 0]},
                    {"order": 10**2199 + 1, "weights": [1, 0, 10**2199]},
                ],
                3,
                "unsupported size: m = a 14610-bit number (limit: m <= 5000)",
            ),
            # Stated order 40^3000, about 4,806 digits.
            (
                [{"order": 40, "weights": [1, 1, 38]}] * 3000,
                2,
                "non-faithful or redundant generating data: stated group order"
                " a 15966-bit number, lattice index 40",
            ),
        ],
        ids=["4400_digit_order", "3000_redundant"],
    )
    def test_refusals_give_the_size_of_a_long_number(
        self, capsys, write_input, generators, code, err
    ):
        group = {"n": 2, "generators": generators}
        got, out, stderr = run_cli(capsys, ["--input", write_input(group), "types"])
        assert (got, out) == (code, "")
        assert err in stderr

    def test_large_n_refused_before_the_basis_is_built(self, write_input):
        # Building and reducing the 1000 x 1000 basis takes over a minute.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mckaycuts.cli",
             "--input", write_input({"n": 1000, "generators": []}), "types"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "unsupported size: n = 1000" in proc.stderr

    @pytest.mark.parametrize(
        "generators, code, err",
        [
            ([{"order": 1, "weights": [0, 0, 0]}] * 5000, 0, ""),
            (
                [
                    {"order": 7, "weights": [1, 2, 4]},
                    {"order": 5, "weights": [1, 1, 3]},
                ] * 100,
                2,
                "non-faithful or redundant generating data",
            ),
        ],
        ids=["5000_order_1", "200_non_faithful"],
    )
    def test_many_generators_are_intersected_one_at_a_time(
        self, write_input, generators, code, err
    ):
        # One kernel of a g x (n+g) matrix took 26 s on 800 order-1
        # generators and over two minutes on the 200 non-faithful ones.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mckaycuts.cli", "--input",
             write_input({"n": 2, "generators": generators}), "types"],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == code, proc.stderr
        assert err in proc.stderr

    @pytest.mark.parametrize(
        "group, code",
        [
            ({"n": 7}, 3),
            ({"n": 7, "bprime": [[1]]}, 3),
            ({"n": 7.5, "generators": []}, 2),
            ({"n": 6}, 2),
        ],
        ids=["n7_no_generators", "n7_bad_bprime", "float_n", "n6_no_generators"],
    )
    def test_n_checked_before_the_rest_of_the_input(
        self, capsys, write_input, group, code
    ):
        got, out, _ = run_cli(capsys, ["--input", write_input(group), "types"])
        assert (got, out) == (code, "")

    @pytest.mark.parametrize("spelling", ["1_0", "\u0662", "\u0663", "-1"])
    @pytest.mark.parametrize("option", ["--max-m", "--budget"])
    def test_counts_take_ascii_digits_only(
        self, capsys, write_input, option, spelling
    ):
        # int() reads the first three as 10, 2 and 3.
        path = write_input(THIRD)
        if option == "--max-m":
            argv = ["--input", path, "--max-m", spelling, "types"]
        else:
            argv = ["--input", path, "verify", "--budget", spelling]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize(
        "spelling",
        [
            "1_1,0,1",
            "\u0663,\u0663,\u0666",
            pytest.param("9" * 5000 + ",1,1", id="5000_digits"),
        ],
    )
    def test_non_ascii_integer_type_exits_2(self, capsys, write_input, spelling):
        # int() reads the first two as (11, 0, 1) and (3, 3, 6) and
        # refuses the third with ValueError, past its digit limit.
        code, out, err = run_cli(
            capsys,
            ["--input", write_input(THIRD), "lattice", "--type", spelling],
        )
        assert code == 2 and out == ""
        assert "malformed type vector" in err

    def test_lattice_budget_option_removed(self, capsys, write_input):
        for command in (["lattice"], ["export-dot", "hasse"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(
                    ["--input", write_input(QUARTER_112), *command,
                     "--type", "2,2,0", "--budget", "2"]
                )
            assert exc.value.code == 2
        capsys.readouterr()

    def test_failed_certification_exits_5(self, capsys, write_input, monkeypatch):
        def refuse(quiver, cut_type):
            raise SearchBoundExceededError("candidate maximum failed certification")

        monkeypatch.setattr(cli, "max_via_p", refuse)
        code, out, err = run_cli(
            capsys,
            ["--input", write_input(THIRD), "extremes", "--type", "1,1,1"],
        )
        assert code == 5 and out == ""
        assert "certification" in err


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


def group_json(n, generators):
    return {
        "n": n,
        "generators": [{"order": o, "weights": list(w)} for o, w in generators],
    }


def construct_stdout(group, cut_type):
    """(exit code, stdout) of ``construct`` on a group given on stdin."""
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(group))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["construct", "--type", ",".join(map(str, cut_type))])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def construct_tree(quiver, cut_type):
    """The ``construct`` payload as a dict tree, built from the library."""
    cut = construct_cut(quiver, cut_type)
    sub, relations = degree_zero_presentation(quiver, cut)
    return {
        "cut": cut_to_json(cut),
        "height": height_from_cut(quiver, cut).to_json(),
        "degree_zero": {
            "arrows": [_arrow_json(quiver, v, t) for v, t in sub.arrows],
            "relations": [
                [_arrow_json(quiver, v, t) for v, t in square]
                for square in relations
            ],
        },
        "acyclic": is_acyclic(sub),
    }


def assert_construct_is_the_tree(group, quiver, cut_type):
    code, out = construct_stdout(group, cut_type)
    assert code == 0
    assert out == json.dumps(construct_tree(quiver, cut_type), indent=2) + "\n"
    return out


@st.composite
def cyclic_groups_with_types(draw):
    """A cyclic group 1/m(w) with n <= 3 and m <= 12, its quiver and a type."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(2, 12))
    weights = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
    weights.append(-sum(weights) % order)
    assume(gcd(order, *weights) == 1)  # the generator acts with order m
    generators = [(order, tuple(weights))]
    quiver = build_mckay(embedding_from_spec(GroupSpec.make(n, generators)))
    cut_type = draw(st.sampled_from(enumerate_types(quiver.embedding).all_types))
    return group_json(n, generators), quiver, cut_type


class TestConstructStreaming:
    @pytest.mark.parametrize("name", sorted(NAMED_SPECS))
    def test_stdout_is_the_tree_for_every_type(self, name):
        n, generators = NAMED_SPECS[name]
        embedding = embedding_from_spec(GroupSpec.make(n, generators))
        quiver = build_mckay(embedding)
        for cut_type in enumerate_types(embedding).all_types:
            out = assert_construct_is_the_tree(
                group_json(n, generators), quiver, cut_type
            )
            # n = 1 is the Kronecker quiver, where no relation survives
            assert ('"relations": []' in out) == (n == 1)

    @settings(max_examples=30, deadline=None)
    @given(cyclic_groups_with_types())
    def test_stdout_is_the_tree_on_random_groups(self, drawn):
        assert_construct_is_the_tree(*drawn)

    def test_c300_digest_and_one_encoding_per_arrow_and_depth(
        self, capsys, write_input, monkeypatch
    ):
        calls = Counter()

        def counted(quiver, v, t):
            calls[v, t] += 1
            return _arrow_json(quiver, v, t)

        def refuse(*args, **kwargs):
            raise AssertionError("the payload went through json.dump")

        # The cut's arrows go through ``cut_to_json``, which looks the name
        # up in ``construct``; the cut quiver's and the squares' in ``cli``.
        monkeypatch.setattr(cli, "_arrow_json", counted)
        monkeypatch.setattr(construct, "_arrow_json", counted)
        monkeypatch.setattr(json, "dump", refuse)
        code, out, _ = run_cli(
            capsys, ["--input", write_input(C300), "construct", "--type", C300_TYPE]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == C300_CONSTRUCT_SHA256
        # 20,100 arrow objects are printed, but each of the 2,100 arrows is
        # encoded once at depth 3 and, if a relation square holds it, once
        # more at depth 4; one dict per printed arrow took 20,100 calls.
        assert out.count('"arrow_type"') == 20100
        assert len(calls) == 2100 and max(calls.values()) <= 2

    def test_c300_digest_and_peak_memory(self, write_input):
        # The CLI's peak RSS above that of a call with a tiny output: about
        # 6.5 MiB when the payload was a dict tree dumped by ``json.dump``,
        # under 1 MiB streamed.  Both are started from a small intermediate
        # process, as in the lattice test above.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def probe(group, *command):
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_RSS_PROBE,
                 sys.executable, "-m", "mckaycuts.cli",
                 "--input", write_input(group), *command],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            code, digest, peak_kib = proc.stdout.split()
            assert code == "0"
            return digest, int(peak_kib)

        _, small_kib = probe(THIRD, "types")
        digest, peak_kib = probe(C300, "construct", "--type", C300_TYPE)
        assert digest == C300_CONSTRUCT_SHA256
        assert peak_kib - small_kib < 4 * 1024


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
        # The Hasse edges are the covers of the componentwise order, each
        # labelled by the least vertex of the class it moves.
        vecs = payload["v_vectors"]

        def below(a, b):
            return all(p <= q for p, q in zip(a, b))

        covers = {
            (i, j)
            for i, a in enumerate(vecs)
            for j, b in enumerate(vecs)
            if i != j
            and below(a, b)
            and not any(
                k not in (i, j) and below(a, c) and below(c, b)
                for k, c in enumerate(vecs)
            )
        }
        edges = payload["hasse_edges"]
        assert covers and len(edges) == len(covers)
        assert {(e["lower"], e["upper"]) for e in edges} == covers
        for e in edges:
            low, high = vecs[e["lower"]], vecs[e["upper"]]
            moved = [x for x, (p, q) in enumerate(zip(low, high)) if p != q]
            assert all(high[x] == low[x] + 1 for x in moved)
            assert quiver.embedding.vertex(e["vertex"]) == moved[0] != 0
        code, out, _ = run_cli(
            capsys, ["--input", path, "export-dot", "hasse", "--type", "6,6,0"]
        )
        assert code == 0
        assert out.count("->") == len(covers)
        assert out.count("label=") == 20 + len(covers)

    def test_extremes_agree(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(THIRD), "extremes", "--type", "1,1,1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["methods_agree"] is True
        assert payload["max_greedy"] == payload["max_via_p"]

    def test_nonpositive_extremes(self, capsys, write_input):
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(QUARTER_112), "extremes", "--type", "2,2,0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["methods_agree"] is True
        quiver = build_mckay(embedding_from_spec(GroupSpec.make(2, [(4, (1, 1, 2))])))
        top, bottom = oracle_extremes(quiver, (2, 2, 0))
        assert cut_from_json(quiver, payload["max_greedy"]) == top
        assert cut_from_json(quiver, payload["max_via_p"]) == top
        assert cut_from_json(quiver, payload["min_greedy"]) == bottom

    def test_extremes_at_m_240_in_bounded_time(self, write_input):
        payload = extremes_in_child(write_input, 240, (1, 5, 234), "50,10,180")
        assert payload["methods_agree"] is True

    def test_extremes_at_m_2000_in_bounded_time(self, write_input):
        payload = extremes_in_child(write_input, 2000, (1, 5, 1994), "566,830,604")
        assert payload["methods_agree"] is True


class TestLatticeStreaming:
    GROUP = {"n": 2, "generators": [{"order": 24, "weights": [1, 5, 18]}]}

    def test_stdout_is_to_json_byte_for_byte(self, capsys, write_input, monkeypatch):
        quiver = build_mckay(embedding_from_spec(GroupSpec.make(2, [(24, (1, 5, 18))])))
        lattice = enumerate_cut_lattice(quiver, (7, 11, 6))
        # New seed bounds pack every vector afresh, so each cut of the tree
        # is read off its slacks, and the CLI prints the walk's masks.
        bounds = mutation._Bounds(quiver, lattice.cut_type)
        fresh = MutationLattice(
            lattice.cut_type, tuple(map(bounds.pack, lattice.v_vectors)), bounds
        )
        expected = json.dumps(fresh.to_json(), indent=2) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("the dict tree or a cut was built")

        monkeypatch.setattr(MutationLattice, "to_json", refuse)
        monkeypatch.setattr(json, "dump", refuse)
        # The arrows are read off the v-vectors: no cut is built or sorted.
        monkeypatch.setattr(mutation._Bounds, "cut", refuse)
        monkeypatch.setattr(Cut, "sorted_arrows", refuse)
        code, out, _ = run_cli(
            capsys,
            ["--input", write_input(self.GROUP), "lattice", "--type", "7,11,6"],
        )
        assert code == 0
        assert_same_text(out, expected)

    def test_m30_digest_and_peak_memory(self, write_input):
        # 14,955 cuts and 65,424 Hasse edges, about 63 MB of JSON.  The
        # digests pin the bytes.  The JSON bound fails if the lattice keeps
        # a Cut per member again, which took the CLI's peak RSS to about
        # 109 MiB; the DOT bound fails if the edges are stored or the DOT
        # text is built whole again, which took it to about 40 MiB.  A
        # child's peak RSS starts at that of the process it was forked
        # from, so the CLI is started from a small intermediate process,
        # not from pytest.
        group = {"n": 2, "generators": [{"order": 30, "weights": [1, 5, 24]}]}
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        path = write_input(group)
        for extra, bound_mib in (([], 64), (["--format", "dot"], 32)):
            command = ["lattice", "--type", "8,10,12", *extra]
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_RSS_PROBE,
                 sys.executable, "-m", "mckaycuts.cli", "--input", path, *command],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            code, digest, peak_kib = proc.stdout.split()
            assert code == "0"
            assert digest == record_golden.find_row(GOLDEN, "c30", command)["sha256"]
            assert int(peak_kib) < bound_mib * 1024, command

    @pytest.mark.parametrize("group, command, read", [
        # About 6 MB of output, more than a pipe buffer holds.
        (GROUP, ["lattice", "--type", "7,11,6"], 100),
        # A short output still in the stdout buffer when the reader is gone.
        (THIRD, ["types"], 0),
        # About 3.5 MB, streamed in chunks as the lattice is.
        (C300, ["construct", "--type", C300_TYPE], 100),
        # About 340 KB of DOT, streamed line by line.
        (GROUP, ["lattice", "--type", "7,11,6", "--format", "dot"], 100),
    ])
    def test_closed_pipe_exits_141_quietly(self, write_input, group, command, read):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "mckaycuts.cli",
             "--input", write_input(group), *command],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""  # no traceback, no "Exception ignored" at exit


# `verify` cases of the golden table: (group, extra arguments, cut file).
# Here the group and the cut are read from files, as a user passes them.
VERIFY_ROWS = {
    **{name: (name, [], None) for name in NAMED_SPECS},
    "twelfth_129": ("c12", [], None),
    "third_111_budget_0": ("third_111", ["--budget", "0"], None),
    "half_11_valid_cut": ("half_11", [], "half_11_valid"),
    "half_11_corrupted_cut": ("half_11", [], "half_11_corrupted"),
}


class TestVerify:
    @pytest.mark.parametrize("case", sorted(VERIFY_ROWS))
    def test_stdout_digest(self, capsys, write_input, case):
        group, extra, cut = VERIFY_ROWS[case]
        argv = ["--input", write_input(GOLDEN["groups"][group]), "verify", *extra]
        if cut is not None:
            argv += ["--cut", write_input(GOLDEN["cuts"][cut], name="cut.json")]
        row = record_golden.find_row(GOLDEN, group, ["verify", *extra], cut)
        code, out, _ = run_cli(capsys, argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            row["exit"], row["sha256"]
        )

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

    @pytest.mark.parametrize(
        "what, command, group, cut_type",
        [
            ("cut", "construct", THIRD, "1,1,1"),
            ("hasse", "lattice", QUARTER_112, "2,2,0"),
        ],
        ids=["cut", "hasse"],
    )
    def test_cut_and_hasse_are_the_dot_formats(
        self, capsys, write_input, what, command, group, cut_type
    ):
        path = write_input(group)
        exported = run_cli(
            capsys, ["--input", path, "export-dot", what, "--type", cut_type]
        )
        formatted = run_cli(
            capsys,
            ["--input", path, command, "--type", cut_type, "--format", "dot"],
        )
        assert exported == formatted
        assert exported[0] == 0 and exported[1].startswith("digraph")
