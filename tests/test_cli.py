import json
import os
import subprocess
import sys

from click.testing import CliRunner

import helpers
import obstructa
from obstructa.cli import main
from obstructa.graphs import decode_graph6, encode_graph6


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


class TestCheck:
    def test_k4_is_a_wheel(self):
        res = run("check", "C~")
        assert res.exit_code == 0
        record = json.loads(res.output)
        assert record["wheel_free"] is False

    def test_theta_spec_is_obstruction(self):
        res = run("check", "theta:2,2,2")
        assert res.exit_code == 0
        assert json.loads(res.output)["hc_obstruction"] is True

    def test_k2_not_two_connected(self):
        res = run("check", "A_")
        assert res.exit_code == 0
        assert json.loads(res.output)["two_connected"] is False

    def test_parse_error_exit_2(self):
        assert run("check", "C\x07").exit_code == 2

    def test_too_large_exit_3(self):
        g = encode_graph6(helpers.cycle(17))
        assert run("check", g).exit_code == 3

    def test_spec_beyond_capacity_exit_3(self):
        # caught before the edge list is built, so a huge length is cheap
        for spec in ("theta:2,2,70", "wheel:99999999999@0,1,2", "shortprism:1,1,10000000000"):
            for command in ("check", "gen"):
                res = run(command, spec)
                assert res.exit_code == 3, (command, spec, res.output)
                assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_stdin_batch(self):
        lines = "C~\nA_\n"
        res = run("check", input=lines)
        assert res.exit_code == 0
        records = [json.loads(line) for line in res.output.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["hamiltonian"] is True

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        res = run("check", "--input", str(path))
        assert res.exit_code == 0
        assert json.loads(res.output)["two_connected"] is True


    def test_check_does_not_import_decompose(self):
        # a cold check process imports no module it does not call: the
        # decompose command imports obstructa.decompose itself
        src = os.path.dirname(os.path.dirname(obstructa.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = (
            "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('obstructa.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print('obstructa.decompose' in sys.modules)\n"
        )
        for command, imported in (("check", "False"), ("decompose", "True")):
            run = subprocess.run(
                [sys.executable, "-c", code, command, "theta:2,2,2"],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
                timeout=60,
                check=True,
            )
            assert run.stdout.splitlines()[-1] == imported, command


class TestGen:
    def test_theta_graph6(self):
        res = run("gen", "theta:2,2,2")
        assert res.exit_code == 0
        g = decode_graph6(res.output.strip())
        assert g.n == 5 and g.edge_count == 6

    def test_wheel_is_k4(self):
        res = run("gen", "wheel:3@0,1,2")
        assert res.exit_code == 0
        assert res.output.strip() == "C~"

    def test_double_theta_chord_exit_4(self):
        assert run("gen", "theta+12:2,2,2").exit_code == 4

    def test_short_variant_exit_4(self):
        assert run("gen", "prism:1,2,2").exit_code == 4

    def test_bad_spec_exit_2(self):
        assert run("gen", "noodle:1,2,3").exit_code == 2

    def test_repeated_hub_position_exit_2(self):
        # repeated hub positions are rejected like repeated chord digits,
        # never merged into a wheel with fewer spokes
        for command in ("gen", "check"):
            for spec in ("wheel:5@0,0,1,2", "wheel:6@0,2,4,2", "prism+11:2,2,2"):
                res = run(command, spec)
                assert res.exit_code == 2, (command, spec, res.output)
                assert res.stdout == ""
                assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_check_gen_round_trip(self):
        for spec in ("theta:2,2,3", "theta+1:2,2,2", "pyramid:2,2,2", "prism+1:2,2,2"):
            g6 = run("gen", spec).output.strip()
            record = json.loads(run("check", g6).output)
            assert record["recognized_3pc"] == spec

    def test_gen_recognize_round_trip_all_specs(self):
        # gen -> decode -> recognize equals the original canonical text for
        # the whole spec space up to 13 vertices
        from obstructa.families import all_specs_up_to, format_spec, recognize_3pc

        for spec in all_specs_up_to(13):
            text = format_spec(spec)
            res = run("gen", text)
            assert res.exit_code == 0
            g = decode_graph6(res.output.strip())
            assert format_spec(recognize_3pc(g)) == text


class TestHam:
    def test_cycle(self):
        res = run("ham", "Dhc")  # C5
        payload = json.loads(res.output)
        assert payload["found"] and len(payload["cycle"]) == 5

    def test_path_flag(self):
        res = run("ham", "--path", "theta:2,2,2")
        payload = json.loads(res.output)
        assert payload["found"] and len(payload["path"]) == 5


class TestIso:
    def test_theta_is_k23(self):
        g6 = encode_graph6(helpers.complete_bipartite(2, 3))
        res = run("iso", "theta:2,2,2", g6)
        assert json.loads(res.output)["isomorphic"] is True

    def test_not_isomorphic(self):
        res = run("iso", "C~", "C^")
        assert json.loads(res.output)["isomorphic"] is False


class TestDecompose:
    def test_trace_steps(self):
        res = run("decompose", "theta:3,3,3")
        assert res.exit_code == 0
        steps = json.loads(res.output)
        names = [s["step"] for s in steps]
        assert names[0] == "reduce_adjacent_degree2"
        assert "find_special_edges" in names
        assert "has_k4_minor" in names
        for s in steps:
            assert "input_n" in s and ("certificate" in s or "error" in s)

    def test_trace_on_non_two_connected(self):
        g6 = encode_graph6(helpers.path(4))
        res = run("decompose", g6)
        assert res.exit_code == 0
        steps = json.loads(res.output)
        assert steps[0].get("error") == "NotTwoConnected"

    def test_too_large_exit_3(self):
        # the cap is checked before the first step: K_17's clique listing
        # alone would be exponential
        res = run("decompose", encode_graph6(helpers.complete(17)))
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_theta_plus_ambiguous(self):
        res = run("decompose", "theta+1:2,2,2")
        steps = json.loads(res.output)
        errors = [s.get("error") for s in steps]
        assert "AmbiguousMidpoints" in errors


class TestVerifyAndCensus:
    def test_verify_small(self):
        res = run("verify", "--max-n", "5")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["counterexamples"] == []
        row5 = [r for r in payload["rows"] if r["n"] == 5][0]
        assert row5["hc_obstructions_wheel_free"] == 2

    def test_verify_csv(self):
        res = run("verify", "--max-n", "5", "--format", "csv")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0].startswith("n,")
        assert lines[5].startswith("5,34,10,")

    def test_verify_too_large_exit_3(self):
        # full generation is capped at 9 vertices; the cap is checked first
        for command in ("verify", "census"):
            res = run(command, "--max-n", "10")
            assert res.exit_code == 3, res.output
            assert res.output.strip() == "error: verification capped at 9 vertices"

    def test_negative_max_n_exit_3(self):
        # a negative size is an error, not an empty report; 0 stays empty
        for command in ("verify", "census"):
            res = run(command, "--max-n", "-3")
            assert res.exit_code == 3, res.output
            assert res.output.strip() == "error: vertex count must be nonnegative"
            res = run(command, "--max-n", "0")
            assert res.exit_code == 0
            assert json.loads(res.output) == {"counterexamples": [], "max_n": 0, "rows": []}

    def test_census_text(self):
        res = run("census", "--max-n", "4", "--format", "text")
        assert res.exit_code == 0
        assert "counterexamples: none" in res.output

    def test_census_json(self):
        res = run("census", "--max-n", "4")
        payload = json.loads(res.output)
        assert [r["all"] for r in payload["rows"]] == [1, 2, 4, 11]


class TestJobs:
    def assert_usage_error(self, res):
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert isinstance(res.exception, SystemExit)  # a clean exit, no traceback

    def test_env_not_an_integer(self):
        self.assert_usage_error(run("verify", "--max-n", "4", env={"OBSTRUCTA_JOBS": "abc"}))

    def test_env_zero(self):
        self.assert_usage_error(run("census", "--max-n", "4", env={"OBSTRUCTA_JOBS": "0"}))

    def test_flag_zero(self):
        self.assert_usage_error(run("verify", "--max-n", "4", "--jobs", "0"))

    def test_valid_env(self):
        res = run("verify", "--max-n", "4", env={"OBSTRUCTA_JOBS": "2"})
        assert res.exit_code == 0
