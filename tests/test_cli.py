"""The command-line interface: commands, schemas, exit codes, cache."""

import json
import re
import time

from zerohecke import cli, kmodule, weyl
from zerohecke.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- enumerate -------------------------------------------------------------------


def test_enumerate_a1(tmp_path, capsys):
    code, out, _ = run(
        capsys, "enumerate", "--type", "A", "--rank", "1",
        "--max-length", "2", "--cache", str(tmp_path),
    )
    assert code == EXIT_OK
    groups = json.loads(out)
    assert [g["count"] for g in groups] == [1, 2, 2]
    assert sum(g["count"] for g in groups) == 5


def test_enumerate_zero_ball(tmp_path, capsys):
    code, out, _ = run(
        capsys, "enumerate", "--rank", "1", "--max-length", "0",
        "--cache", str(tmp_path),
    )
    assert code == EXIT_OK
    groups = json.loads(out)
    assert len(groups) == 1 and groups[0]["count"] == 1


def test_enumerate_cache_hit_is_byte_identical(tmp_path, capsys):
    argv = ("enumerate", "--type", "C", "--rank", "2", "--max-length", "3",
            "--cache", str(tmp_path))
    code1, out1, _ = run(capsys, *argv)
    cache_files = list(tmp_path.glob("ball-C2-N3.json"))
    assert len(cache_files) == 1
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_enumerate_corrupt_cache_regenerates(tmp_path, capsys):
    argv = ("enumerate", "--type", "A", "--rank", "2", "--max-length", "2",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)
    (cache_file,) = tmp_path.glob("ball-A2-N2.json")
    cache_file.write_text(out1[: len(out1) // 2])  # truncated junk
    code, out2, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out2 == out1
    # and the file was healed
    data = json.loads(cache_file.read_text())
    assert data["maxlen"] == 2 and "hash" in data


def test_enumerate_stale_hash_regenerates(tmp_path, capsys):
    argv = ("enumerate", "--type", "A", "--rank", "2", "--max-length", "2",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)
    (cache_file,) = tmp_path.glob("ball-A2-N2.json")
    data = json.loads(cache_file.read_text())
    data["elements"][1] = data["elements"][1][:2]  # tamper without fixing hash
    cache_file.write_text(json.dumps(data))
    code, out2, _ = run(capsys, *argv)
    assert code == EXIT_OK and out2 == out1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--rank", "1", "--max-length", "1")
    assert code == EXIT_OK
    assert list(tmp_path.glob("ball-A1-N1.json"))


def test_enumerate_resource_bound(tmp_path, capsys):
    code, _, err = run(
        capsys, "enumerate", "--type", "A", "--rank", "2", "--max-length", "8",
        "--max-elements", "10", "--cache", str(tmp_path),
    )
    assert code == EXIT_RESOURCE
    assert "exceeded" in err


def test_enumerate_table_format(tmp_path, capsys):
    code, out, _ = run(
        capsys, "enumerate", "--rank", "1", "--max-length", "2",
        "--cache", str(tmp_path), "--format", "table",
    )
    assert code == EXIT_OK
    assert "length 0: 1 elements" in out


# -- compute --------------------------------------------------------------------


def test_compute_len(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "len", "[0,1]")
    assert code == EXIT_OK and json.loads(out) == 2


def test_compute_mul_inv_word(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "mul", "[0]", "[1]")
    assert code == EXIT_OK
    assert json.loads(out) == {"lambda": [1], "word": []}
    code, out, _ = run(capsys, "compute", "--rank", "1", "inv", "[0,1]")
    assert json.loads(out) == {"lambda": [-1], "word": []}
    code, out, _ = run(capsys, "compute", "--rank", "2", "word", "[1,1,2]")
    assert json.loads(out) == [2]


def test_compute_bruhat(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "bruhat", "[0]", "[0,1]")
    assert code == EXIT_OK and json.loads(out) is True


def test_compute_hecke_mul_idempotent(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "hecke-mul", "Y[0]", "Y[0]")
    assert code == EXIT_OK
    terms = json.loads(out)
    assert len(terms) == 1
    assert terms[0]["elem"] == {"lambda": [1], "word": [1]}


def test_compute_theta(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "theta", "e{1}")
    assert code == EXIT_OK
    terms = json.loads(out)
    assert terms[0]["elem"] == {"lambda": [1], "word": []}


def test_compute_theta_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "compute", "--rank", "2", "theta", "e{-1,0}")
    assert code == EXIT_USAGE
    assert "dominant" in err


def test_compute_demazure_and_xi(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "demazure", "S[]", "[0,1]")
    assert code == EXIT_OK
    assert json.loads(out)[0]["elem"] == {"lambda": [1], "word": []}
    code, out, _ = run(capsys, "compute", "--rank", "1", "xi", "Y[0,1]")
    assert json.loads(out)[0]["elem"] == {"lambda": [1], "word": []}
    code, out, _ = run(capsys, "compute", "--rank", "1", "xi-inv", "S[0]")
    assert json.loads(out)[0]["elem"] == {"lambda": [1], "word": [1]}


def test_compute_pullback_and_specialize(capsys):
    code, out, _ = run(capsys, "compute", "--rank", "1", "pullback", "e{-1}")
    assert code == EXIT_OK
    (term,) = json.loads(out)
    key = weyl.element_from_jsonable(cli.build_root_system("A", 1), term["elem"])
    assert weyl.length(key) == 3
    code, out, _ = run(capsys, "compute", "--rank", "1", "specialize", "S[0]")
    (term,) = json.loads(out)
    assert term["coeff"] == 1


def test_compute_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "compute", "--rank", "1", "len", "oops")
    assert code == EXIT_USAGE
    assert "token 1" in err and "oops" in err


def test_compute_unknown_operation(capsys):
    code, _, err = run(capsys, "compute", "--rank", "1", "frobnicate", "[0]")
    assert code == EXIT_USAGE and "unknown operation" in err


def test_compute_wrong_operand_kinds(capsys):
    code, _, err = run(capsys, "compute", "--rank", "1", "len", "Y[0]")
    assert code == EXIT_USAGE and "expects operands" in err


def test_bad_prime_rejected(capsys):
    code, _, err = run(capsys, "compute", "--prime", "6", "len", "[]")
    assert code == EXIT_USAGE and "not prime" in err


def test_bad_type_rejected(capsys):
    code, _, err = run(capsys, "compute", "--type", "Z", "len", "[]")
    assert code == EXIT_USAGE and "invalid root system" in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


# -- check ------------------------------------------------------------------------


def test_check_xi_passes(capsys):
    code, out, _ = run(
        capsys, "check", "xi", "--type", "A", "--rank", "2",
        "--max-length", "3", "--prime", "3",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["check_name"] == "xi" and report["failures"] == []


def test_check_all_table(capsys):
    code, out, _ = run(
        capsys, "check", "all", "--rank", "1", "--max-length", "2",
        "--format", "table",
    )
    assert code == EXIT_OK
    for name in ("braid", "words", "compose", "xi", "theta", "spherical",
                 "specialize", "bruhat-oracle", "length-formula"):
        assert re.search(rf"^{name}: ok ", out, re.MULTILINE)


def test_check_reports_failures_with_corrupted_rule(capsys, monkeypatch):
    monkeypatch.setattr(
        kmodule, "demazure_basis_target", lambda w, i: weyl._mul_gen(w, i)
    )
    code, out, _ = run(
        capsys, "check", "compose", "--rank", "2", "--max-length", "3",
    )
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["failures"]


# -- graph ------------------------------------------------------------------------


DOT_LINE = re.compile(
    r"^(digraph bruhat \{|\}|  rankdir=BT;|  n\d+ \[label=\"[es][.\w]*\"\];|  n\d+ -> n\d+;)$"
)


def test_graph_star(capsys):
    code, out, _ = run(capsys, "graph", "--rank", "2", "--max-length", "1")
    assert code == EXIT_OK
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(edges) == 3
    assert all(e.startswith("  n0 ->") for e in edges)


def test_graph_a1_ball3(capsys):
    code, out, _ = run(capsys, "graph", "--rank", "1", "--max-length", "3")
    assert code == EXIT_OK
    nodes = [l for l in out.splitlines() if "label=" in l]
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(nodes) == 7
    # each element of positive length covers every element one step below
    assert len(edges) == 2 + 4 + 4


def test_graph_output_is_well_formed_dot(capsys):
    _, out, _ = run(capsys, "graph", "--rank", "2", "--max-length", "2")
    lines = out.rstrip("\n").splitlines()
    assert lines[0] == "digraph bruhat {"
    assert lines[-1] == "}"
    for line in lines:
        assert DOT_LINE.match(line), line


def test_graph_determinism(capsys):
    _, out1, _ = run(capsys, "graph", "--rank", "2", "--max-length", "2")
    _, out2, _ = run(capsys, "graph", "--rank", "2", "--max-length", "2")
    assert out1 == out2


# -- robustness: every input maps to a documented exit code -------------------------


def test_bruhat_on_long_elements_answers(capsys):
    word = "[" + ",".join(["0,1,2,1"] * 300) + "]"
    code, out, err = run(capsys, "compute", "--rank", "2", "bruhat", word, word)
    assert code == EXIT_OK, err
    assert json.loads(out) is True


def test_unexpected_error_is_one_line_usage_exit(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_compute", boom)
    code, out, err = run(capsys, "compute", "--rank", "1", "len", "[0]")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_warm_cache_respects_max_elements(tmp_path, capsys):
    argv = ("enumerate", "--rank", "2", "--max-length", "10", "--cache", str(tmp_path))
    code, _, _ = run(capsys, *argv, "--max-elements", "10")
    assert code == EXIT_RESOURCE
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, out, err = run(capsys, *argv, "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert out == "" and err.startswith("error:")


def test_large_prime_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "compute", "--prime", "1000000000000000003", "len", "[0]")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK and json.loads(out) == 1


def test_prime_beyond_primality_bound_rejected(capsys):
    code, _, err = run(capsys, "compute", "--prime", "3317044064679887385961981",
                       "len", "[0]")
    assert code == EXIT_USAGE
    assert err.startswith("error:")
