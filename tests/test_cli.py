"""The command-line interface: commands, schemas, exit codes, cache."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_checks import _flip_descent_branch

from zerohecke import checks, cli, kmodule, weyl
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


# json.loads raises RecursionError, not ValueError, on the deeply nested one
@pytest.mark.parametrize("junk", [
    "[]", "null", "42", '"text"', pytest.param("[" * 200_000, id="deeply-nested"),
])
def test_enumerate_non_object_cache_regenerates(tmp_path, capsys, junk):
    argv = ("enumerate", "--type", "A", "--rank", "2", "--max-length", "2",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)
    (cache_file,) = tmp_path.glob("ball-A2-N2.json")
    cache_file.write_text(junk)  # not a JSON object
    code, out2, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out2 == out1
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


@pytest.mark.parametrize("elements", [
    [[42]], [["x"]], 5, [5], [[{"lambda": [0, 0], "word": 5}]],
    [[{"lambda": 5, "word": []}]], [[{"lambda": [0, "a"], "word": []}]],
    [], [[{"lambda": [0, 0], "word": []}]],
    *([[{"lambda": [0, 0], "word": []}], [], [junk]] for junk in (
        42, {"word": [], "lambda": [0, 0]}, {"lambda": [0, 0], "word": [3]},
        {"lambda": ["0", 0], "word": []}, {"lambda": [0, 0], "word": [], "extra": 1})),
])
def test_enumerate_malformed_elements_with_matching_hash_regenerate(
        tmp_path, capsys, elements):
    argv = ("enumerate", "--type", "A", "--rank", "2", "--max-length", "2",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)
    (cache_file,) = tmp_path.glob("ball-A2-N2.json")
    body = json.loads(cache_file.read_text())
    del body["hash"]
    body["elements"] = elements
    cache_file.write_text(json.dumps({**body, "hash": cli._digest(body)}))
    code, out2, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out2 == out1
    assert json.loads(cache_file.read_text())["elements"] != elements


def test_indented_cache_still_hits(tmp_path, capsys):
    # the cache is written compact; an indented file with the same body hits,
    # since the hash is taken over the canonical body
    argv = ("enumerate", "--type", "G", "--rank", "2", "--max-length", "3",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)
    (cache_file,) = tmp_path.glob("ball-G2-N3.json")
    compact = cache_file.read_text()
    assert "\n" not in compact
    indented = json.dumps(json.loads(compact), indent=2)
    cache_file.write_text(indented)
    code, out2, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out2 == out1
    assert cache_file.read_text() == indented  # a hit: the file was not rewritten


def test_warm_enumerate_builds_no_element(tmp_path, capsys, monkeypatch):
    argv = ("enumerate", "--type", "C", "--rank", "2", "--max-length", "3",
            "--cache", str(tmp_path))
    _, out1, _ = run(capsys, *argv)

    def forbidden(*args, **kwargs):
        raise AssertionError("a cache hit built an element")

    monkeypatch.setattr(weyl, "from_word", forbidden)
    monkeypatch.setattr(weyl, "element_from_jsonable", forbidden)
    code, out2, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out2 == out1


def test_cold_enumerate_serializes_each_element_once(tmp_path, capsys, monkeypatch):
    calls = []
    to_jsonable = weyl.element_to_jsonable

    def counted(x):
        calls.append(x)
        return to_jsonable(x)

    monkeypatch.setattr(weyl, "element_to_jsonable", counted)
    code, out, _ = run(capsys, "enumerate", "--type", "C", "--rank", "2",
                       "--max-length", "3", "--cache", str(tmp_path))
    assert code == EXIT_OK
    ball = [x for shell in weyl.enumerate_ball(cli.build_root_system("C", 2), 3)
            for x in shell]
    assert sum(g["count"] for g in json.loads(out)) == len(ball)
    assert len(calls) == len(ball) and set(calls) == set(ball)


def test_enumerate_cache_under_a_regular_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, out, err = run(capsys, "enumerate", "--max-length", "2", "--cache", str(blocker))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot write cache file {blocker / 'ball-A2-N2.json'}: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == ""


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


def test_empty_expression_is_a_usage_error():
    with pytest.raises(cli.UsageError, match="empty expression"):
        cli.evaluate_expression(cli.build_root_system("A", 1), 3, [])


def test_compute_unknown_operation(capsys):
    code, _, err = run(capsys, "compute", "--rank", "1", "frobnicate", "[0]")
    assert code == EXIT_USAGE and "unknown operation" in err


def test_compute_wrong_operand_kinds(capsys):
    code, _, err = run(capsys, "compute", "--rank", "1", "len", "Y[0]")
    assert code == EXIT_USAGE and "expects operands" in err


@pytest.mark.parametrize("argv,line", [
    (("--rank", "1", "frobnicate", "[0]"),
     "parse error at token 0 ('frobnicate'): unknown operation"),
    (("--rank", "1", "len", "Y[0]"), "operation 'len' expects operands (element), got hecke"),
    (("--rank", "1", "xi-inv", "Y[0]"),
     "operation 'xi-inv' expects operands (schubert), got hecke"),
    (("--rank", "1", "len", "[0]", "[1]"),
     "operation 'len' expects operands (element), got element, element"),
    (("--rank", "1", "len"), "operation 'len' expects operands (element), got nothing"),
    (("--rank", "1", "mul", "[0]"),
     "operation 'mul' expects operands (element, element), got element"),
    (("--rank", "1", "hecke-mul", "Y[0]"),
     "operation 'hecke-mul' expects two or more Y[..] operands"),
    (("--rank", "1", "hecke-mul", "Y[0]", "S[1]"),
     "operation 'hecke-mul' expects two or more Y[..] operands"),
    (("--rank", "1", "len", "[0,1"),
     "parse error at token 1 ('[0,1'): expected [..], e{..}, Y[..] or S[..]"),
    (("--rank", "1", "len", "[0,,1]"),
     "parse error at token 1 ('[0,,1]'): expected comma-separated integers"),
    (("--rank", "1", "len", "[9]"),
     "parse error at token 1 ('[9]'): generator index 9 out of range 0..1"),
    (("--rank", "2", "theta", "e{1}"),
     "parse error at token 1 ('e{1}'): coweight needs 2 coordinates"),
    (("--rank", "2", "theta", "e{-1,0}"),
     "precondition violated: theta needs a dominant coweight, got [-1, 0]"),
    # operands are parsed before the operation is looked up
    (("--rank", "1", "bogus", "[9]"),
     "parse error at token 1 ('[9]'): generator index 9 out of range 0..1"),
    # an item is an optional minus and ASCII digits: no plus, underscore or other digits
    (("--rank", "2", "len", "[+1]"),
     "parse error at token 1 ('[+1]'): expected comma-separated integers"),
    (("--rank", "2", "len", "[\u0661]"),
     "parse error at token 1 ('[\u0661]'): expected comma-separated integers"),
    (("--rank", "2", "len", "[1_0]"),
     "parse error at token 1 ('[1_0]'): expected comma-separated integers"),
    (("--rank", "2", "theta", "e{+1,0}"),
     "parse error at token 1 ('e{+1,0}'): expected comma-separated integers"),
])
def test_expression_usage_error_lines_are_pinned(capsys, argv, line):
    assert run(capsys, "compute", *argv) == (EXIT_USAGE, "", f"error: {line}\n")


def test_operand_items_may_carry_surrounding_spaces(capsys):
    assert run(capsys, "compute", "--rank", "2", "len", "[0, 1]") == (EXIT_OK, "2\n", "")
    assert run(capsys, "compute", "--rank", "2", "theta", "e{ 1 , 1 }")[0] == EXIT_OK
    assert run(capsys, "compute", "--rank", "2", "len", "[ 0,\t1\t]") == (EXIT_OK, "2\n", "")
    assert run(capsys, "compute", "--rank", "2", "theta", "e{\t1 ,1 }")[0] == EXIT_OK


# no-break, em and ideographic space: Unicode-aware \s, strip() and int() accept them
@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"])
@pytest.mark.parametrize("op,token", [
    ("len", "[0,{s}1]"), ("len", "[{s}0,1]"), ("len", "[0,1{s}]"), ("len", "[{s}]"),
    ("theta", "e{{1,{s}1}}"), ("theta", "e{{{s}1,1}}"), ("theta", "e{{1,1{s}}}"),
])
def test_operand_spaces_are_ascii_only(capsys, space, op, token):
    token = token.format(s=space)
    assert run(capsys, "compute", "--rank", "2", op, token) == (
        EXIT_USAGE, "",
        f"error: parse error at token 1 ({token!r}): expected comma-separated integers\n")


def _twisted(coeff, sign: int, p: int):
    """A printed coefficient with each residue multiplied by sign, mod p."""
    if isinstance(coeff, int):
        return coeff * sign % p
    return [{"exp": t["exp"], "coeff": t["coeff"] * sign % p} for t in coeff]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("p", [3, 5])
def test_ytilde_basis_relabels_hecke_output_only(capsys, rank, p):
    # hecke-mul, theta and xi-inv print Hecke elements, whose Ytilde labels
    # carry the sign (-1)^length(elem); every other operation ignores --basis
    system = cli.build_root_system("A", rank)
    top = ",".join(map(str, range(rank + 1)))
    signed = [("hecke-mul", "Y[0]", "Y[0]"), ("hecke-mul", f"Y[{top}]", "Y[1]", "Y[0]"),
              ("theta", "e{" + ",".join(["1"] * rank) + "}"),
              ("xi-inv", "S[0]"), ("xi-inv", f"S[{top}]"), ("xi-inv", "S[1,0]")]
    unsigned = [("xi", "Y[0]"), ("xi", f"Y[{top}]"), ("demazure", "S[1]", f"[{top}]"),
                ("pullback", "e{" + ",".join(["-1"] * rank) + "}"), ("specialize", "S[0]"),
                ("len", f"[{top}]"), ("mul", "[0]", f"[{top}]")]

    def compute(basis, *expression):
        code, out, err = run(capsys, "compute", "--rank", str(rank), "--prime", str(p),
                             "--basis", basis, *expression)
        assert code == EXIT_OK, err
        return out

    odd_terms = 0
    for expression in signed:
        terms = json.loads(compute("Y", *expression))
        signs = [(-1) ** weyl.length(weyl.element_from_jsonable(system, t["elem"]))
                 for t in terms]
        odd_terms += signs.count(-1)
        assert json.loads(compute("Ytilde", *expression)) == [
            {"elem": t["elem"], "coeff": _twisted(t["coeff"], sign, p)}
            for t, sign in zip(terms, signs)
        ], expression
    assert odd_terms  # the relabelling is not the identity on these outputs
    for expression in unsigned:
        assert compute("Ytilde", *expression) == compute("Y", *expression), expression


def _grammar_operations(text: str) -> set:
    """The operations a grammar block names: the first word of each | alternative."""
    block = text[re.search(r"element\s+::=", text).start():text.index("Operators act on the right")]
    return {alternative.split()[0] for line in block.splitlines()
            if line.strip() and "::=" not in line and "```" not in line
            for alternative in line.split("|")}


def test_documented_grammar_names_exactly_the_operations():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    operations = set(cli._OPERATIONS) | {"hecke-mul"}
    assert _grammar_operations(readme) == operations
    assert _grammar_operations(cli.__doc__) == operations


def test_documented_check_suites_are_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"`check` suites: `([^`]*)`", readme).group(1).split()
    assert listed == [*checks.SUITES, "all"]


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


def test_check_respects_max_elements(capsys):
    # the braid suite reads the N-ball: 166 elements on A2 at N=10, 19 at N=3
    argv = ("check", "braid", "--type", "A", "--rank", "2")
    code, out, err = run(capsys, *argv, "--max-length", "10", "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert out == "" and err.startswith("error:") and "exceeded 10" in err
    code, out, _ = run(capsys, *argv, "--max-length", "3", "--max-elements", "19")
    assert code == EXIT_OK and json.loads(out)["failures"] == []


def test_length_formula_respects_max_elements(capsys):
    # 7^8 candidate coweights on E8 at N=6, above the default bound
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "length-formula", "--type", "E", "--rank", "8",
                         "--max-length", "6")
    assert code == EXIT_RESOURCE and out == "" and err.startswith("error:")
    assert time.perf_counter() - t0 < 1.0



def test_coweight_suites_respect_max_elements(capsys):
    # theta scans 4^8 and spherical 5^8 candidate coweights on E8 at N=4
    for name in ("theta", "spherical"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", name, "--type", "E", "--rank", "8",
                             "--max-length", "4", "--max-elements", "10")
        assert code == EXIT_RESOURCE and out == "" and err.startswith("error:")
        assert time.perf_counter() - t0 < 1.0

def test_rank_above_bound_is_a_usage_error(tmp_path, capsys):
    argv = ("enumerate", "--type", "A", "--max-length", "1", "--cache", str(tmp_path))
    for rank in (33, 3000):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--rank", str(rank))
        assert code == EXIT_USAGE and out == "" and "--rank" in err
        assert time.perf_counter() - t0 < 1.0
    code, out, _ = run(capsys, *argv, "--rank", "32")
    assert code == EXIT_OK and [g["count"] for g in json.loads(out)] == [1, 33]


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


@pytest.mark.parametrize("lie_type,rank,n", [("A", 2, 6), ("C", 2, 5), ("G", 2, 6),
                                              ("B", 3, 4)])
def test_graph_edges_are_the_bruhat_covers(lie_type, rank, n):
    # the deletion edges against every Bruhat-comparable pair of adjacent shells
    system = cli.build_root_system(lie_type, rank)
    shells = weyl.enumerate_ball(system, n)
    index = {x: k for k, x in enumerate(x for shell in shells for x in shell)}
    covers = sorted((index[u], index[w]) for below, shell in zip(shells, shells[1:])
                    for u in below for w in shell if weyl.bruhat_leq(u, w))
    dot = cli.bruhat_dot(system, n, 10_000)
    edges = [tuple(int(m) for m in re.findall(r"n(\d+)", line))
             for line in dot.splitlines() if "->" in line]
    assert edges == covers


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


def test_out_of_range_letter_anywhere_is_a_usage_error(capsys):
    for word in ("[3]", "[0,1,-1]", "[" + ",".join(["0,1,2"] * 100) + ",3,1]"):
        for argv in (("len", word), ("bruhat", "[]", word), ("hecke-mul", "Y[0]", f"Y{word}"),
                     ("demazure", "S[]", word)):
            code, out, err = run(capsys, "compute", "--rank", "2", *argv)
            assert code == EXIT_USAGE and out == "", argv
            assert err.startswith("error:") and "out of range" in err, argv


@pytest.mark.parametrize("argv", [
    ("enumerate", "--max-length", "-1"),
    ("compute", "--format", "dot", "len", "[0]"),
    ("enumerate", "--format", "dot", "--max-length", "1"),
    ("check", "braid", "--format", "dot", "--max-length", "1"),
    ("compute", "len", "[a]"),
    ("compute", "--rank", "2", "theta", "e{1}"),
    ("compute", "hecke-mul", "Y[0]"),
    ("compute", "hecke-mul", "Y[0]", "S[1]"),
])
def test_usage_errors_exit_two_on_one_line(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == EXIT_USAGE and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert "Traceback" not in err


def test_unexpected_error_is_one_line_usage_exit(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_compute", boom)
    code, out, err = run(capsys, "compute", "--rank", "1", "len", "[0]")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_closed_stdout_is_no_error(tmp_path):
    # a reader that stops after one line, like `| head -1`: the rest of the
    # ~100 kB ball meets a closed pipe, which is neither an error nor a traceback
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "zerohecke.cli", "enumerate", "--rank", "2",
            "--max-length", "24", "--cache", str(tmp_path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == "" and code == EXIT_OK


def test_warm_cache_respects_max_elements(tmp_path, capsys):
    argv = ("enumerate", "--rank", "2", "--max-length", "10", "--cache", str(tmp_path))
    code, _, _ = run(capsys, *argv, "--max-elements", "10")
    assert code == EXIT_RESOURCE
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, out, err = run(capsys, *argv, "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert out == "" and err.startswith("error:")


def test_max_elements_below_one_is_a_usage_error(tmp_path, capsys):
    # the same command exits 2 with a cold cache and with a warm one
    argv = ("enumerate", "--max-length", "0", "--cache", str(tmp_path))
    code, out, err = run(capsys, *argv, "--max-elements", "0")
    assert code == EXIT_USAGE and out == "" and "--max-elements" in err
    assert run(capsys, *argv)[0] == EXIT_OK  # warms the cache
    code, out, err = run(capsys, *argv, "--max-elements", "0")
    assert code == EXIT_USAGE and out == "" and "--max-elements" in err
    for command in ("enumerate", "graph"):
        code, out, err = run(capsys, command, "--max-length", "2", "--cache", str(tmp_path),
                             "--max-elements", "-1")
        assert code == EXIT_USAGE and out == "", (command, err)
        assert err.startswith("error:") and "--max-elements" in err


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


def test_single_term_outputs_skip_the_sort_key(capsys):
    # a one-term map is printed without the reduced word of its key
    for argv in (("pullback", "e{-2000000,0}"), ("theta", "e{2000000,2000000}")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "compute", "--type", "A", "--rank", "2", *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == EXIT_OK, err
        assert len(json.loads(out)) == 1


# -- canonical words: output pinned byte for byte ---------------------------------


def _stdout_sha256(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return hashlib.sha256(out.encode()).hexdigest()


def test_enumerate_and_graph_output_is_pinned(tmp_path, capsys):
    # the order of each shell and every printed word are the canonical ones
    pinned = {
        ("enumerate", "A", "2", "10"):
            "6baf6a7bf945afad2a2901f666441a5d3bc3b3f1e74c4d876b114ddfc4623120",
        ("enumerate", "E", "8", "3"):
            "3ed9fdc5d484e6340e233ebd8f58ae80b8db1c5be8172ebd416c7c9a32ce8421",
        ("graph", "A", "2", "5"):
            "e6645b44b773e421fa8d3913747e64203b61a850e70ffd41d2484d8cab2bbbb6",
        ("graph", "C", "2", "4"):
            "4b2bc7d3684e56edefe2d21df428bb2239b1846770e2c4a96f5c953e28e48046",
        ("graph", "G", "2", "5"):
            "2cebf207af3014c87fcb0c63ddb57181832b1f71562f8357827a4bb6320070db",
        ("graph", "B", "3", "5"):
            "8a90da1a662716897b9c4b232b891e0f3cf2829881302b40485a9c5f5236c8ba",
        ("graph", "D", "4", "4"):
            "c5e3b46b6490d3145f3fbb3b0abd43a6c195845951ba464138d119126730dbdb",
        ("graph", "E", "8", "4"):
            "0dd4f68c07ed4b9c8e33113962c07d9d41e96d04bf02a8e50301542301e840c0",
    }
    for (command, lie_type, rank, n), digest in pinned.items():
        argv = (command, "--type", lie_type, "--rank", rank, "--max-length", n,
                "--cache", str(tmp_path))
        assert _stdout_sha256(capsys, *argv) == digest, argv


# -- the writer: json.dumps(indent=2) text, one join per container ----------------

_LEAVES = (st.none() | st.booleans() | st.floats()
           | st.integers(min_value=-(2**80), max_value=2**80) | st.text())
_VALUES = st.recursive(
    _LEAVES | st.lists(st.integers(min_value=-(2**80), max_value=2**80))
    | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


@given(_VALUES)
@example([1, True, False, 0])
@example(({"a": (1, -2)}, (), [[]], {}, ([(),],)))
@example({"\"\\\x00\x1fé \U0001f600": [-0.0, math.nan, math.inf, -math.inf],
          "big": [2**64, -(2**64) - 1, 10**30], "": [None, True, "x\ty"]})
@settings(max_examples=100, deadline=None)
def test_writer_is_json_dumps_indent_two(value):
    assert cli._dump(value) == json.dumps(value, indent=2)


def _written(monkeypatch, capsys, *argv):
    """The one value the command hands the writer, once its text is checked to be
    json.dumps(value, indent=2) and to be what the command printed."""
    values, dump = [], cli._dump

    def spy(data):
        values.append(data)
        return dump(data)

    monkeypatch.setattr(cli, "_dump", spy)
    code, out, err = run(capsys, *argv)
    (value,) = values
    assert out == json.dumps(value, indent=2) + "\n", (argv, err)
    return code, value


_OPERAND_TOKENS = {"element": "[0,1,2,1]", "coweight": "e{1,1}", "hecke": "Y[0,1,2]",
                   "schubert": "S[1,2,0]"}


@pytest.mark.parametrize("op", [*cli._OPERATIONS, "hecke-mul"])
def test_every_operation_is_written_as_json_dumps(monkeypatch, capsys, op):
    kinds = ("hecke", "hecke", "hecke") if op == "hecke-mul" else cli._OPERATIONS[op][0]
    code, _ = _written(monkeypatch, capsys, "compute", "--rank", "2", op,
                       *map(_OPERAND_TOKENS.get, kinds))
    assert code == EXIT_OK


def test_enumerate_groups_and_check_reports_are_written_as_json_dumps(
        tmp_path, monkeypatch, capsys):
    code, groups = _written(monkeypatch, capsys, "enumerate", "--type", "G", "--rank", "2",
                            "--max-length", "4", "--cache", str(tmp_path))
    assert code == EXIT_OK and [g["length"] for g in groups] == [0, 1, 2, 3, 4]
    code, reports = _written(monkeypatch, capsys, "check", "all", "--max-length", "3")
    assert code == EXIT_OK and len(reports) == len(checks.SUITES)
    monkeypatch.setattr(kmodule, "demazure_basis_target", _flip_descent_branch)
    code, reports = _written(monkeypatch, capsys, "check", "all", "--max-length", "3")
    assert code == EXIT_CHECK_FAILED and any(r["failures"] for r in reports)
