"""The identity harness: its tiny corpus runs and repeats, and the full corpus
covers every suite, every compute operation and the check command."""

import importlib.util
import io
import json
from pathlib import Path

from zerohecke import checks, cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _records(tmp_path, name):
    out = io.StringIO()
    identity.run((ROOT / "src").resolve(), True, out)
    path = tmp_path / name
    path.write_text(out.getvalue())
    return path, [json.loads(line) for line in out.getvalue().splitlines()]


def test_tiny_corpus_repeats_and_compares(tmp_path, capsys):
    first, records = _records(tmp_path, "first.jsonl")
    second, again = _records(tmp_path, "second.jsonl")
    assert records == again and len(records) == 9
    assert all(len(rec["sha256"]) == 64 for rec in records)
    assert identity.compare(first, second) == 0
    changed = records[0]["name"]
    second.write_text("".join(json.dumps({**rec, "sha256": "0" * 64} if rec["name"] == changed
                                         else rec) + "\n" for rec in again))
    capsys.readouterr()
    assert identity.compare(first, second) == 1
    assert capsys.readouterr().out.splitlines() == [changed]


def test_full_corpus_names_every_suite_and_operation():
    names = [name for name, _ in identity.corpus(list(checks.SUITES))]
    for suite in checks.SUITES:
        assert any(name.startswith(f"suite {suite} ") for name in names), suite
    for suite in identity.BROKEN_SUITES:
        for rule in identity.BROKEN_RULES:
            assert any(name.startswith(f"broken {rule} {suite} ") for name in names)
    # "cli compute --type T --rank R --prime P <operation> <operands...>"
    operations = {name.split()[8] for name in names if name.startswith("cli compute ")}
    assert operations == {*cli._OPERATIONS, "hecke-mul"}  # the variadic one, apart
    assert any(name.startswith("cli graph ") for name in names)
    assert any(name.startswith("cli check ") for name in names)
    assert any(name.startswith("cli enumerate --type E --rank 8 --max-length 6") for name in names)
