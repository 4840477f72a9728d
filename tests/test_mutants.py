"""The mutation check's edits: every one still applies to the source as it stands."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_applies_and_compiles(tmp_path):
    # mutants.apply raises SystemExit on an edit whose text is not found the
    # stated number of times, and on a mutated file that does not compile
    for name, edits in mutants.MUTANTS.items():
        tree = tmp_path / name
        for file in {file for file, *_ in edits}:
            (tree / file).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / file, tree / file)
        try:
            mutants.apply(tree, edits)
        except SystemExit as exc:
            pytest.fail(f"{name}: {exc}")


def test_the_mutation_run_leaves_this_file_out():
    # on a mutated tree the check above fails for every mutant, so it kills none
    assert "tests/test_mutants.py" not in mutants.TESTS
    assert mutants.TESTS[-1] == "tests/test_acceptance.py"
