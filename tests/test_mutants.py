import importlib.util
import pathlib


def test_every_mutant_snippet_occurs_once():
    # python tools/mutants.py runs the mutants; this only keeps the list in step with the code
    spec = importlib.util.spec_from_file_location("mutants", pathlib.Path(__file__).parents[1] / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS and mutants.EQUIVALENT
    assert mutants.snippet_problems() == []
