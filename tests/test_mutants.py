from mutants import MUTANTS, ROOT, occurrences


def test_every_mutant_applies_once_and_names_existing_tests():
    """A refactor that removes a mutated line updates ``mutants.py`` with it."""
    assert [occurrences(m) for m in MUTANTS] == [1] * len(MUTANTS)
    for mutant in MUTANTS:
        for test in mutant.tests:
            path, *names = test.split("::")
            name = names[-1].split("[")[0]  # a parametrized case names its function
            assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
