import re
from pathlib import Path

from mutants import MUTANTS, ROOT, SRC


def test_every_mutant_matches_its_source_once():
    # the rot check of the mutant list: it runs no mutant
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (SRC / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name


def test_every_mutant_names_tests_that_exist():
    for mutant in MUTANTS:
        for test in mutant.tests:
            path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
