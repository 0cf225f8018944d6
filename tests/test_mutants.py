"""The persisted mutant list of ``tests/mutants.py`` keeps up with the
code: each fragment occurs exactly once in its module, and each node id
it expects to fail names a test that exists.  The mutant runs themselves
stay outside Tier-1 (``python tests/mutants.py``)."""

import pathlib

import nlie
from mutants import MUTANTS

TESTS = pathlib.Path(__file__).parent


def test_each_mutant_fragment_occurs_once():
    package = pathlib.Path(nlie.__file__).parent
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (package / m.module).read_text().count(m.fragment) == 1, \
            m.name
        assert m.replacement != m.fragment and m.kills, m.name
        for node in m.kills:
            path, test = node.split("::")
            assert f"def {test.split('[')[0]}(" in \
                (TESTS.parent / path).read_text(), node
