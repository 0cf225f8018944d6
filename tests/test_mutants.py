"""The persisted mutant list of ``tests/mutants.py`` keeps up with the
code: each fragment occurs exactly once in its module, and each node id
it expects to fail names a test that exists.  The mutant runs themselves
stay outside Tier-1 (``python tests/mutants.py``); a faked run past the
time limit must be reported timed out."""

import pathlib
import subprocess

import mutants
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


def test_a_run_past_the_time_limit_is_timed_out(monkeypatch):
    """A mutant whose pytest run outlasts ``TIME_LIMIT`` is reported
    ``timed out``, never killed.  The runs are faked here, so no pytest
    process starts: the unmutated copy passes, the mutant's run times
    out."""
    limits = []

    def fake_run(args, **kwargs):
        limits.append(kwargs["timeout"])
        if len(limits) == 1:
            return subprocess.CompletedProcess(args, 0, "", "")
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    assert [verdict for _, verdict, _ in mutants.run(MUTANTS[:1])] \
        == ["timed out"]
    assert limits == [mutants.TIME_LIMIT] * 2
