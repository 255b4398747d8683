import sys

import pytest

from artifact_corpus import DEMOS, read_digests, run_demo, versions, write_corpus


def test_every_artifact_keeps_its_recorded_digest(tmp_path):
    # the CLI runs and demos of artifact_corpus.py, which its docstring counts;
    # a change that moves an artifact's bytes on purpose records the digests
    # again (python tests/artifact_corpus.py --record OUT_DIR) and says why
    recorded, digests = read_digests()
    if versions() != recorded:
        pytest.skip(f"the digests were recorded on {recorded}, and this run has {versions()}")
    got = write_corpus(tmp_path)
    moved = [name for name in sorted(digests.keys() | got.keys())
             if digests.get(name) != got.get(name)]
    assert moved == [], f"artifacts whose digest moved: {moved}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_a_demo_prints_the_same_bytes_whatever_the_interpreter_is_called(tmp_path, demo):
    # the demos' digests are recorded under one interpreter path, so a demo
    # prints no path it was started from
    link = tmp_path / "otherpy"
    link.symlink_to(sys.executable)
    assert run_demo(demo, str(link)) == run_demo(demo)
