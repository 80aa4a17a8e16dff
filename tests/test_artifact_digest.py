"""The artifact digest behind each change's same-outputs claim."""

import importlib.util
import os
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"
_spec = importlib.util.spec_from_file_location("artifact_digest", _PATH)
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


def test_reruns_print_identical_digests_of_every_command(capsys):
    cwd = os.getcwd()
    assert artifact_digest.main() == 0
    first = capsys.readouterr().out
    assert artifact_digest.main() == 0
    assert capsys.readouterr().out == first
    assert os.getcwd() == cwd
    lines = first.splitlines()
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    assert {path.split("/", 1)[0] for path in paths} == set(artifact_digest.COMMANDS)
    for command in artifact_digest.COMMANDS:
        assert f"{command}/config.ini" in paths
        assert f"{command}/run_summary.json" in paths
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
