"""The artifact digest behind each change's same-outputs claim."""

import hashlib
import importlib.util
import json
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
        summary = paths.index(f"{command}/run_summary.json")
        assert paths[summary + 1] == f"{command}/run_summary.json#results"
    assert sum(path.endswith("#results") for path in paths) == len(artifact_digest.COMMANDS)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


def test_results_line_ignores_only_the_config_echo(tmp_path):
    def results(payload):
        path = tmp_path / "run_summary.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2), encoding="utf-8")
        whole, echo_free = artifact_digest._lines(path, "ilc/run_summary.json")
        assert echo_free.endswith("  ilc/run_summary.json#results")
        return whole.split()[0], echo_free.split()[0]

    base = {"command": "ilc", "seed": 0, "final_mm": 0.5, "config_ini": "[experiment]\n"}
    whole, echo_free = results(base)
    # another echo: the file's digest moves, the results digest does not
    other_whole, other_free = results({**base, "config_ini": "[controller]\n"})
    assert other_whole != whole and other_free == echo_free
    # another result moves both
    moved_whole, moved_free = results({**base, "final_mm": 0.25})
    assert moved_whole != whole and moved_free != echo_free
    # any other file has one line only
    other = tmp_path / "curves.csv"
    other.write_bytes(b"a,b\n")
    digest = hashlib.sha256(b"a,b\n").hexdigest()
    assert artifact_digest._lines(other, "curves/curves.csv") == [
        f"{digest}  curves/curves.csv"]
