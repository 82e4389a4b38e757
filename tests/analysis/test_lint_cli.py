"""repro-lint CLI behavior: exit codes, rule selection, JSON output."""

import json
import textwrap

from repro.analysis.cli import main

RACY_SNIPPET = """
import numpy as np
def jitter():
    return np.random.rand(3)
"""


def _write(tmp_path, code=RACY_SNIPPET):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(code))
    return target


def test_clean_tree_exits_zero(tmp_path, capsys):
    target = _write(tmp_path, "x = 1\n")
    assert main([str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_finding_exits_one(tmp_path, capsys):
    target = _write(tmp_path)
    assert main([str(target)]) == 1
    assert "unseeded-rng" in capsys.readouterr().out


def test_rule_selection(tmp_path):
    target = _write(tmp_path)
    assert main(["--rules", "blind-except", str(target)]) == 0
    assert main(["--rules", "unseeded-rng", str(target)]) == 1


def test_json_output(tmp_path, capsys):
    target = _write(tmp_path)
    assert main(["--json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "unseeded-rng"
    assert payload[0]["line"] == 4


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "hot-path-loop", "unseeded-rng", "set-iter-order",
        "uncharged-kernel", "untracked-pool-write", "blind-except",
    ):
        assert rule_id in out
