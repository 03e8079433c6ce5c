import copy
import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "oracle_diff.py"
_spec = importlib.util.spec_from_file_location("oracle_diff", TOOL)
oracle_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_diff)


def _row(q, ratio, ks):
    return {"q": q, "ratio": ratio, "l_one": 0.5,
            "moment": {"re": ratio * (q - 2) / 4.0, "im": 0.0},
            "n_witnesses": len(ks),
            "witnesses": [{"k": k, "twist_mag": 1.0, "dirichlet_mag": 1.0}
                          for k in ks]}


def _write(path, rows):
    path.write_text(json.dumps({"command": "scan",
                                "outputs": {"rows": rows}}))
    return str(path)


def test_oracle_diff_verdicts(tmp_path, capsys):
    rows = [_row(11, 0.9, [2, 8]), _row(13, 1.1, [2, 4, 6, 8, 10])]
    old = _write(tmp_path / "old.json", rows)

    same = copy.deepcopy(rows)
    same[0]["ratio"] += 5e-11
    same[1]["witnesses"].reverse()       # order does not matter, the set does
    assert oracle_diff.main([old, _write(tmp_path / "same.json", same)]) == 0
    out = capsys.readouterr().out
    assert "max |d ratio|: 5.00e-11 (q=11)" in out and "verdict: agree" in out

    moved = copy.deepcopy(rows)
    moved[1]["l_one"] += 1e-9
    assert oracle_diff.main([old, _write(tmp_path / "moved.json", moved)]) == 1

    swapped = copy.deepcopy(rows)
    swapped[0]["witnesses"][1]["k"] = 4
    assert oracle_diff.main([old, _write(tmp_path / "swap.json", swapped)]) == 1
    assert "differ at q=[11]" in capsys.readouterr().out

    assert oracle_diff.main([old, _write(tmp_path / "short.json", rows[:1])]) == 1
