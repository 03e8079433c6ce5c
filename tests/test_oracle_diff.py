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


def _moment_doc(**certs):
    doc = {"command": "moment", "inputs": {"q": 13, "witness_threshold": 1e-6},
           "outputs": _row(13, 1.1, [2, 4, 6, 8, 10]),
           "certificates": {"decomposition_residual": 2e-17,
                            "err_dirichlet": 2.0e-10, "err_twist": 3.3e-6,
                            "imag_residual": 8e-17}}
    doc["certificates"].update(certs)
    return doc


def test_oracle_diff_moment_verdicts(tmp_path, capsys):
    def verdict(doc):
        path = tmp_path / "new.json"
        path.write_text(json.dumps(doc))
        code = oracle_diff.main([str(old), str(path)])
        return code, capsys.readouterr().out

    old = tmp_path / "old.json"
    old.write_text(json.dumps(_moment_doc()))

    # the row as for a scan; bounds that shrink, and residuals that grow
    # (they are not bounds), still agree
    same = _moment_doc(err_twist=3.2e-6, imag_residual=9e-17)
    same["outputs"]["ratio"] += 2.0 ** -40     # exact: 9.09e-13
    same["outputs"]["witnesses"].reverse()
    code, out = verdict(same)
    assert code == 0 and "verdict: agree" in out
    assert "max |d ratio|: 9.09e-13 (q=13)" in out
    assert "err_twist: 3.300000e-06 -> 3.200000e-06" in out

    code, out = verdict(_moment_doc(err_twist=3.3e-6 * (1 + 1e-9)))
    assert code == 1 and "err_twist" in out and "GREW" in out
    assert verdict(_moment_doc(err_dirichlet=2.1e-10))[0] == 1
    moved = _moment_doc()
    moved["outputs"]["ratio"] += 1e-9
    assert verdict(moved)[0] == 1
    lost = _moment_doc()
    lost["outputs"]["witnesses"].pop()
    code, out = verdict(lost)
    assert code == 1 and "differ at q=[13]" in out
    other = _moment_doc()
    other["inputs"]["witness_threshold"] = 1e-3
    code, out = verdict(other)
    assert code == 1 and "inputs differ" in out

    voronoi = tmp_path / "voronoi.json"
    voronoi.write_text(json.dumps(_voronoi_doc()))
    assert oracle_diff.main([str(old), str(voronoi)]) == 2


def _voronoi_doc(**certs):
    doc = {"command": "voronoi", "inputs": {"q": 7, "d": 1, "N": 50},
           "outputs": {"q": 7, "d": 1, "N": 50,
                       "rhs": {"re": 0.25, "im": -0.5}, "residual": 8e-11,
                       "rhs_truncation": 16000,
                       "truncation_capped_at_reach": True,
                       "negative_control": False},
           "certificates": {"tail_certificate_plus": 3.2e-2,
                            "tail_certificate_minus": 8.3e-8,
                            "doubling_delta": 3.2e-12,
                            "data_error_bound": 1.4e-7}}
    doc["certificates"].update(certs)
    return doc


def test_oracle_diff_voronoi_verdicts(tmp_path, capsys):
    def verdict(doc):
        path = tmp_path / "new.json"
        path.write_text(json.dumps(doc))
        code = oracle_diff.main([str(old), str(path)])
        return code, capsys.readouterr().out

    old = tmp_path / "old.json"
    old.write_text(json.dumps(_voronoi_doc()))

    # rounding moves: the rhs in its last bits, doubling_delta (a difference
    # of two partial sums of the rhs) by 1e-3 relative, a certificate down
    same = _voronoi_doc(doubling_delta=3.203e-12, data_error_bound=1.3e-7)
    same["outputs"]["rhs"]["re"] += 2e-12
    same["outputs"]["residual"] += 3e-13
    code, out = verdict(same)
    assert code == 0 and "verdict: agree" in out
    assert "|d rhs|: 2.00e-12" in out and "|d residual|: 3.00e-13" in out
    assert "data_error_bound: 1.400000e-07 -> 1.300000e-07" in out

    moved = _voronoi_doc()
    moved["outputs"]["rhs"]["im"] += 1e-9
    assert verdict(moved)[0] == 1
    for key, value in (("rhs_truncation", 8000),
                       ("truncation_capped_at_reach", False),
                       ("negative_control", True)):
        flipped = _voronoi_doc()
        flipped["outputs"][key] = value
        code, out = verdict(flipped)
        assert code == 1 and f"{key}:" in out and "DIFFER" in out
    code, out = verdict(_voronoi_doc(tail_certificate_minus=8.3e-8 * (1 + 1e-9)))
    assert code == 1 and "GREW" in out
    assert verdict(_voronoi_doc(doubling_delta=2e-10))[0] == 1
    other_case = _voronoi_doc()
    other_case["inputs"]["N"] = 100
    assert verdict(other_case)[0] == 1

    scan = tmp_path / "scan.json"
    scan.write_text(json.dumps({"command": "scan", "outputs": {"rows": []}}))
    assert oracle_diff.main([str(old), str(scan)]) == 2
