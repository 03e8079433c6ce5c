import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired_ops.py"


def test_paired_ops_runs_a_tree_against_itself():
    # two warm workers of this tree, two passes of two voronoi ops each
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
         "--workload", "voronoi", "--passes", "2", "--ops", "2"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = out.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["pass 0", "pass 1"]
    result = json.loads(lines[-1])
    assert (result["workload"], result["passes"], result["ops"]) == ("voronoi", 2, 2)
    assert 0 <= result["change_won"] <= 2
    for side in ("parent", "change"):
        s = result[side]
        assert 0 < s["q1"] <= s["median"] <= s["q3"] and s["setup_s"] > 0
        assert s["root"] == str(ROOT)


def test_paired_ops_rejects_a_directory_without_lmoment(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path), "--change",
         str(ROOT), "--workload", "voronoi", "--passes", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "no src/lmoment" in out.stderr
