import contextlib
import io
import json
import math
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from lmoment.characters import primes_in_range
from lmoment.cli import run

DATA = "data/maass_even_13p77.txt"


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_chars_json_schema(capsys):
    doc = _run_json(capsys, ["chars", "--q", "11"])
    assert set(doc) == {"schema_version", "command", "inputs", "outputs",
                        "certificates", "runtime_ms"}
    assert doc["schema_version"] == "lmoment/1"
    assert doc["command"] == "chars"
    assert doc["runtime_ms"] is None
    assert doc["outputs"]["n_even_primitive"] == 4
    assert doc["certificates"]["max_orthogonality_residual"] < 1e-9


def test_gauss_certificates(capsys):
    doc = _run_json(capsys, ["gauss", "--q", "13"])
    assert doc["certificates"]["max_abs_square_residual"] < 1e-9
    assert len(doc["outputs"]["tau"]) == 12


def test_kloosterman_certificates(capsys):
    doc = _run_json(capsys, ["kloosterman", "--q", "7"])
    assert doc["certificates"]["min_weil_margin"] > 0
    assert doc["certificates"]["ramanujan_row_check"] == -1.0


def test_lvalue_with_oracle(capsys):
    doc = _run_json(capsys, ["lvalue", "--q", "11", "--k", "2"])
    assert doc["certificates"]["afe_vs_conj_oracle"] < 1e-8


def test_lvalue_twist(capsys):
    doc = _run_json(capsys, ["lvalue", "--q", "11", "--k", "2",
                             "--twist", "--data", DATA])
    assert doc["certificates"]["cutoff_doubling_delta"] < 1e-8


def test_moment_real_data(capsys):
    doc = _run_json(capsys, ["moment", "--q", "13", "--data", DATA])
    assert doc["certificates"]["imag_residual"] < 1e-10
    assert doc["certificates"]["decomposition_residual"] < 1e-10
    assert doc["outputs"]["n_characters"] == 5


def test_exit_codes(capsys):
    assert run(["nonsense"]) == 1                       # unknown command
    assert run(["chars", "--q", "10"]) == 1             # composite modulus
    assert run(["chars", "--q", "11", "--format", "csv"]) == 1
    assert run(["moment", "--q", "11", "--workers", "0"]) == 1
    assert run(["moment", "--q", "11"]) == 1            # no data source
    assert run(["moment", "--q", "11", "--data", "/no/such/file"]) == 2
    # a random multiplicative mock fails the series-acceleration certificate
    assert run(["moment", "--q", "11", "--mock", "--seed", "5"]) == 3


def test_scan_csv_projection(capsys):
    code = run(["scan", "--qmin", "5", "--qmax", "20", "--data", DATA,
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("q,moment_re,moment_im,main_term,ratio")
    assert len(lines) == 1 + 6    # primes 5 7 11 13 17 19


def test_out_file_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["scan", "--qmin", "5", "--qmax", "20", "--data", DATA,
                "--out", str(a)]) == 0
    assert run(["scan", "--qmin", "5", "--qmax", "20", "--data", DATA,
                "--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_data(capsys):
    doc = _run_json(capsys, ["check-data", "--data", DATA])
    assert doc["outputs"]["pmax"] == 16000
    assert doc["certificates"]["average_bound_flagged"] is False
    assert doc["certificates"]["l_one_disagreement"] < 1e-5


def _one_line_error(capsys, argv, code):
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_bad_arguments_fail_before_loading_data(tmp_path, capsys):
    # --data names a missing file: reading it would exit 2, so exit 1 shows
    # that the arguments were rejected first
    missing = "/no/such/file"
    err = _one_line_error(capsys, ["voronoi", "--q", "7", "--d", "1",
                                   "--N", "0", "--data", missing], 1)
    assert err.startswith("usage error:")
    _one_line_error(capsys, ["scan", "--qmin", "300", "--qmax", "100",
                             "--data", missing], 1)
    out = tmp_path / "no_dir" / "scan.json"
    _one_line_error(capsys, ["scan", "--qmin", "5", "--qmax", "20",
                             "--data", missing, "--out", str(out)], 1)
    _one_line_error(capsys, ["chars", "--q", "11", "--out", str(tmp_path)], 1)
    err = _one_line_error(capsys, ["voronoi", "--q", "7", "--d", "1", "--N",
                                   "50", "--data", missing, "--format", "csv"], 1)
    assert "--format csv is only available for scan" in err
    # a composite modulus, and a d that q divides
    for argv in (["voronoi", "--q", "10", "--d", "1", "--N", "50"],
                 ["voronoi", "--q", "7", "--d", "7", "--N", "50"],
                 ["moment", "--q", "100"]):
        err = _one_line_error(capsys, argv + ["--data", missing], 1)
        assert err.startswith("usage error:")
    # --workers belongs to scan and --tol to moment; no other command takes
    # them, and each range is checked before the data
    for argv, flag in ((["voronoi", "--q", "7", "--d", "1", "--N", "50",
                         "--tol", "1e-3"], "--tol"),
                       (["moment", "--q", "11", "--workers", "8"], "--workers"),
                       (["scan", "--qmin", "5", "--qmax", "20", "--workers",
                         "0"], "--workers"),
                       (["moment", "--q", "11", "--tol", "0"], "--tol"),
                       (["moment", "--q", "11", "--tol", "inf"], "--tol"),
                       (["check-data", "--seed", "-3"], "--seed")):
        err = _one_line_error(capsys, argv + ["--data", missing], 1)
        assert err.startswith("usage error:") and flag in err
    # a negative seed for the mock system
    for argv in (["check-data"], ["moment", "--q", "11"],
                 ["scan", "--qmin", "5", "--qmax", "20"],
                 ["voronoi", "--q", "7", "--d", "1", "--N", "50"],
                 ["lvalue", "--q", "11", "--k", "2", "--twist"]):
        err = _one_line_error(capsys, argv + ["--mock", "--seed", "-3"], 1)
        assert err.startswith("usage error:") and "--seed" in err
    assert not out.parent.exists()


def test_unwritable_out_fails_before_loading_data(tmp_path, capsys,
                                                 monkeypatch):
    # root bypasses file modes, so the writability test itself is faked;
    # an existing --out is checked, and a new one by its directory
    asked = []

    def not_writable(path, mode):
        asked.append(path)
        return False

    monkeypatch.setattr("lmoment.cli.os.access", not_writable)
    existing = tmp_path / "old.json"
    existing.write_text("{}")
    for out in (existing, tmp_path / "new.json"):
        err = _one_line_error(capsys, ["scan", "--qmin", "5", "--qmax", "20",
                                       "--data", "/no/such/file",
                                       "--out", str(out)], 1)
        assert err.startswith("usage error:") and "not writable" in err
    assert asked == [str(existing), str(tmp_path)]
    assert existing.read_text() == "{}"


def test_data_path_is_a_directory(tmp_path, capsys):
    err = _one_line_error(capsys, ["moment", "--q", "101",
                                   "--data", str(tmp_path)], 2)
    assert err.startswith("data error:")


def test_cli_import_leaves_out_test_side_modules():
    # mpmath and hypothesis serve the oracles, perfbench the benchmark, and
    # sympy only the benchmark's checks: importing every lmoment module and
    # building the bump's derivatives loads none of them
    code = ("import importlib, pkgutil, sys, lmoment\n"
            "for m in pkgutil.iter_modules(lmoment.__path__):\n"
            "    importlib.import_module('lmoment.' + m.name)\n"
            "sys.modules['lmoment.weights'].default_bump().deriv_l1(8)\n"
            "print(' '.join(sorted(m for m in "
            "('mpmath', 'sympy', 'hypothesis', 'perfbench') "
            "if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == ""


def _flag(name, values):
    return values.map(lambda v: [name, str(v)])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _command(name, *parts):
    return st.tuples(*parts).map(
        lambda ps: [name] + [a for p in ps for a in p])


# moduli: mostly primes, where the commands get past their argument checks
_Q = st.one_of(st.sampled_from(primes_in_range(2, 211)), st.integers(-2, 211))
_ARGV = st.tuples(
    st.one_of(
        _command("chars", _flag("--q", _Q)),
        _command("gauss", _flag("--q", _Q)),
        _command("kloosterman", _flag("--q", _Q)),
        _command("lvalue", _flag("--q", _Q), _flag("--k", st.one_of(
                     st.integers(0, 12), st.integers(-3, 214))),
                 st.sampled_from([[], ["--twist"]])),
        _command("moment", _flag("--q", _Q), _maybe("--tol", st.sampled_from(
            [-1.0, 0.0, 1e-6, 0.5, math.inf, math.nan]))),
        _command("scan", _flag("--qmin", st.integers(100, 400)),
                 _flag("--qmax", st.integers(100, 400)),
                 _maybe("--workers", st.integers(-1, 1))),
        _command("voronoi", _flag("--q", _Q), _flag("--d", st.integers(-3, 30)),
                 _flag("--N", st.integers(-1, 60))),
        _command("check-data")),
    st.sampled_from([["--data", DATA], ["--data", "/no/such/file"],
                     ["--mock"]]),
    _maybe("--seed", st.integers(-5, 5)),
    _maybe("--format", st.sampled_from(["json", "csv"])),
    st.sampled_from([None, None, "report.json", "no_dir/report.json"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_no_argv_ends_in_a_traceback(tmp_path_factory, argv):
    # any argv of the grammar ends in an exit code, never an exception
    command, source, seed, fmt, out = argv
    argv = command + source + seed + fmt
    if out is not None:
        argv += ["--out", str(tmp_path_factory.getbasetemp() / out)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2, 3)
