"""Tests for the command-line interface: output, schema, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tevdeg.cli as cli
import tevdeg.engine as engine
from tevdeg.cli import int_str, main, parse_ell, parse_range, split_str
from tevdeg.closed_forms import vtev_hypersurface_closed
from tevdeg.errors import ParameterError
from tevdeg.truncpoly import UniPoly

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- flag parsing --------------------------------------------------------------

def _values(text):
    return [v for part in parse_range(text) for v in part]


def test_parse_range():
    assert _values("7") == [7]
    assert _values("3..5") == [3, 4, 5]
    assert _values("3,9,4") == [3, 4, 9]
    assert _values("1..2,8") == [1, 2, 8]
    assert _values("5..9,1..3,2..6,9") == list(range(1, 10))
    assert parse_range("4..6,1..2,3") == [range(1, 7)]
    assert parse_range("0..1000000000000") == [range(0, 1000000000001)]
    with pytest.raises(Exception):
        parse_range("5..3")
    for bad in ("x", ",", "3..", "1..y"):
        with pytest.raises(ParameterError):
            parse_range(bad)


def test_parse_ell():
    assert parse_ell("2,2,1") == (2, 2, 1)


# -- p1 -------------------------------------------------------------------------

def test_p1_agreeing(capsys):
    code, out, _ = run(capsys, ["p1", "--g", "3", "--d", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"g": 3, "d": 4, "n": 6}
    assert {r["method"]: r["value"] for r in doc["results"]} == {
        "cps": "8",
        "schubert": "8",
    }
    assert doc["agreement"] is True


def test_p1_documented_disagreement_is_not_an_error(capsys):
    code, out, _ = run(capsys, ["p1", "--g", "4", "--d", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert {r["method"]: r["value"] for r in doc["results"]} == {
        "cps": "3",
        "schubert": "2",
    }
    assert doc["agreement"] is False


def test_p1_single_method(capsys):
    code, out, _ = run(capsys, ["p1", "--g", "0", "--d", "1", "--method", "cps"])
    assert code == 0 and "cps" in out and "schubert" not in out


def test_p1_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, ["p1", "--g", "-1", "--d", "2"])
    assert code == 2 and "error" in err


# -- hyp --------------------------------------------------------------------------

def test_hyp_json_schema(capsys):
    code, out, _ = run(capsys, ["hyp", "--g", "0", "--d", "3", "--e", "3",
                                "--r", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"g": 0, "d": 3, "e": 3, "r": 3, "n": 3}
    assert doc["results"] == [
        {"method": "closed", "value": "24"},
        {"method": "engine", "value": "24"},
    ]
    assert doc["agreement"] is True
    assert doc["flags"] == {"virtual_range": True, "bound_ok": False,
                            "certified": True}


def test_hyp_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, ["hyp", "--g", "0", "--d", "4", "--e", "3", "--r", "3"])
    assert code == 2 and "not an integer" in err


def _scaled_point_factor(monkeypatch, only_r=None):
    """Rebind engine.point_factor to the true factor scaled by 1/p, p prime.

    With ``only_r``, only the factors of that r are scaled.
    """
    original = engine.point_factor

    def corrupted(e, r, ell_i):
        u = original(e, r, ell_i)
        if only_r not in (None, r):
            return u
        return UniPoly(u.var, [c * Fraction(1, 1_000_000_007) for c in u.coeffs])

    monkeypatch.setattr(engine, "point_factor", corrupted)


def test_hyp_breach_exits_3(capsys, monkeypatch):
    _scaled_point_factor(monkeypatch)
    code, _, err = run(capsys, ["hyp", "--g", "0", "--d", "3", "--e", "3",
                                "--r", "3", "--method", "engine"])
    assert code == 3 and "invariant breach" in err


@pytest.mark.parametrize("method", ["closed", "engine", "both"])
def test_hyp_gate_does_not_depend_on_method(capsys, method):
    # d < 2g: the tuple's own gate refuses it, whichever route is asked for.
    code, out, err = run(capsys, ["hyp", "--g", "2", "--d", "3", "--e", "3",
                                  "--r", "3", "--method", method])
    assert (code, out) == (2, "") and "need d >= 2g" in err


# -- insert, alpha, qh, certify ------------------------------------------------------

def test_insert(capsys):
    code, out, _ = run(capsys, ["insert", "--g", "0", "--d", "6", "--e", "3",
                                "--r", "3", "--ell", "2,2,2,1,1,1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["ell"] == [2, 2, 2, 1, 1, 1]
    assert doc["results"][0]["value"] == "6001128"
    assert doc["agreement"] is True


def test_alpha(capsys):
    code, out, _ = run(capsys, ["alpha", "--e", "3", "--r", "3", "--json"])
    assert code == 0
    assert json.loads(out)["alpha"] == ["6", "21", "27", "27", "27", "21", "6"]


def test_alpha_breach_exits_3(capsys, monkeypatch):
    original = UniPoly.__mul__

    def corrupted(a, b):
        u = original(a, b)
        return UniPoly(u.var, [1, *u.coeffs[1:]])  # a constant term alpha lacks

    monkeypatch.setattr(UniPoly, "__mul__", corrupted)
    code, out, err = run(capsys, ["alpha", "--e", "3", "--r", "3"])
    assert (code, out) == (3, "") and "unexpected shape" in err


def test_qh(capsys):
    code, out, _ = run(capsys, ["qh", "--g", "2", "--d", "2", "--r", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["n"] == 2 and doc["results"][0]["value"] == "9"
    # perturbed point count: still exit 0, value 0
    code, out, _ = run(capsys, ["qh", "--g", "2", "--d", "2", "--r", "2",
                                "--n", "3", "--json"])
    assert code == 0 and json.loads(out)["results"][0]["value"] == "0"


@pytest.mark.parametrize("argv, values", [
    (["qh", "--g", "2", "--d", "3", "--r", "3", "--n", "1000000000"], {"quantum": "0"}),
    (["qh", "--g", "3", "--d", "1000000000", "--r", "1"], {"quantum": "8"}),
    (["p1", "--g", "20", "--d", "1000000000"], {"cps": str(2**20), "schubert": str(2**20)}),
])
def test_huge_flag_values_stay_cheap(capsys, argv, values):
    # The cost of qh grows with log n and log g, and that of p1 with g alone.
    start = time.perf_counter()
    code, out, _ = run(capsys, argv + ["--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert {r["method"]: r["value"] for r in json.loads(out)["results"]} == values
    assert elapsed < 1.0


def test_certify(capsys):
    code, out, _ = run(capsys, ["certify", "--g", "1", "--d", "5", "--e", "3",
                                "--r", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["witness"] == {"b0": 0, "b1": 3, "b2": 0}
    assert doc["closed_bound"] == "60"

    code, out, _ = run(capsys, ["certify", "--g", "0", "--d", "10", "--e", "3",
                                "--r", "5", "--json"])
    doc = json.loads(out)
    assert doc["certified"] is True and doc["closed_bound"] == "all d"


# -- sweep ------------------------------------------------------------------------------

SWEEP_HEADER = (
    "g,d,e,r,n,t,value_closed,value_engine,agreement,"
    "virtual_range,bound_ok,certified"
)


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, ["sweep", "--e", "3", "--r", "3..5", "--g", "0..1",
                              "--d", "1..12", "--format", "csv",
                              "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[8] == "true"  # agreement on every valid row
    # sorted lexicographically by (e, r, g, d)
    keys = [tuple(int(x) for x in ln.split(",")[:4]) for ln in lines[1:]]
    sort_key = [(k[2], k[3], k[0], k[1]) for k in keys]
    assert sort_key == sorted(sort_key)


def test_sweep_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(capsys, ["sweep", "--e", "3,4", "--r", "3..6",
                                  "--g", "0..2", "--d", "1..14",
                                  "--format", "csv", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_jsonl(tmp_path, capsys):
    out_path = tmp_path / "rows.jsonl"
    code, _, _ = run(capsys, ["sweep", "--e", "3", "--r", "5", "--g", "0",
                              "--d", "10", "--format", "jsonl",
                              "--out", str(out_path)])
    assert code == 0
    rows = [json.loads(ln) for ln in out_path.read_text().splitlines()]
    assert rows == [{
        "g": 0, "d": 10, "e": 3, "r": 5, "n": 9, "t": 4,
        "value_closed": "41472", "value_engine": "41472",
        "agreement": True, "virtual_range": True, "bound_ok": True,
        "certified": True,
    }]


def test_sweep_empty_grid_writes_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(capsys, ["sweep", "--e", "3", "--r", "5", "--g", "3",
                              "--d", "1..2", "--format", "csv",
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == SWEEP_HEADER + "\n"


def test_sweep_unwritable_path_exits_2(tmp_path, capsys, monkeypatch):
    def no_record(*tup):
        pytest.fail("a record was computed before --out was opened")

    monkeypatch.setattr(cli, "sweep_record", no_record)
    code, _, err = run(capsys, ["sweep", "--e", "3", "--r", "3", "--g", "0",
                                "--d", "3", "--format", "csv",
                                "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2 and "cannot write" in err


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    base = ["sweep", "--e", "3", "--r", "3..5", "--g", "0..1", "--d", "1..10",
            "--format", "csv"]
    assert run(capsys, base + ["--out", str(paths[0])])[0] == 0
    assert run(capsys, base + ["--out", str(paths[1]), "--jobs", "2"])[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_no_child()


@pytest.mark.parametrize("bad", ["x", ","])
def test_sweep_bad_range_exits_2(tmp_path, capsys, bad):
    code, _, err = run(capsys, ["sweep", "--e", "3", "--r", "3", "--g", bad,
                                "--d", "3", "--out", str(tmp_path / "x.csv")])
    assert code == 2 and "bad range" in err and "Traceback" not in err


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_jobs_clamped_to_cpu_count(tmp_path, capsys, monkeypatch):
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    base = ["sweep", "--e", "3", "--r", "3..5", "--g", "0..1", "--d", "1..40",
            "--format", "csv"]
    paths = [tmp_path / "many.csv", tmp_path / "none.csv", tmp_path / "nofork.csv",
             tmp_path / "serial.csv"]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run(capsys, base + ["--out", str(paths[0]), "--jobs", "1000000"])[0] == 0
    assert len(forks) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(capsys, base + ["--out", str(paths[1]), "--jobs", "1000000"])[0] == 0
    assert len(forks) == 2  # an unknown CPU count runs serially
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert run(capsys, base + ["--out", str(paths[2]), "--jobs", "1000000"])[0] == 0
    assert len(forks) == 2  # so does a platform without fork
    assert run(capsys, base + ["--out", str(paths[3])])[0] == 0
    serial = paths[3].read_bytes()
    assert all(path.read_bytes() == serial for path in paths[:3])
    _assert_no_child()


# e 3, r 3..n, g 0, d 1..64: chunk i of 64 tuples is r = 3 + i, with valid rows.
def _one_r_per_chunk(rs):
    return ["sweep", "--e", "3", "--r", rs, "--g", "0", "--d", "1..64"]


@pytest.mark.parametrize("jobs,rs", [
    ("2", "3"),         # one chunk: the worker gets none
    ("2", "3..5"),      # three chunks on two processes
    ("3", "3..7"),      # five chunks on three processes
    ("3", "3..4"),      # fewer chunks than processes
])
def test_sweep_jobs_shapes_match_serial(tmp_path, capsys, monkeypatch, jobs, rs):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    assert run(capsys, _one_r_per_chunk(rs) + ["--out", str(paths[0])])[0] == 0
    assert run(capsys, _one_r_per_chunk(rs) + ["--out", str(paths[1]),
                                               "--jobs", jobs])[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_no_child()


@pytest.mark.parametrize("jobs", ["2", "3"])
@pytest.mark.parametrize("bad_r", [3, 4, 5])   # chunk 0 is the caller's
def test_sweep_breach_in_any_chunk_leaves_the_serial_prefix(
        tmp_path, capsys, monkeypatch, jobs, bad_r):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _scaled_point_factor(monkeypatch, only_r=bad_r)
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    code, _, err = run(capsys, _one_r_per_chunk("3..5") + ["--out", str(paths[0])])
    assert code == 3 and "invariant breach" in err
    code, _, err_par = run(capsys, _one_r_per_chunk("3..5") + ["--out", str(paths[1]),
                                                               "--jobs", jobs])
    assert code == 3 and err_par == err
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[1].read_text().count("\n") == 1 + 21 * (bad_r > 3) + 16 * (bad_r > 4)
    _assert_no_child()


def _boom():
    raise RuntimeError("boom")


@pytest.mark.parametrize("fail,message", [
    (_boom, "(?s)sweep worker 1 failed on chunk 1:.*RuntimeError: boom"),
    (lambda: os._exit(0), "sweep worker 1 ended before chunk 1"),
])
def test_sweep_worker_failure_is_never_silent(tmp_path, capsys, monkeypatch,
                                              fail, message):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = _one_r_per_chunk("3..5") + ["--jobs", "2"]
    full = tmp_path / "full.csv"
    assert run(capsys, argv + ["--out", str(full)])[0] == 0
    record = cli.sweep_record

    def failing(*args):
        if args[:4] == (0, 20, 3, 4):   # a valid tuple of chunk 1
            fail()
        return record(*args)

    monkeypatch.setattr(cli, "sweep_record", failing)
    path = tmp_path / "cut.csv"
    with pytest.raises(RuntimeError, match=message):
        main(argv + ["--out", str(path)])
    cut, full = path.read_text(), full.read_text()
    assert full.startswith(cut) and len(cut) < len(full)
    if fail is _boom:   # the rows before the failing tuple, as a serial sweep leaves
        assert cut.splitlines()[-1].startswith("0,16,3,4,")
    _assert_no_child()


def test_closing_a_jobs_sweep_early_leaves_no_child():
    tuples = ((0, d, 3, 3) for d in range(1, 10_000))
    records = cli._sweep_records(tuples, 2)
    assert next(records) is None
    records.close()
    _assert_no_child()


def test_sweep_jobs_does_not_import_multiprocessing(tmp_path):
    argv = _one_r_per_chunk("3..5") + ["--out", str(tmp_path / "x.csv"), "--jobs", "2"]
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "from tevdeg.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(rc, 'multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "0 False\n", proc.stderr


# SHA-256 of the acceptance grid's output; any refactor must keep these bytes.
ACCEPTANCE_GRID = ["--e", "3..5", "--r", "3..10", "--g", "0..3", "--d", "1..30"]
ACCEPTANCE_DIGESTS = {
    "csv": "0dc7f1ca2aa8de6a5d1664e1e51dc3499a96fd29ea3887f4c6c77f090d338e53",
    "jsonl": "1dc0ccc195220f9149a5912279cc23bb5031957f4329b085e96c786cc64cce45",
}


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sweep_acceptance_grid_digest(tmp_path, capsys, monkeypatch, fmt, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    path = tmp_path / f"grid.{fmt}"
    code, _, _ = run(capsys, ["sweep", *ACCEPTANCE_GRID, "--format", fmt,
                              "--out", str(path), "--jobs", jobs])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ACCEPTANCE_DIGESTS[fmt]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_breach_exits_3(tmp_path, capsys, monkeypatch, jobs):
    # The sweep's shared point factors come from engine.point_factor too.
    _scaled_point_factor(monkeypatch)
    code, _, err = run(capsys, ["sweep", "--e", "3", "--r", "3..4", "--g", "0..1",
                                "--d", "1..6", "--out", str(tmp_path / "x.csv"),
                                "--jobs", jobs])
    assert code == 3 and "invariant breach" in err
    _assert_no_child()


def test_serial_sweep_builds_each_point_factor_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = engine.point_factor

    def counted(e, r, ell_i):
        calls.append((e, r, ell_i))
        return original(e, r, ell_i)

    monkeypatch.setattr(engine, "point_factor", counted)
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", *ACCEPTANCE_GRID, "--out", str(path)])
    assert code == 0
    valid = {(int(row.split(",")[2]), int(row.split(",")[3]), 1)
             for row in path.read_text().splitlines()[1:]}
    assert sorted(calls) == sorted(valid) and len(calls) == 23


HUGE_SWEEP = ["sweep", "--e", "3", "--r", "3", "--g", "0", "--d", "1..1000000000000"]
ADDRESS_SPACE = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_of_a_huge_range_streams_in_bounded_memory(tmp_path, jobs):
    path = tmp_path / "huge.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from tevdeg.cli import entrypoint; entrypoint()",
         *HUGE_SWEEP, "--out", str(path), "--jobs", jobs],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=_cap_address_space, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        lines = []
        while len(lines) < 3 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            lines = path.read_text().splitlines()[:3] if path.exists() else []
        running = proc.poll() is None
    finally:
        # The whole group, so that no pool worker outlives the sweep.
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate(timeout=30)
    assert running, err
    assert "Traceback" not in err and "MemoryError" not in err
    assert lines[:3] == [SWEEP_HEADER, "0,3,3,3,3,1,24,24,true,true,false,true",
                         "0,6,3,3,5,4,2592,2592,true,true,false,true"]


# -- counts past the interpreter's 4300-digit str limit -------------------------------

BIG = (0, 6600, 3, 3)  # n = 4401; the count has 4,473 digits


@pytest.fixture
def no_digit_limit():
    """Lift the int/str digit limit for the test's own comparisons only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def _big_args():
    return [f"--{k}={v}" for k, v in zip("gder", BIG)]


def test_hyp_prints_big_count(capsys):
    code, out, err = run(capsys, ["hyp", *_big_args()])
    assert code == 0 and err == ""
    closed, engine_, agreement = out.splitlines()[1:4]
    assert closed.split()[0] == "closed" and engine_.split()[0] == "engine"
    assert closed.split()[1] == engine_.split()[1]
    assert len(closed.split()[1]) == 4473 and agreement == "agreement  true"


def test_big_count_equals_closed_form(capsys, tmp_path, no_digit_limit):
    want = str(vtev_hypersurface_closed(*BIG))
    code, out, _ = run(capsys, ["hyp", *_big_args(), "--json"])
    assert code == 0
    assert [r["value"] for r in json.loads(out)["results"]] == [want, want]
    code, out, _ = run(capsys, ["hyp", *_big_args(), "--method", "closed"])
    assert code == 0 and out.splitlines()[1].split() == ["closed", want]
    path = tmp_path / "big.csv"
    code, _, _ = run(capsys, ["sweep", *_big_args(), "--out", str(path)])
    assert code == 0
    row = path.read_text().splitlines()[1].split(",")
    assert row[6] == row[7] == want


def test_int_str_equals_str():
    rng = random.Random(7)
    # 14,000 bits is about 4,215 digits, below the default limit of 4,300.
    for bits in (0, 1, 64, 127, 128, 129, 1000, 14000):
        for _ in range(5):
            v = rng.getrandbits(bits) if bits else 0
            assert int_str(v) == str(v) and int_str(-v) == str(-v)


def test_split_str_equals_str(no_digit_limit):
    rng = random.Random(11)
    # 128 bits is the leaf size of split_str; cover both sides of it and of
    # its doublings, and sizes past the default digit limit.
    sizes = [0, 1, 2, 127, 128, 129, 255, 256, 257, 513, 4096, 14300, 20000, 70001]
    for bits in sizes:
        for _ in range(3):
            v = rng.getrandbits(bits) | (1 << max(bits - 1, 0)) if bits else 0
            assert split_str(v) == str(v)
            assert split_str(-v) == str(-v)
    assert split_str(10**5000) == "1" + "0" * 5000


# -- usage errors -----------------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["p1", "--g", "3"]) == 2


def test_qh_r_0_exits_2(capsys):
    code, _, err = run(capsys, ["qh", "--g", "0", "--d", "1", "--r", "0"])
    assert code == 2 and "dimension" in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_below_1_exits_2(tmp_path, capsys, jobs):
    code, _, err = run(capsys, ["sweep", "--e", "3", "--r", "3", "--g", "0",
                                "--d", "3", "--out", str(tmp_path / "x.csv"),
                                "--jobs", jobs])
    assert code == 2 and "--jobs" in err


# -- byte identity of the query verbs -------------------------------------------------

def _query_corpus():
    """argv lists for hyp, certify, alpha and insert over small grids.

    The grids include invalid values of every parameter, so the corpus pins
    the error messages and exit statuses as well as the counts and flags.
    """
    argvs = []
    for g, d, e, r in itertools.product((-1, 0, 1, 2), (0, 3, 5, 10), (3, 5), (3, 5)):
        tup = [f"--g={g}", f"--d={d}", f"--e={e}", f"--r={r}"]
        for method in ("closed", "engine", "both"):
            argvs.append(["hyp", *tup, "--method", method])
            argvs.append(["hyp", *tup, "--method", method, "--json"])
    for g, d, e, r in itertools.product((-1, 0, 1, 2), (0, 3, 5, 10), (2, 3, 5), (0, 3, 5)):
        tup = [f"--g={g}", f"--d={d}", f"--e={e}", f"--r={r}"]
        argvs.append(["certify", *tup])
        argvs.append(["certify", *tup, "--json"])
    for e, r in itertools.product((2, 3, 4, 5), (0, 1, 3, 6)):
        argvs.append(["alpha", f"--e={e}", f"--r={r}"])
        argvs.append(["alpha", f"--e={e}", f"--r={r}", "--json"])
    for g, d, ell in ((0, 3, "1,1,1"), (1, 3, "1,1"), (0, 6, "2,2,2,1,1,1"),
                      (0, 3, "2,1,1"), (0, 3, "1,1,5"), (0, 3, "1,1,0"),
                      (0, 3, "x"), (0, 3, ""), (2, 3, "1")):
        tup = [f"--g={g}", f"--d={d}", "--e=3", "--r=3", f"--ell={ell}"]
        for method in ("closed", "engine", "both"):
            argvs.append(["insert", *tup, "--method", method])
            argvs.append(["insert", *tup, "--method", method, "--json"])
    return argvs


# SHA-256 of every (argv, exit status, stdout, stderr) of the corpus above.
# `hyp --method closed` at (2, 3, 3, 3), text and --json, exits 2 like the
# other methods; those are the only two argv that moved from the first digest.
QUERY_CORPUS_SIZE = 758
QUERY_CORPUS_DIGEST = "f70502acc39410c6b400872327056b30acaa18a08e71286d5999c2f9cd1527f3"


def test_query_verbs_digest():
    digest = hashlib.sha256()
    argvs = _query_corpus()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update((json.dumps([argv, code, out.getvalue(), err.getvalue()])
                       + "\n").encode())
    assert len(argvs) == QUERY_CORPUS_SIZE
    assert digest.hexdigest() == QUERY_CORPUS_DIGEST
