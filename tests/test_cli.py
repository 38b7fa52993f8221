"""Tests for the command-line interface: output, schema, exit codes."""

import argparse
import ast
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import marshal
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tevdeg.cli as cli
import tevdeg.closed_forms as closed_forms
import tevdeg.engine as engine
import tevdeg.enumerativity as enumerativity
from tevdeg.cli import main, parse_ell, parse_range
from tevdeg.closed_forms import vtev_hypersurface_closed
from tevdeg.enumerativity import certify_enumerative
from tevdeg.errors import SPLIT_BITS, InvariantBreach, ParameterError, int_str, split_str
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


# Tokens that int() takes, as " 7", "1_0", "\u0663" and "-3", or refuses.
ELL_TOKENS = ["", "x", " 7", "1_0", "0x10", "\u0663", "-3"]


def _one_liner_ell(text):
    """The profile parse_ell gives, as tuple(map(int, ...)), or its error text."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as ex:
        return f"bad insertion list {text!r}: {ex}"


def test_parse_ell():
    assert parse_ell("2,2,1") == (["2", "2", "1"], {"2": 2, "1": 1})
    texts = ["2,2,1", "1,y,x,y", "3,x,3,x,3", *ELL_TOKENS,
             *map(",".join, itertools.product(ELL_TOKENS + ["2"], repeat=3))]
    for text in texts:
        try:
            tokens, table = parse_ell(text)
        except ParameterError as ex:
            got = str(ex)
        else:
            assert list(table) == list(dict.fromkeys(tokens)), text
            got = tuple(map(table.__getitem__, tokens))
        assert got == _one_liner_ell(text), text
    # The first bad token in the list is named, however often others repeat.
    with pytest.raises(ParameterError, match="'y'$"):
        parse_ell("1,y,x,y")


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_insert_echoes_each_mark_as_its_int(capsys, as_json):
    # The ell echo is joined from the tokens of --ell, and a token that
    # int() reads but does not write back is written as its int: the
    # stdout of "01,+1,<Arabic-Indic one>" is that of "1,1,1".
    argv = ["insert", "--g", "0", "--d", "3", "--e", "3", "--r", "3", *as_json, "--ell"]
    want = run(capsys, argv + ["1,1,1"])
    assert want[0] == 0
    for text in ("01,+1,\u0661", " 1,+01,1"):
        assert run(capsys, argv + [text]) == want, text
    if as_json:
        assert f'"ell": {json.dumps([1, 1, 1])}}}, ' in want[1]
    else:
        assert want[1].startswith("g=0 d=3 e=3 r=3 n=3 ell=[1, 1, 1]\n")


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


def test_p1_pencil_counts_agree(capsys):
    # Two trigonal pencils on a general genus-4 curve, five tetragonal
    # pencils in genus 6, and none of degree 3 in genus 5.
    for g, d, want in ((4, 3, "2"), (6, 4, "5"), (5, 3, "0")):
        code, out, _ = run(capsys, ["p1", "--g", str(g), "--d", str(d), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert {r["method"]: r["value"] for r in doc["results"]} == {
            "cps": want,
            "schubert": want,
        }
        assert doc["agreement"] is True


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


def _scaled_point_factor(monkeypatch, only_e=None):
    """Rebind engine.point_factor to the true table, each alpha times 1/p, p prime.

    With ``only_e``, only the table of that e is scaled.
    """
    original = engine.point_factor

    def corrupted(e):
        degree, sums = table = original(e)
        if only_e not in (None, e):
            return table
        return degree, tuple(alpha * Fraction(1, 1_000_000_007) for alpha in sums)

    monkeypatch.setattr(engine, "point_factor", corrupted)


def test_hyp_breach_exits_3(capsys, monkeypatch):
    _scaled_point_factor(monkeypatch)
    code, _, err = run(capsys, ["hyp", "--g", "0", "--d", "3", "--e", "3",
                                "--r", "3", "--method", "engine"])
    assert code == 3 and "invariant breach" in err


def test_hyp_alpha_not_divisible_by_e_exits_3(capsys, monkeypatch):
    # At (0, 9, 3, 3), n = t = 7: e^t alone makes e^n divide the corrupted
    # cycle degree, so only the check on alpha_1 itself refuses it.
    original = engine.point_factor
    monkeypatch.setattr(engine, "point_factor", lambda e: (
        original(e)[0], tuple(alpha + 1 for alpha in original(e)[1])))
    code, out, err = run(capsys, ["hyp", "--g", "0", "--d", "9", "--e", "3",
                                  "--r", "3", "--method", "both"])
    assert (code, out) == (3, "")
    assert "alpha_1 = 7 is not divisible by e = 3" in err


@pytest.mark.parametrize("method", ["closed", "engine", "both"])
def test_hyp_gate_does_not_depend_on_method(capsys, method):
    # d < 2g: the tuple's own gate refuses it, whichever route is asked for.
    code, out, err = run(capsys, ["hyp", "--g", "2", "--d", "3", "--e", "3",
                                  "--r", "3", "--method", method])
    assert (code, out) == (2, "") and "need d >= 2g" in err


# -- --method routes -------------------------------------------------------------

ROUTE_ARGV = {
    "p1": ["--g", "3", "--d", "4"],
    "hyp": ["--g", "0", "--d", "3", "--e", "3", "--r", "3"],
    "insert": ["--g", "0", "--d", "6", "--e", "3", "--r", "3", "--ell", "2,2,2,1,1,1"],
}


def test_every_method_choice_runs_its_routes(capsys):
    # The verb table's choices and the routes each verb runs name the same
    # routes, in the same order; "both" runs all of them.
    methods = {name: flag.choices for name, (_, _, flags) in cli.VERBS.items()
               for flag in flags if flag.name == "method"}
    assert sorted(methods) == sorted(ROUTE_ARGV)
    for name, choices in methods.items():
        routes = [c for c in choices if c != "both"]
        assert choices[-1] == "both" and len(routes) >= 2
        for choice in choices:
            code, out, _ = run(capsys, [name, *ROUTE_ARGV[name], "--method", choice,
                                        "--json"])
            assert code == 0
            got = [r["method"] for r in json.loads(out)["results"]]
            assert got == (routes if choice == "both" else [choice]), (name, choice)


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


def test_alpha_text_is_one_write(capsys, monkeypatch):
    writes = []
    real = cli._print

    def counting(*values, **kwargs):
        writes.append(values)
        return real(*values, **kwargs)

    monkeypatch.setattr(cli, "_print", counting)
    assert cli.cmd_alpha(argparse.Namespace(e=3, r=1000, json=False)) == 0
    out = capsys.readouterr().out
    assert len(writes) == 1
    al = closed_forms.alpha_coefficients(3, 1000)
    assert out == "".join(f"alpha_{i} {v}\n" for i, v in enumerate(al, start=1))


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
    # qh makes r + 2 quantum products whatever n and g are; only the power
    # c^g of the Euler class's coefficient grows with g.  p1 costs g alone.
    start = time.perf_counter()
    code, out, _ = run(capsys, argv + ["--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert {r["method"]: r["value"] for r in json.loads(out)["results"]} == values
    assert elapsed < 1.0


@pytest.mark.parametrize("limit", ["default", "no_digit_limit"])
def test_large_genus_qh_stays_cheap(capsys, request, limit):
    # The count is (r+1)^g = 4^(10^6), 602,060 digits: the power of the
    # Euler class's coefficient and printing it are the whole cost.  With
    # the digit limit off, str would print it in quadratic time.
    if limit != "default":
        request.getfixturevalue(limit)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["qh", "--g", "1000000", "--d", "3000000", "--r", "3",
                                "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["results"] == [{"method": "quantum", "value": int_str(4**10**6)}]
    assert elapsed < 2.0


# qh's refusal of n = 0, which the P^r gate passes: the quantum route
# takes n >= 1 only.
QH_N_0_REFUSAL = "error: the quantum route needs n >= 1, got n = 0\n"


def test_p1_and_qh_gates_agree(capsys):
    # p1 and qh --r 1 run one gate, projective_dims_check at r = 1, so both
    # P^1 routes and qh accept or refuse each (g, d) together, a refusal
    # with the gate's one message.  The exception is n = 2d - g + 1 = 0,
    # which the gate passes (it is stable): p1 counts 0 by both routes, and
    # qh exits 2 from its route.
    n_0 = 0
    for g in range(31):
        for d in range(-1, 41):
            gd = ["--g", str(g), "--d", str(d)]
            cps = run(capsys, ["p1", *gd, "--method", "cps"])
            schubert = run(capsys, ["p1", *gd, "--method", "schubert"])
            qh = run(capsys, ["qh", *gd, "--r", "1"])
            if d >= 1 and 2 * d - g + 1 == 0:
                n_0 += 1
                head = f"g={g} d={d} n=0\n"
                assert cps == (0, head + "cps        0\n", "")
                assert schubert == (0, head + "schubert   0\n", "")
                assert run(capsys, ["p1", *gd]) == (
                    0, head + "cps        0\nschubert   0\nagreement  true\n", "")
                assert qh == (2, "", QH_N_0_REFUSAL)
                continue
            assert cps[0] == schubert[0] == qh[0] in (0, 2), (g, d)
            assert cps[2] == schubert[2] == qh[2], (g, d)
            if qh[0] == 0:
                assert qh[1].startswith(f"g={g} d={d} r=1 n={2 * d - g + 1}\n")
    assert n_0 == 14


# The (g, d, e, r) of the box below that certify answers and hyp refuses:
# each has d < 2g, and certify reports it uncertified.
CERTIFY_ONLY = [(2, 3, 3, 3), (3, 4, 3, 4), (3, 5, 3, 5), (3, 5, 4, 5),
                (2, 3, 4, 6), (3, 4, 4, 8), (3, 5, 4, 10), (2, 3, 5, 9)]


def test_hypersurface_verbs_share_one_domain(capsys):
    # Over e 3..5, r 1..10, g 0..3, d 1..30: hyp answers exactly the tuples
    # that sweep writes a row for, with its n and value; insert with n ones
    # answers the same tuples with e^n times the count; and certify answers
    # those plus CERTIFY_ONLY.
    valid, certify_only = 0, []
    for e, r, g, d in itertools.product(range(3, 6), range(1, 11), range(4), range(1, 31)):
        rec = cli.sweep_record(g, d, e, r)
        args = ["--g", str(g), "--d", str(d), "--e", str(e), "--r", str(r), "--json"]
        code, out, _ = run(capsys, ["hyp", *args])
        assert (code == 0) == (rec is not None), (g, d, e, r)
        if rec is not None:
            valid += 1
            doc = json.loads(out)
            assert doc["params"]["n"] == rec["n"]
            assert [v["value"] for v in doc["results"]] == [rec["value_closed"]] * 2
        q, rem = divmod((r + 2 - e) * d, r)
        n = q - g + 1
        if rem == 0 and n >= 1:
            code, out, _ = run(capsys, ["insert", *args, "--ell", ",".join(["1"] * n)])
            assert (code == 0) == (rec is not None), (g, d, e, r)
            if rec is not None:
                values = [int(v["value"]) for v in json.loads(out)["results"]]
                assert values == [e**n * int(rec["value_closed"])] * 2
        else:
            assert rec is None
        code, out, _ = run(capsys, ["certify", *args])
        if rec is None and code == 0:
            certify_only.append((g, d, e, r))
            assert json.loads(out)["certified"] is False
        else:
            assert code == (0 if rec is not None else 2), (g, d, e, r)
    assert valid == 628
    assert certify_only == CERTIFY_ONLY
    assert all(d < 2 * g for g, d, _, _ in CERTIFY_ONLY)


def test_large_insert_profile_stays_cheap(capsys):
    # 300,003 marks, six of them of dimension 2, so the count is
    # 3^t 6^299997 21^6.  The query walks the marks in six C-level passes
    # (split, token table, int tuple, two groupings, echo join) and does
    # Python work per distinct dimension; the 1.49-million-bit count is
    # formatted once.  Run in process: Linux caps one execve argument at
    # 128 KiB, and this --ell is about 600 kB.
    ell = ",".join(["1"] * 299997 + ["2"] * 6)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["insert", "--g", "0", "--d", "450000", "--e", "3",
                                "--r", "3", "--ell", ell, "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    want = int_str(3**449992 * 6**299997 * 21**6)
    assert code == 0 and doc["agreement"] is True
    assert [r["value"] for r in doc["results"]] == [want, want]
    assert elapsed < 2.0


def test_large_genus_p1_stays_cheap(capsys):
    # Both P^1 routes cost about g big-int steps: cps adds g - d binomials
    # and schubert about g/2 ballot numbers.  Below d = g the value is not
    # 2^g, so the routes are held to each other.
    start = time.perf_counter()
    code, out, _ = run(capsys, ["p1", "--g", "20000", "--d", "10003", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0 and doc["agreement"] is True
    assert {r["method"] for r in doc["results"]} == {"cps", "schubert"}
    assert elapsed < 2.0


def test_large_genus_hyp_stays_cheap(capsys):
    # The engine sums g+1 divided-power terms with one running term, each
    # step one big-by-small multiply and divide, and multiplies the large
    # point-factor and Chern scale in once, so genus 1000 costs about as
    # much as printing the 21,288-digit count.
    start = time.perf_counter()
    code, out, _ = run(capsys, ["hyp", "--g", "1000", "--d", "30000", "--e", "3",
                                "--r", "3", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0 and doc["agreement"] is True
    assert {r["method"] for r in doc["results"]} == {"closed", "engine"}
    assert elapsed < 2.0


def test_genus_20000_engine_stays_cheap(capsys):
    # The pushforward holds one running term of O(g) bits, so it costs
    # O(g^2) word operations; the whole query takes about 2.3 s on a shared
    # 2-vCPU VM, most of it the exact division by e^n.
    start = time.perf_counter()
    code, out, _ = run(capsys, ["hyp", "--g", "20000", "--d", "600000", "--e", "3",
                                "--r", "3", "--method", "engine"])
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 5.0
    closed = vtev_hypersurface_closed(20000, 600000, 3, 3)
    assert out.splitlines()[1].split() == ["engine", int_str(closed)]


def test_certify(capsys):
    code, out, _ = run(capsys, ["certify", "--g", "1", "--d", "5", "--e", "3",
                                "--r", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["witness"] == {"b0": 0, "b1": 3, "b2": 0}
    assert doc["closed_bound"] == "60"

    # d = 60 lies on the bound, which it must clear.
    code, out, _ = run(capsys, ["certify", "--g", "1", "--d", "60", "--e", "3",
                                "--r", "5", "--json"])
    doc = json.loads(out)
    assert doc["closed_bound"] == "60" and doc["bound_applicable"] is True
    assert doc["bound_satisfied"] is False

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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_full_device_exits_2(capsys, monkeypatch, jobs):
    # /dev/full opens but fails every write: on the acceptance grid's 53 KB
    # the failure comes mid-stream, while a --jobs worker is still running.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run(capsys, ["sweep", *ACCEPTANCE_GRID, "--out", "/dev/full",
                                "--jobs", jobs])
    assert code == 2 and "error: cannot write /dev/full:" in err
    assert "Traceback" not in err
    _assert_no_child()


def test_sweep_fork_failure_is_not_bad_output(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="temporarily unavailable"):
        main(["sweep", "--e", "3", "--r", "3", "--g", "0", "--d", "1..200",
              "--out", str(tmp_path / "x.csv"), "--jobs", "2"])
    _assert_no_child()


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


# e 3, r 3..n (n <= 7), g 0..63, d 420: a sweep makes only the tuples whose n
# is an integer, and 420 = lcm(3..7) makes n one for every r, so chunk i of 64
# tuples is r = 3 + i, and each of its rows is valid.
def _one_r_per_chunk(rs):
    return ["sweep", "--e", "3", "--r", rs, "--g", "0..63", "--d", "420"]


def test_one_r_per_chunk_gives_each_r_one_chunk_of_valid_rows(tmp_path, capsys,
                                                               monkeypatch):
    seen = _recording_sweep_record(monkeypatch)
    path = tmp_path / "x.csv"
    assert run(capsys, _one_r_per_chunk("3..7") + ["--out", str(path)]) == (0, "", "")
    assert seen == [(g, 420, 3, r) for r in range(3, 8) for g in range(64)]
    assert len(seen) == 5 * cli.SWEEP_CHUNK
    assert path.read_text().count("\n") == 1 + len(seen)


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


def _one_e_per_chunk(es):
    """A box whose every e in ``es`` gives one chunk of 64 valid rows."""
    return ["sweep", "--e", es, "--r", "10", "--g", "0..63", "--d", "420"]


@pytest.mark.parametrize("jobs", ["2", "3"])
@pytest.mark.parametrize("bad_e", [3, 4, 5])   # chunk 0 is the caller's
def test_sweep_breach_in_any_chunk_leaves_the_serial_prefix(
        tmp_path, capsys, monkeypatch, jobs, bad_e):
    # The point factor is keyed by e, so the breach is put in one e's chunk.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _scaled_point_factor(monkeypatch, only_e=bad_e)
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    code, _, err = run(capsys, _one_e_per_chunk("3..5") + ["--out", str(paths[0])])
    assert code == 3 and "invariant breach" in err
    code, _, err_par = run(capsys, _one_e_per_chunk("3..5") + ["--out", str(paths[1]),
                                                               "--jobs", jobs])
    assert code == 3 and err_par == err
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[1].read_text().count("\n") == 1 + 64 * (bad_e - 3)
    _assert_no_child()


def test_sweep_worker_exception_is_the_serial_sweeps(tmp_path, capsys, monkeypatch):
    # A worker stops at an exception main does not map, and the caller makes
    # that chunk itself: it raises the serial sweep's exception at the serial
    # row, after the serial prefix.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    record = cli.sweep_record

    def failing(*args):
        if args[:4] == (20, 420, 3, 4):   # a valid tuple of chunk 1
            raise RuntimeError("boom")
        return record(*args)

    monkeypatch.setattr(cli, "sweep_record", failing)
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    for path, jobs in zip(paths, ["1", "2"]):
        with pytest.raises(RuntimeError, match="^boom$"):
            main(_one_r_per_chunk("3..5") + ["--out", str(path), "--jobs", jobs])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[1].read_text().splitlines()[-1].startswith("19,420,3,4,")
    assert capsys.readouterr() == ("", "")
    _assert_no_child()


@pytest.mark.parametrize("torn", [False, True])
def test_a_worker_that_dies_costs_time_not_rows(tmp_path, capsys, monkeypatch, torn):
    # Chunks 1 and 3 (r = 4 and 6) are the worker's.  It dies before chunk 1,
    # or part-way through sending it; the caller makes both.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = _one_r_per_chunk("3..7")
    full = tmp_path / "full.csv"
    assert run(capsys, argv + ["--out", str(full)])[0] == 0
    record, caller, made_here = cli.sweep_record, os.getpid(), set()

    def dying(*args):
        if os.getpid() == caller:
            made_here.add(args[3])
        elif args[:4] == (20, 420, 3, 4) and not torn:
            os._exit(0)
        return record(*args)

    def torn_dump(text, pipe):
        data = marshal.dumps(text)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os._exit(0)

    monkeypatch.setattr(cli, "sweep_record", dying)
    if torn:
        monkeypatch.setattr(marshal, "dump", torn_dump)
    path = tmp_path / "par.csv"
    assert run(capsys, argv + ["--out", str(path), "--jobs", "2"]) == (0, "", "")
    assert path.read_bytes() == full.read_bytes()
    assert made_here == {3, 4, 5, 6, 7}
    _assert_no_child()


@pytest.mark.parametrize("exc", [ParameterError, InvariantBreach, OverflowError,
                                 MemoryError])
def test_sweep_worker_passes_on_what_main_maps(tmp_path, capsys, monkeypatch, exc):
    # A worker's exception that main maps to an exit status gives the status,
    # output and file of a serial sweep, not a traceback.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    record = cli.sweep_record

    def failing(*args):
        if args[:4] == (20, 420, 3, 4):   # a valid tuple of chunk 1
            raise exc("failed in chunk 1")
        return record(*args)

    monkeypatch.setattr(cli, "sweep_record", failing)
    argv = _one_r_per_chunk("3..5")
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    serial = run(capsys, argv + ["--out", str(paths[0])])
    assert serial[0] in (2, 3) and "Traceback" not in serial[2]
    assert run(capsys, argv + ["--out", str(paths[1]), "--jobs", "2"]) == serial
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_no_child()


def test_closing_a_jobs_sweep_early_leaves_no_child():
    tuples = ((0, d, 3, 3) for d in range(1, 10_000))
    rows = cli._sweep_rows(tuples, 2, cli._csv_line)
    assert next(rows) == "0,3,3,3,3,1,24,24,true,true,false,true\n"
    rows.close()
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


def test_query_verbs_load_neither_dataclasses_inspect_nor_json(tmp_path):
    # Start-up cost: no query verb needs these modules, and each takes
    # milliseconds to import.  A jsonl sweep, serial or --jobs, writes its
    # rows as the query verbs do.  Run as the benchmark times start-up, in a
    # fresh isolated interpreter.  The modules some verbs load on their
    # first use (argparse, fractions, decimal) are held to which verb loads
    # them by test_each_verb_loads_only_what_it_runs.
    queries = [
        ["hyp", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--json"],
        ["insert", "--g", "0", "--d", "6", "--e", "3", "--r", "3", "--ell", "2,2,2,1,1,1",
         "--json"],
        ["certify", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--json"],
        ["alpha", "--e", "3", "--r", "3", "--json"],
        ["p1", "--g", "3", "--d", "4", "--json"],
        ["qh", "--g", "2", "--d", "2", "--r", "2", "--json"],
    ]
    sweep = ["sweep", "--e", "3", "--r", "3", "--g", "0", "--d", "1..6", "--format", "jsonl",
             "--out", str(tmp_path / "x.jsonl")]
    jobs = _one_r_per_chunk("3..5") + ["--format", "jsonl", "--out",
                                       str(tmp_path / "jobs.jsonl"), "--jobs", "2"]
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "heavy = ('dataclasses', 'inspect', 'json')\n"
        "def loaded():\n"
        "    return [m for m in heavy if m in sys.modules]\n"
        "seen = loaded()\n"
        "import tevdeg.cli as cli\n"
        "cli.build_parser()\n"
        "seen += loaded()\n"
        f"for argv in {queries!r}:\n"
        "    seen += [cli.main(argv)] + loaded()\n"
        f"seen += [cli.main({sweep!r})] + loaded()\n"
        f"seen += [cli.main({jobs!r})] + loaded()\n"
        "print(seen, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == "[0, 0, 0, 0, 0, 0, 0, 0]\n"
    assert len([json.loads(line) for line in proc.stdout.splitlines()]) == len(queries)
    assert (tmp_path / "x.jsonl").read_text().count("\n") > 0
    assert (tmp_path / "jobs.jsonl").read_text().count("\n") > 0


# -- start-up: the modules a verb loads on its first use --------------------------------

# Imported where a verb first needs them: argparse by build_parser, for help
# and every argv that is not plain; fractions by enum_bound_closed, for a
# bound at g >= 1; decimal by split_str, for an int past the digit limit or
# SPLIT_BITS.
LAZY_MODULES = ("argparse", "fractions", "decimal")


def _fresh_main(argvs, cwd):
    """Run each argv through ``cli.main`` in turn, in one fresh isolated
    interpreter, as the benchmark times start-up.

    Returns the lazy modules loaded by ``import tevdeg.cli`` and, for each
    argv, (exit status, stdout, stderr, lazy modules loaded by then).
    """
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "def loaded():\n"
        f"    return [m for m in {LAZY_MODULES!r} if m in sys.modules]\n"
        "import tevdeg.cli as cli\n"
        "rows = [loaded()]\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    rows.append((code, out.getvalue(), err.getvalue(), loaded()))\n"
        "print(repr(rows))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=cwd,
                          env=dict(os.environ, COLUMNS="80"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, *rows = ast.literal_eval(proc.stdout)
    return at_import, rows


PLAIN_QUERIES = [
    ["p1", "--g", "3", "--d", "4", "--json"],
    ["qh", "--g", "2", "--d", "2", "--r", "2", "--json"],
    ["insert", "--g", "0", "--d", "6", "--e", "3", "--r", "3", "--ell", "2,2,2,1,1,1"],
    ["alpha", "--e", "3", "--r", "3", "--json"],
    # At g = 0 the bound is "all d", and no Fraction is built.
    ["hyp", "--g", "0", "--d", "5", "--e", "3", "--r", "5"],
    ["certify", "--g", "0", "--d", "5", "--e", "3", "--r", "5", "--json"],
]
# 4^100000 has 200,001 bits, past SPLIT_BITS, and 60,206 digits.
BIG_QH = ["qh", "--g", "100000", "--d", "300000", "--r", "3"]


@pytest.mark.parametrize("argvs, loads, skips", [
    pytest.param(PLAIN_QUERIES, (), LAZY_MODULES, id="plain-queries"),
    pytest.param([["hyp", "--g", "1", "--d", "30", "--e", "3", "--r", "10"]],
                 ("fractions",), ("argparse",), id="hyp-bound"),
    pytest.param([["certify", "--g", "1", "--d", "30", "--e", "3", "--r", "10"]],
                 ("fractions",), ("argparse",), id="certify-bound"),
    pytest.param([["sweep", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--out", "x.csv"]],
                 ("fractions",), ("argparse",), id="sweep-bound"),
    pytest.param([["--help"]], ("argparse",), ("fractions", "decimal"), id="help"),
    pytest.param([["p1", "--g=3", "--d", "4"]], ("argparse",), ("fractions", "decimal"),
                 id="not-plain"),
    pytest.param([BIG_QH], ("decimal",), ("argparse", "fractions"), id="big-count"),
])
def test_each_verb_loads_only_what_it_runs(tmp_path, argvs, loads, skips):
    at_import, rows = _fresh_main(argvs, tmp_path)
    assert at_import == []
    for argv, (code, _, err, loaded) in zip(argvs, rows):
        assert code == 0, (argv, err)
        assert set(loads) <= set(loaded) and not set(skips) & set(loaded), (argv, loaded)


def test_each_lazy_path_gives_the_bytes_of_an_eager_one(tmp_path):
    # Each lazy import runs first here, in a fresh interpreter, where no
    # other test has loaded the module already.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(4**100000)
    finally:
        sys.set_int_max_str_digits(limit)
    cases = [
        (BIG_QH, f"g=100000 d=300000 r=3 n=300001\nquantum    {digits}\n"),
        (["certify", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--json"],
         '{"params": {"g": 1, "d": 30, "e": 3, "r": 10, "n": 27}, "certified": true, '
         '"reason": "all strata pass", "witness": null, "closed_bound": "85/3", '
         '"bound_applicable": true, "bound_satisfied": true, "audit_sharper": false, '
         '"strata_checked": 5927}\n'),
        (["p1", "--g=3", "--d", "4"], "g=3 d=4 n=6\ncps        8\nschubert   8\nagreement  true\n"),
    ]
    for argv, want in cases:
        _, [(code, out, err, _)] = _fresh_main([argv], tmp_path)
        assert (code, out, err) == (0, want, ""), argv
    _, rows = _fresh_main(HELP_ARGV, tmp_path)
    assert _rows_digest((argv, *row[:3]) for argv, row in zip(HELP_ARGV, rows)) == HELP_DIGEST
    _, [(code, out, err, _)] = _fresh_main([["verify"]], tmp_path)
    assert (code, err) == (0, "") and out.count("  PASS  ") == 7
    assert out.endswith("\n\nall criteria passed\n")


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


# The box of the sweep-row tests: every gate's edge, r = 0 and a d past 10^22.
REFUSAL_BOX = (range(1, 9), range(-1, 15), range(-1, 5), (*range(-1, 91), 10**22 + 7))


def _n_is_integral(d, e, r):
    """The slow oracle of when n = (r+2-e)d/r - g + 1 is an integer."""
    return r >= 1 and (r + 2 - e) * d % r == 0


def test_sweep_record_is_none_exactly_where_the_gate_refuses():
    # The slow oracle is HypParams.standard, whose gate raises ParameterError;
    # it refuses every tuple whose n is not an integer, and no other for that reason.
    rows = refused_integral = 0
    for e, r, g, d in itertools.product(*REFUSAL_BOX):
        try:
            engine.HypParams.standard(g, d, e, r)
        except ParameterError as ex:
            refused = True
            if _n_is_integral(d, e, r):
                refused_integral += 1
                assert "not an integer" not in str(ex), (g, d, e, r)
        else:
            refused = False
            assert _n_is_integral(d, e, r), (g, d, e, r)
        assert (cli.sweep_record(g, d, e, r) is None) == refused, (g, d, e, r)
        rows += not refused
    assert rows == 5236 and refused_integral


def test_integral_degrees_are_the_integral_d():
    parts = [range(1, 91), range(-7, 13), range(0, 1), range(0, 25), range(-30, -2),
             range(10**22 + 7, 10**22 + 8), range(10**22 - 100, 10**22 + 100)]
    found = 0
    for e, r, part in itertools.product(range(1, 9), range(-1, 15), parts):
        got = enumerativity.integral_degrees(e, r, part)
        assert list(got) == [d for d in part if _n_is_integral(d, e, r)], (e, r, part)
        found += len(got)
    assert found


def test_gated_dims_are_the_r_the_gates_admit():
    for text in ("-1000000..0", "-3..2", "0", "1", "-7..-2,0..4,9,12..15", "2..5,100"):
        parts = parse_range(text)
        clipped = enumerativity.gated_dims(parts)
        assert all(clipped), text
        assert list(itertools.chain(*clipped)) == [
            r for r in itertools.chain(*parts) if r >= 1], text


def _recording_sweep_record(monkeypatch):
    """Rebind cli.sweep_record to record its arguments; the list it fills."""
    record, seen = cli.sweep_record, []

    def recorded(*tup):
        seen.append(tup)
        return record(*tup)

    monkeypatch.setattr(cli, "sweep_record", recorded)
    return seen


def test_sweep_makes_exactly_the_integral_tuples_in_box_order(tmp_path, capsys,
                                                              monkeypatch):
    # The slow oracle is _n_is_integral on every tuple of the box.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    want = [(g, d, e, r) for e, r, g, d in itertools.product(*REFUSAL_BOX)
            if _n_is_integral(d, e, r)]
    seen = _recording_sweep_record(monkeypatch)
    ranges = ["1..8", "-1..14", "-1..4", f"-1..90,{10**22 + 7}"]
    argv = ["sweep", *(f"--{k}={v}" for k, v in zip("ergd", ranges))]
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    assert run(capsys, argv + ["--out", str(paths[0])]) == (0, "", "")
    assert seen == want
    assert run(capsys, argv + ["--out", str(paths[1]), "--jobs", "2"]) == (0, "", "")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_no_child()


def test_sweep_cost_is_its_integral_tuples(tmp_path, capsys, monkeypatch):
    # e = 3 makes d step by r, so the 250,000-tuple box holds
    # sum(500 // r) = 3,190 integral tuples, and only those are made.
    seen = _recording_sweep_record(monkeypatch)
    argv = ["sweep", "--e", "3", "--r", "1..500", "--g", "0", "--d", "1..500",
            "--out", str(tmp_path / "x.csv")]
    assert run(capsys, argv) == (0, "", "")
    assert len(seen) == sum(500 // r for r in range(1, 501)) == 3190


@functools.cache
def _gate_oracle_records(grid):
    """Every tuple of the grid through HypParams.standard; a row per tuple it passes."""
    es, rs, gs, ds = (_values(text) for text in grid)
    records = []
    for e, r, g, d in itertools.product(es, rs, gs, ds):
        try:
            p = engine.HypParams.standard(g, d, e, r)
        except ParameterError:
            continue
        closed = vtev_hypersurface_closed(g, d, e, r)
        value = engine.tev_hypersurface_engine(p)
        records.append({
            "g": g, "d": d, "e": e, "r": r, "n": p.n, "t": p.t,
            "value_closed": int_str(closed), "value_engine": int_str(value),
            "agreement": closed == value,
            **cli._hyp_flags(certify_enumerative(g, d, e, r)),
        })
    return records


def _gate_oracle_bytes(grid, fmt):
    """The oracle's rows, written by csv.DictWriter or json.dumps."""
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=cli.SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
    for rec in _gate_oracle_records(grid):
        if fmt == "csv":
            writer.writerow({k: (str(v).lower() if isinstance(v, bool) else v)
                             for k, v in rec.items()})
        else:
            out.write(json.dumps(rec) + "\n")
    return out.getvalue().encode()


# (e, r, g, d): the part of REFUSAL_BOX that the gates can pass, and two rows
# at d = 6600, whose values pass the 4,300-digit limit.
ORACLE_GRIDS = [("3..8", "1..14", "0..4", "1..90"), ("3", "3", "0..1", "6600")]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["box", "past-the-limit"])
def test_sweep_bytes_match_the_gate_oracle(tmp_path, capsys, monkeypatch, grid, fmt):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    want = _gate_oracle_bytes(grid, fmt)
    assert want.count(b"\n") >= 2
    for jobs in ("1", "2"):
        path = tmp_path / f"grid-{jobs}.{fmt}"
        argv = ["sweep", *(f"--{k}={v}" for k, v in zip("ergd", grid)),
                "--format", fmt, "--out", str(path), "--jobs", jobs]
        assert run(capsys, argv) == (0, "", "")
        assert path.read_bytes() == want, jobs


def test_sweep_record_keys_are_the_columns():
    # The CSV writer reads a record's values in order, so the record's keys
    # must be the header, in its order.
    rows = 0
    for e, r, g, d in itertools.product(range(3, 6), range(1, 11), range(4), range(1, 31)):
        rec = cli.sweep_record(g, d, e, r)
        if rec is not None:
            assert tuple(rec) == cli.SWEEP_COLUMNS, (g, d, e, r)
            rows += 1
    assert rows > 500


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_int_cells_0_and_1_stay_digits(tmp_path, capsys, monkeypatch, fmt, jobs):
    # 0 == False and 1 == True, and they hash alike, so a writer that maps
    # the bools through a lookup on the value would write such an int cell
    # as "false" or "true".  Row (1, 2, 3, 2) has g = n = 1, and row
    # (0, 3, 3, 3) has g = 0 and t = 1.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    grid = ("3", "1..3", "0..1", "1..6")
    path = tmp_path / f"small.{fmt}"
    argv = ["sweep", *(f"--{k}={v}" for k, v in zip("ergd", grid)),
            "--format", fmt, "--out", str(path), "--jobs", jobs]
    assert run(capsys, argv) == (0, "", "")
    assert path.read_bytes() == _gate_oracle_bytes(grid, fmt)
    lines = path.read_text().splitlines()
    if fmt == "csv":
        cells = [line.split(",")[:6] for line in lines[1:]]
    else:
        cells = [[str(v) for v in json.loads(line).values()][:6] for line in lines]
    assert all(cell.isdigit() for row in cells for cell in row), cells
    assert ["1", "2", "3", "2", "1", "3"] in cells and ["0", "3", "3", "3", "3", "1"] in cells


def test_serial_sweep_raises_only_where_a_later_gate_refuses(tmp_path, capsys,
                                                             monkeypatch):
    # 720 tuples of the acceptance grid have an integral n, and 572 are rows:
    # only the other 148 may build a ParameterError.  No clock is read.
    made = []
    init = ParameterError.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(ParameterError, "__init__", counted)
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", *ACCEPTANCE_GRID, "--out", str(path)])
    assert code == 0 and path.read_text().count("\n") == 573
    assert len(made) <= 148


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_breach_exits_3(tmp_path, capsys, monkeypatch, jobs):
    # The sweep's shared point factors come from engine.point_factor too.
    _scaled_point_factor(monkeypatch)
    code, _, err = run(capsys, ["sweep", "--e", "3", "--r", "3..4", "--g", "0..1",
                                "--d", "1..6", "--out", str(tmp_path / "x.csv"),
                                "--jobs", jobs])
    assert code == 3 and "invariant breach" in err
    _assert_no_child()


def test_serial_sweep_builds_each_point_factor_once(tmp_path, capsys):
    # The box runs e outermost, so the one-table memo builds each e with a
    # valid row once, and every other row, at any r, reads it.
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", *ACCEPTANCE_GRID, "--out", str(path)])
    assert code == 0
    rows = path.read_text().splitlines()[1:]
    valid = {int(row.split(",")[2]) for row in rows}
    info = engine.point_factor.cache_info()
    assert info.misses == len(valid) == 3
    assert info.hits + info.misses == len(rows) == 572


def test_sweep_holds_one_point_factor_table(tmp_path, capsys):
    # A sweep keeps one table per e, whatever its r: over r 1..300 one table
    # of e + 1 ints serves every row, and the traced peak stays under 1 MB.
    import tracemalloc

    argv = ["sweep", "--e", "3", "--r", "1..300", "--g", "0", "--d", "1..300",
            "--out", str(tmp_path / "x.csv")]
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1_000_000
    assert engine.point_factor.cache_info().misses == 1


def test_sweep_spends_nothing_on_r_below_1(tmp_path, capsys, monkeypatch):
    # No tuple with r < 1 passes the gate, so a million of them cost no
    # call to integral_degrees, let alone a g loop: at most one per d part.
    integral_degrees, calls = enumerativity.integral_degrees, []

    def counted(e, r, part):
        calls.append((e, r, part))
        return integral_degrees(e, r, part)

    monkeypatch.setattr(enumerativity, "integral_degrees", counted)
    path = tmp_path / "x.csv"
    argv = ["sweep", "--e", "3", "--r=-1000000..0", "--g", "0..1000", "--d", "1",
            "--out", str(path)]
    assert run(capsys, argv) == (0, "", "")
    assert len(calls) <= 1
    assert path.read_text() == ",".join(cli.SWEEP_COLUMNS) + "\n"


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


@pytest.mark.parametrize("method", ["closed", "engine", "both"])
def test_overflow_exits_2_without_a_traceback(capsys, method):
    # n is about 3*10^22, too many marks for a tuple of any size.
    code, out, err = run(capsys, ["hyp", "--g", "1", "--d", "3" + "0" * 22, "--e", "3",
                                  "--r", "1" + "0" * 22, "--method", method])
    assert (code, out) == (2, "")
    assert err.startswith("error: the parameters are too large") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_sweep_overflow_in_a_worker_exits_2_as_a_serial_sweep(tmp_path, capsys,
                                                              monkeypatch, jobs):
    # Chunk 0 is d 1..64; the overflowing tuple is chunk 1, a worker's.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["sweep", "--e", "3", "--r", "3", "--g", "0", "--d", "1..64,3" + "0" * 22]
    paths = [tmp_path / "serial.csv", tmp_path / "par.csv"]
    serial = run(capsys, argv + ["--out", str(paths[0])])
    assert serial[0] == 2 and serial[2].startswith("error: the parameters are too large")
    assert run(capsys, argv + ["--out", str(paths[1]), "--jobs", jobs]) == serial
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _assert_no_child()


def test_out_of_memory_exits_2_without_a_traceback():
    # 2*10^12 + 1 marks: the profile of HypParams.standard cannot be built
    # under the cap, whatever the --method.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "from tevdeg.cli import entrypoint; entrypoint()",
         "hyp", "--g", "0", "--d", "3000000000000", "--e", "3", "--r", "3",
         "--method", "closed"],
        env=env, capture_output=True, text=True, preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


# -- counts past the interpreter's 4300-digit str limit -------------------------------

BIG = (0, 6600, 3, 3)  # n = 4401; the count has 4,473 digits


HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")   # from 3.10.7 on


@contextlib.contextmanager
def _digit_limit(limit):
    """The int/str digit limit set to ``limit`` (0: none) inside the block."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def no_digit_limit():
    """Lift the int/str digit limit for the test's own comparisons only."""
    with _digit_limit(0):
        yield


@pytest.fixture
def low_digit_limit():
    """The int/str digit limit at its floor, 640, so that small inputs pass it."""
    if not HAS_DIGIT_LIMIT:
        pytest.skip("no int/str digit limit")
    with _digit_limit(640):
        yield


def _bytes_past_the_limit(capsys, argv):
    """(status, stdout, stderr) of argv at the lowered limit and with it lifted."""
    low = run(capsys, argv)
    sys.set_int_max_str_digits(0)
    return low, run(capsys, argv)


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_alpha_prints_multipliers_past_the_digit_limit(capsys, low_digit_limit, as_json):
    low, lifted = _bytes_past_the_limit(capsys, ["alpha", "--e", "270", "--r", "1",
                                                 *as_json])
    assert low == lifted and low[0] == 0
    assert max(len(str(v)) for v in closed_forms.alpha_coefficients(270, 1)) > 640


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_certify_prints_a_bound_past_the_digit_limit(capsys, low_digit_limit, as_json):
    g, d, e, r = 1, 3 * 10**330, 3, 10**330
    argv = ["certify", "--g", str(g), "--d", str(d), "--e", str(e), "--r", str(r)]
    low, lifted = _bytes_past_the_limit(capsys, argv + as_json)
    assert low == lifted and low[0] == 0
    rep = certify_enumerative(g, d, e, r)
    assert rep.closed_bound.denominator != 1
    assert min(len(str(rep.closed_bound.numerator)), len(str(rep.strata_checked))) > 640
    if as_json:
        doc = json.loads(low[1])
        assert doc["closed_bound"] == str(rep.closed_bound)
        assert doc["strata_checked"] == rep.strata_checked


BIG_D = "9" * 640   # digits at the lowered limit


@pytest.mark.parametrize("argv, code", [
    (["p1", "--g", "0", "--d", BIG_D], 0),                           # n = 2d + 1
    (["p1", "--g", "0", "--d", BIG_D, "--json"], 0),
    (["qh", "--g", "0", "--d", BIG_D, "--r", "1"], 0),               # n = 2d + 1
    (["qh", "--g", "0", "--d", BIG_D, "--r", "1", "--json"], 0),
    (["qh", "--g", "0", "--d", BIG_D, "--r", "2"], 2),               # (r+1)d = 3d
    (["qh", "--g", "0", "--d", "1", "--r", BIG_D], 2),               # (r+1)d = r + 1
    (["hyp", "--g", "0", "--d", BIG_D, "--e", "60", "--r", "1"], 2),  # n = -57d + 1
    (["insert", "--g", "0", "--d", BIG_D, "--e", "3", "--r", "12", "--ell", "1"], 2),
    (["insert", "--g", "0", "--d", "1", "--e", "3", "--r", BIG_D, "--ell", "0"], 2),  # r + 1
    # d = 1.5g gives n = 1, so the refusal reason names 2g.
    (["certify", "--g", "5" + "0" * 639, "--d", "75" + "0" * 638, "--e", "3", "--r", "3"], 0),
    (["certify", "--g", "5" + "0" * 639, "--d", "75" + "0" * 638, "--e", "3", "--r", "3",
      "--json"], 0),
], ids=["p1", "p1-json", "qh", "qh-json", "qh-refused", "qh-refused-big-r", "hyp-refused",
        "insert-refused", "insert-refused-big-r", "certify-refused", "certify-refused-json"])
def test_verbs_write_ints_past_the_digit_limit(capsys, low_digit_limit, argv, code):
    # Each output holds an int past the limit: the point count n, 11d, 2g,
    # the (r+1)d of a point count that is not an integer, or the r + 1 that
    # bounds an insertion dimension.
    low, lifted = _bytes_past_the_limit(capsys, argv)
    assert low == lifted and low[0] == code
    assert max(map(len, re.findall(r"\d+", low[1] + low[2]))) > 640


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
    # its doublings, sizes past the default digit limit, and both sides of
    # SPLIT_BITS, past which int_str calls split_str whatever the limit.
    sizes = [0, 1, 2, 127, 128, 129, 255, 256, 257, 513, 4096, 14300, 20000,
             SPLIT_BITS, SPLIT_BITS + 1, 70001]
    for bits in sizes:
        for _ in range(3):
            v = rng.getrandbits(bits) | (1 << max(bits - 1, 0)) if bits else 0
            assert split_str(v) == int_str(v) == str(v)
            assert split_str(-v) == int_str(-v) == str(-v)
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


def _rows_digest(rows):
    """The digest of (argv, exit status, stdout, stderr) rows."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update((json.dumps(list(row)) + "\n").encode())
    return digest.hexdigest()


def _corpus_digest(argvs):
    rows = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        rows.append((argv, code, out.getvalue(), err.getvalue()))
    return _rows_digest(rows)


def test_query_verbs_digest():
    argvs = _query_corpus()
    assert len(argvs) == QUERY_CORPUS_SIZE
    assert _corpus_digest(argvs) == QUERY_CORPUS_DIGEST


def _p1_corpus():
    """argv lists for p1 over g -1..12 and d 0..g+3, every method, text and --json."""
    argvs = []
    for g in range(-1, 13):
        for d in range(g + 4):
            tup = [f"--g={g}", f"--d={d}"]
            for method in ("cps", "schubert", "both"):
                argvs.append(["p1", *tup, "--method", method])
                argvs.append(["p1", *tup, "--method", method, "--json"])
    return argvs


# SHA-256 of every (argv, exit status, stdout, stderr) of the p1 corpus,
# hashed as for the query corpus.  Since p1 runs the P^r gate at r = 1,
# only the stderr of its 150 argv with n < 0 moved from the last digest.
P1_CORPUS_SIZE = 798
P1_CORPUS_DIGEST = "8da45cc6430d9cd21acfa938b2b4c8b034ff209a1596865d516fb5909da1aad5"


def test_p1_digest():
    argvs = _p1_corpus()
    assert len(argvs) == P1_CORPUS_SIZE
    assert _corpus_digest(argvs) == P1_CORPUS_DIGEST


def _json_shape(argv, doc):
    """The verb of a --json line, or for certify the kinds of two of its values."""
    if argv[0] != "certify":
        return {argv[0]}
    bound = doc["closed_bound"]
    return {("witness", type(doc["witness"]).__name__),
            ("closed_bound", "fraction" if bound and "/" in bound else bound)}


def test_json_lines_are_json_dumps_lines(capsys):
    # cli._json writes every query verb's --json line by hand; it must be
    # json.dumps' line.  Beyond the corpora: qh, certify at (1, 30, 3, 10),
    # whose bound is 85/3, where every corpus bound is an integer or absent,
    # and an insert whose 301 marks interleave three dimensions.
    checked, shapes = 0, set()
    extra = [["qh", "--g", "2", "--d", "2", "--r", "2", "--json"],
             ["certify", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--json"],
             ["insert", "--g", "0", "--d", "399", "--e", "3", "--r", "3",
              "--ell", ",".join(map(str, [1, 2, 1] * 100 + [3])), "--json"]]
    for argv in _query_corpus() + _p1_corpus() + extra:
        if "--json" not in argv:
            continue
        code, out, _ = run(capsys, argv)
        assert code == 0 or argv not in extra, argv
        if code == 0:
            doc = json.loads(out)
            assert json.dumps(doc) + "\n" == out, argv
            shapes |= _json_shape(argv, doc)
            checked += 1
    assert checked > 200
    assert {"p1", "hyp", "insert", "qh", "alpha", ("witness", "dict"), ("witness", "NoneType"),
            ("closed_bound", None), ("closed_bound", "all d"),
            ("closed_bound", "fraction")} <= shapes
    # No corpus argv makes two routes disagree, so call _report directly.
    # The insertion profile comes as the text cmd_insert joins.
    args = argparse.Namespace(json=True)
    params, flags = {"g": 1, "d": 2, "ell": cli._Verbatim("[3, 1]")}, {"certified": False}
    assert cli._report(args, params, flags, a=lambda: 5, b=lambda: -7) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert json.dumps(doc) + "\n" == out
    assert doc == {"params": {"g": 1, "d": 2, "ell": [3, 1]}, "agreement": False,
                   "flags": flags,
                   "results": [{"method": "a", "value": "5"}, {"method": "b", "value": "-7"}]}


# -- the parser is built once per process ----------------------------------------------

# A bad argv, a good hyp, --help, an unknown verb, a missing required flag,
# a bad choice, a good qh, help at another width, then argv the plain reader
# leaves to argparse (--flag=value, an abbreviation, a repeated flag, a
# value starting with "-", verb help) and one it reads in any flag order:
# (argv, COLUMNS) in call order.
SHARED_PARSER_SEQUENCE = [
    (["p1", "--g", "x", "--d", "4"], "80"),
    (["hyp", "--g", "1", "--d", "30", "--e", "3", "--r", "10"], "80"),
    (["--help"], "80"),
    (["frobnicate", "--g", "1"], "80"),
    (["hyp", "--g", "1", "--d", "30", "--e", "3"], "80"),
    (["p1", "--g", "3", "--d", "4", "--method", "bogus"], "80"),
    (["qh", "--g", "2", "--d", "2", "--r", "2"], "80"),
    (["--help"], "40"),
    (["insert", "--help"], "40"),
    (["hyp", "--g=1", "--d=30", "--e=3", "--r=10"], "80"),
    (["p1", "--meth", "both", "--g", "3", "--d", "4"], "80"),
    (["p1", "--g", "2", "--d", "4", "--g", "3"], "80"),
    (["p1", "--g", "-1", "--d", "4"], "80"),
    (["qh", "--json", "--g", "2", "--d", "2", "--r", "2"], "80"),
    (["insert", "-h"], "80"),
]


def _count_parsers(monkeypatch):
    """The list to which each parser built from now on adds its prog."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_plain_argv_builds_no_parser(capsys, monkeypatch):
    # A fresh cache, as in a new process.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    built = _count_parsers(monkeypatch)
    assert run(capsys, ["p1", "--g", "3", "--d", "4", "--json"])[0] == 0
    assert built == []
    assert run(capsys, ["p1", "--g=3", "--d", "4", "--json"])[0] == 0
    assert built[0] == "tevdeg" and len(built) == 1 + len(cli.VERBS)


def _fresh_process(argv, columns):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS=columns)
    proc = subprocess.run([sys.executable, "-m", "tevdeg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_gives_the_bytes_of_a_fresh_one(capsys, monkeypatch):
    # Plain argv needs no parser, so the first call is one argparse reads.
    main(["p1", "--g=3", "--d", "4"])
    capsys.readouterr()
    built = _count_parsers(monkeypatch)
    for argv, columns in SHARED_PARSER_SEQUENCE:
        monkeypatch.setenv("COLUMNS", columns)
        assert run(capsys, argv) == _fresh_process(argv, columns), argv
    assert built == []
    assert cli.build_parser() is cli.build_parser()


# The 9 help screens at COLUMNS=80: the program's and each verb's.
HELP_ARGV = [["--help"]] + [[verb, "--help"] for verb in
                            ("p1", "hyp", "insert", "alpha", "qh", "certify", "sweep",
                             "verify")]
HELP_DIGEST = "77f9bf6347ac5c80fdebad51be0ac936e16d6b83538303b8c4a4ae12362904a6"


def test_help_screens_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _corpus_digest(HELP_ARGV) == HELP_DIGEST


# -- an unwritable stdout ------------------------------------------------------------------

class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


class _FullAtFlush(io.StringIO):
    """Takes every write, as a buffer would, and fails at the flush."""

    def flush(self):
        raise OSError(28, "No space left on device")


class _FailsOnce(io.StringIO):
    """Fails the first write and takes the rest, so no later flush sees the loss."""

    failed = False

    def write(self, text):
        if not self.failed:
            self.failed = True
            raise OSError(28, "No space left on device")
        return super().write(text)


STDOUT_VERBS = [
    ["p1", "--g", "3", "--d", "4"],
    ["hyp", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--json"],
    ["insert", "--g", "0", "--d", "3", "--e", "3", "--r", "3", "--ell", "1,1,1"],
    ["alpha", "--e", "3", "--r", "3"],
    ["qh", "--g", "2", "--d", "2", "--r", "2"],
    ["certify", "--g", "1", "--d", "30", "--e", "3", "--r", "10"],
    ["verify"],
    ["--help"],
]


@pytest.mark.parametrize("stdout", [_FullStdout, _FullAtFlush, _FailsOnce])
@pytest.mark.parametrize("argv", STDOUT_VERBS, ids=lambda argv: argv[0])
def test_unwritable_stdout_exits_2(capsys, monkeypatch, argv, stdout):
    from tevdeg import acceptance

    passed = acceptance.CriterionResult(1, "stand-in", True, "ok")
    monkeypatch.setattr(acceptance, "run_all", lambda: [passed])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", stdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stdout_exits_2_in_a_subprocess(unbuffered):
    # Buffered, the write fails only at a flush, and Python flushes once
    # more on exit.  Help is output too.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["p1", "--g", "3", "--d", "4"],
                 ["qh", "--g", "2", "--d", "2", "--r", "2", "--json"],
                 ["--help"], ["p1", "--help"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "tevdeg.cli", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: cannot write stdout:")
        assert proc.stderr.count("\n") == 1


# -- argv fuzz ---------------------------------------------------------------------------

# The query verbs, each with its flags that take a free value, and the
# --method choices of those that have one, all read from the verb table.
FUZZ_FLAGS = {name: [f"--{flag.name}" for flag in flags
                     if flag.type is not bool and flag.choices is None]
              for name, (_, _, flags) in cli.VERBS.items() if name not in ("sweep", "verify")}
FUZZ_METHODS = {name: list(flag.choices) for name, (_, _, flags) in cli.VERBS.items()
                for flag in flags if flag.name == "method"}
# Each int flag draws from a range that passes the dimension gates often
# enough to reach the computations, or from all of |x| <= 60.
FUZZ_TYPICAL = {"--g": (0, 3), "--d": (1, 60), "--e": (3, 6), "--r": (1, 12), "--n": (1, 12)}
FUZZ_INT = st.integers(-60, 60).map(str)
# The int/str digit limit the fuzz runs under: its floor, so that a --d of
# 640 digits can make ints past it.
FUZZ_DIGIT_LIMIT = 640
# Ints, and tokens int() takes or refuses, so that --ell reaches parse_ell's
# error path too.
FUZZ_ELL = st.lists(st.integers(-3, 60).map(str) | st.sampled_from(ELL_TOKENS),
                    max_size=6).map(",".join)
FUZZ_GARBAGE = st.sampled_from(
    ["", "x", "-", "--", "3.5", "1e3", "0x10", " 7", "1,2", "1,,2", "..", "-0",
     "\u0663", "cps", "closed", "--zz", "-q", "-h", "--json", "--meth", "--method=both",
     "--g=3", "--g", "--n"]
) | st.text(max_size=6)


@st.composite
def fuzz_argv(draw):
    """A verb with each of its flags, most of them with an int, then a few
    garbage tokens, repeated or unknown flags at random places."""
    verb = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    values = {flag: draw(FUZZ_ELL if flag == "--ell" else
                         st.integers(*FUZZ_TYPICAL[flag]).map(str) | FUZZ_INT)
              for flag in FUZZ_FLAGS[verb]}
    if verb == "p1":
        values["--g"] = str(draw(st.integers(0, 200) | st.integers(-60, 60)))
    r = int(values.get("--r", 0))
    if "--e" in values and 0 < r <= 12 and draw(st.booleans()):
        # d a multiple of r, so that the point count n is an integer.
        values["--d"] = str(r * draw(st.integers(0, 60 // r)))
    if "--d" in values and draw(st.integers(0, 3)) == 0:
        # Up to FUZZ_DIGIT_LIMIT digits, so that a point count of about 2d,
        # as in p1 and qh, can pass it.  Only --d is drawn so big: a huge --e
        # or --g costs unbounded time in alpha or p1.
        values["--d"] = str(draw(st.integers(10**638, 10**640 - 1)))
    argv = [verb]
    for flag in draw(st.permutations(FUZZ_FLAGS[verb])):
        if draw(st.sampled_from([True] * 19 + [False])):
            argv += [flag, values[flag]]
    if verb in FUZZ_METHODS and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(FUZZ_METHODS[verb]))]
    if draw(st.booleans()):
        argv.append("--json")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        token = draw(FUZZ_GARBAGE | st.sampled_from(FUZZ_FLAGS[verb]) | FUZZ_INT)
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@given(fuzz_argv())
# The point count n = 2d + 1 of these has 641 digits, past FUZZ_DIGIT_LIMIT.
@example(["p1", "--g", "0", "--d", BIG_D, "--json"])
@example(["qh", "--g", "0", "--d", BIG_D, "--r", "1"])
@settings(deadline=None, max_examples=400)
def test_argv_fuzz_keeps_the_exit_status_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with (_digit_limit(FUZZ_DIGIT_LIMIT), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


# Each sweep range flag draws parts that start in [lo, hi] and span at most
# `span` values more, so that every example sweeps a small box around 0.
SWEEP_FUZZ_RANGES = {"--g": (-2, 3, 3), "--d": (-2, 30, 15), "--e": (-1, 5, 3),
                     "--r": (-1, 8, 3)}
SWEEP_FUZZ_GARBAGE = ["x", "..", "3.5", "1,,2", "--zz", "--format=xml", "--jobs=0",
                      "--jobs=-1", "--d=5..3", "--g", "--out"]


@st.composite
def fuzz_sweep_parts(draw):
    """A sweep's range flags, in random order and form, and its format; now
    and then a garbage token after them.  (head, tail), for the test to put
    --out and --jobs between."""
    argv = ["sweep"]
    for flag in draw(st.permutations(sorted(SWEEP_FUZZ_RANGES))):
        lo, hi, span = SWEEP_FUZZ_RANGES[flag]
        parts = []
        for _ in range(draw(st.integers(1, 2))):
            a = draw(st.integers(lo, hi))
            # Now and then b < a: an empty range, which exits 2.
            b = a + draw(st.sampled_from([-1] + [*range(span + 1)] * 5))
            parts.append(draw(st.sampled_from([str(a), f"{a}..{b}"])))
        text = ",".join(parts)
        plain = not text.startswith("-") and draw(st.booleans())
        argv += [flag, text] if plain else [f"{flag}={text}"]
    argv += ["--format", draw(st.sampled_from(["csv", "jsonl"]))]
    tail = []
    if draw(st.integers(0, 9)) == 0:
        tail.append(draw(st.sampled_from(SWEEP_FUZZ_GARBAGE)))
    return argv, tail


@given(fuzz_sweep_parts(), st.integers(1, 2))
@settings(deadline=None, max_examples=100)
def test_sweep_argv_fuzz_keeps_the_exit_status_contract(tmp_path_factory, parts, jobs):
    head, tail = parts
    outs = {}
    for n in sorted({jobs, 1}):
        path = tmp_path_factory.getbasetemp() / f"fuzz-{n}.out"
        path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*head, "--out", str(path), "--jobs", str(n), *tail])
        assert code in (0, 2), (head, tail, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue() and stdout.getvalue() == ""
        if code == 2:
            return
        outs[n] = path.read_bytes()
    assert outs[jobs] == outs[1]


# -- the plain argv reader ----------------------------------------------------------------

# One plain argv per verb, every flag given.
PLAIN_ARGV = [
    ["p1", "--g", "3", "--d", "4", "--method", "cps", "--json"],
    ["hyp", "--g", "1", "--d", "30", "--e", "3", "--r", "10", "--method", "engine"],
    ["insert", "--g", "0", "--d", "6", "--e", "3", "--r", "3", "--ell", "2,2,2,1,1,1",
     "--method", "closed", "--json"],
    ["alpha", "--e", "3", "--r", "3", "--json"],
    ["qh", "--json", "--g", "2", "--d", "2", "--r", "2", "--n", "3"],
    ["certify", "--g", "1", "--d", "5", "--e", "3", "--r", "5", "--json"],
    ["sweep", "--g", "0..3", "--d", "1..30", "--e", "3..5", "--r", "3..10",
     "--format", "jsonl", "--out", "grid.jsonl", "--jobs", "2"],
    ["verify"],
]


def _read_plain_checked(argv):
    """The plain reader's namespace for argv, held equal to argparse's."""
    fast = cli._read_plain(argv)
    if fast is not None:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                want = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses an argv the plain reader read: {argv}")
        assert vars(fast) == vars(want), argv
    return fast


def _split(argv):
    """argv with each --flag=value token split into --flag, value."""
    return [part for token in argv
            for part in (token.split("=", 1) if token.startswith("--") else [token])]


def test_plain_reader_reads_the_plain_form_of_every_verb():
    assert sorted(argv[0] for argv in PLAIN_ARGV) == sorted(cli.VERBS)
    for argv in PLAIN_ARGV:
        assert _read_plain_checked(argv) is not None, argv
    # With the defaults, as the other tests call them.
    for argv in [[verb, *flags] for verb, flags in ROUTE_ARGV.items()] + STDOUT_VERBS[:-1]:
        assert _read_plain_checked(argv) is not None, argv


def test_plain_reader_agrees_with_argparse_on_the_corpora():
    corpus = _query_corpus() + _p1_corpus()
    read = 0
    for argv in corpus:
        assert _read_plain_checked(argv) is None, argv     # --flag=value
        read += _read_plain_checked(_split(argv)) is not None
    # All but those with a negative value, such as "--g", "-1", which argparse reads.
    assert read == sum("=-" not in " ".join(argv) for argv in corpus) == 1370


@given(fuzz_argv())
@settings(deadline=None, max_examples=1000)
def test_plain_reader_agrees_with_argparse_on_fuzz_argv(argv):
    _read_plain_checked(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["frobnicate", "--g", "3"], ["p1", "--help"],
    ["p1", "--g", "3", "--d", "4", "-h"],
    ["p1", "--g", "3", "--", "--d", "4"],
    ["p1", "--g=3", "--d", "4"],
    ["p1", "--g", "3", "--d", "4", "--meth", "cps"],
    ["p1", "--g", "3", "--d", "4", "extra"],
    ["p1", "--g", "3", "--g", "4", "--d", "4"],
    ["p1", "--g", "3", "--d", "4", "--json", "--json"],
    ["p1", "--g", "3"],
    ["p1", "--g", "3", "--d"],
    ["p1", "--g", "-1", "--d", "4"],
    ["p1", "--g", "--d", "4"],
    ["p1", "--g", "x", "--d", "4"],
    ["p1", "--g", "3.5", "--d", "4"],
    ["p1", "--g", "3", "--d", "4", "--method", "bogus"],
    ["sweep", "--g", "0", "--d", "3", "--e", "3", "--r", "3", "--out", "-"],
], ids=str)
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_plain(argv) is None
