import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from coxlen.cli import build_parser, main
from coxlen.errors import CertificateError


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main(list(args) + ["--output", str(path)])
    data = path.read_bytes() if path.exists() else b""
    return code, data


def test_classify_summary(tmp_path):
    code, data = run_cli(["classify", "--inline", "rank 3; m12=3 m13=3 m23=4"],
                         tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["report"]["summary"] == "NonAffine, minimal non-affine, signature (2,1,0)"
    assert doc["tool"] == "coxlen" and doc["version"]
    assert doc["config"]["inline"].startswith("rank 3")


def test_classify_reads_json_file(tmp_path):
    src = tmp_path / "m.json"
    src.write_text('{"matrix": [[1, 0], [0, 1]]}')
    code, data = run_cli(["classify", "--input", str(src)], tmp_path)
    assert code == 0
    assert json.loads(data)["report"]["kind"] == "AffineEuclidean"


def test_affine_bound_summary(tmp_path):
    code, data = run_cli(["affine-bound", "--inline", "rank 2; m12=inf",
                          "-L", "12"], tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert report["summary"] == "max reflection length 2 = 2n, attained"
    assert report["max_value"] == 2 and report["attained"]


def test_qm_certify_report(tmp_path):
    code, data = run_cli(["qm-certify", "--k", "3", "--pattern", "abc",
                          "--g", "abc", "--K", "6"], tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert report["raw_defect"] == 1
    assert report["constant"] == "1/2"
    assert report["bounds"] == {"1": 1, "2": 1, "3": 2, "4": 2, "5": 3, "6": 3}
    # round-trips through re-parse
    assert json.loads(json.dumps(report)) == report


def test_growth_csv_schema(tmp_path):
    code, data = run_cli(["growth", "--inline", "rank 2; m12=inf",
                          "--word", "ab", "--K", "4"], tmp_path)
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[2] == "k,upper,lower,status"
    assert lines[3] == "1,2,2,Exact"
    assert len(lines) == 7


def test_reflen_ball_csv_schema(tmp_path):
    code, data = run_cli(["reflen", "--inline", "rank 2; m12=3",
                          "-L", "3", "-D", "2"], tmp_path)
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[2] == "key,len_S,upper,lower,status"
    assert len(lines) == 3 + 6  # all of A2
    keys = [ln.split(",")[0] for ln in lines[3:]]
    assert len(set(keys)) == 6


def test_reflen_word_report(tmp_path):
    code, data = run_cli(["reflen", "--inline", "rank 3; m12=3 m13=3 m23=3",
                          "--word", "abcabc"], tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert report["upper"] == 4 and report["status"] == "Exact"
    assert len(report["witness"]) == 4


def test_filling_report(tmp_path):
    code, data = run_cli(["filling", "--p", "2", "--q", "3", "--h", "1"], tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert report["prime"] == 7
    assert report["certified_boundary_length_bound"] == "13/2"
    assert report["cusps"]["1"]["short_elements"] == 26
    assert report["margin_over_two_pi"]["decimal"][0].startswith("0.21681")
    assert all(report["parabolic_injectivity"].values())


def test_warp_csv(tmp_path):
    code, data = run_cli(["warp", "--L", "6.5", "--grid", "64"], tmp_path)
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[2] == "r,f,fp,fpp"
    assert len(lines) == 3 + 64
    last = lines[-1].split(",")
    assert float(last[0]) == 0.0 and float(last[1]) == 1.0


@pytest.mark.parametrize("argv", [
    ["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf", "--word", "abc", "--K", "3",
     "-D", "0"],
    ["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf", "--word", "abc", "--K", "3",
     "--pattern", "abc"],
    ["reflen", "--inline", "rank 3; m12=3 m13=3 m23=4", "-L", "3", "-D", "0"],
    ["reflen", "--inline", "rank 3; m12=inf m13=inf m23=inf", "-L", "4", "-D", "2"],
    ["warp", "--L", "6.5", "--grid", "16"],
])
def test_csv_rows_hold_no_none(tmp_path, monkeypatch, argv):
    # csv_report renders a cell by str: every row a CLI report writes holds
    # a value in each column, an upper bound included
    import coxlen.cli

    real = coxlen.cli.csv_report
    written = []

    def recording(header, rows, config):
        rows = [tuple(row) for row in rows]
        written.extend(rows)
        return real(header, rows, config)

    monkeypatch.setattr(coxlen.cli, "csv_report", recording)
    code, data = run_cli(argv, tmp_path)
    assert code == 0 and written
    assert not any(c is None for row in written for c in row)
    assert b"None" not in data


@pytest.mark.parametrize("text, subsets", [
    ("rank 24; m12=inf m13=inf m23=inf", [[1, 2, 3]]),
    ("rank 42; m1_2=inf m1_3=inf m2_3=inf m4_5=3 m5_6=3 m6_7=3 m7_8=3 m4_8=4 "
     "m9_10=3 m9_11=3 m9_12=3 m9_13=3 m13_14=3 m20_21=5 m21_22=3 m22_23=3 m23_24=3",
     [[1, 2, 3], [4, 5, 6, 7, 8], [20, 21, 22, 23, 24], [9, 10, 11, 12, 13, 14]]),
])
def test_subgroups_of_sparse_high_rank_diagrams(tmp_path, text, subsets):
    # the walk grows connected subsets, so the isolated generators cost
    # nothing; a walk over all 2^rank subsets does not end on these
    code, data = run_cli(["subgroups", "--inline", text], tmp_path)
    assert code == 0
    assert json.loads(data)["report"] == {"count": len(subsets),
                                          "minimal_nonaffine_subsets": subsets}


def test_exit_code_domain_error(tmp_path, capsys):
    code = main(["subgroups", "--inline", "rank 3; m12=3 m13=3 m23=3",
                 "--output", str(tmp_path / "x")])
    assert code == 1
    assert "affine" in capsys.readouterr().err


def test_exit_code_input_error(tmp_path, capsys):
    code = main(["classify", "--inline", "rank 2; m21=3",
                 "--output", str(tmp_path / "x")])
    assert code == 1
    capsys.readouterr()


def test_exit_code_resource_cap(tmp_path, capsys):
    code = main(["qm-certify", "--k", "3", "--pattern", "abcabcabcabc",
                 "--g", "abc", "--window", "36", "--output", str(tmp_path / "x")])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_defect_window_cap_states_the_count(tmp_path, capsys):
    # every window >= 2|w| - 1 counts the same triples, so the message names
    # k, |w|, the count and the cap instead of a window to try
    code, _ = run_cli(["qm-certify", "--k", "4", "--pattern", "dabc", "--g", "adbcd"],
                      tmp_path)
    assert code == 2
    assert capsys.readouterr().err == (
        "resource cap: the defect window for k = 4 and a pattern of length 4 "
        "counts 12283757 (a, c, b) combinations, above the cap of 5000000\n")


def test_growth_refuses_a_pattern_on_a_finite_bond(tmp_path, capsys):
    # the certificate bounds reflection length in free Coxeter groups only;
    # on a finite bond the pattern would be dropped from every row
    code, data = run_cli(["growth", "--inline", "rank 3; m12=3 m13=3 m23=3",
                          "--word", "abc", "--K", "3", "--pattern", "abc"], tmp_path)
    assert (code, data) == (1, b"")
    assert capsys.readouterr().err.startswith("error: --pattern certifies free")
    code, data = run_cli(["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf",
                          "--word", "abc", "--K", "3", "--pattern", "abc"], tmp_path)
    assert code == 0
    assert data.decode().splitlines()[-3:] == ["1,3,3,Exact", "2,4,4,Exact",
                                               "3,5,5,Exact"]


def test_growth_has_no_window(tmp_path, capsys):
    # every window >= 3|w| gives the same certificate, and the CSV never
    # printed it
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf",
                 "--word", "abc", "--pattern", "abc", "--window", "9"], tmp_path)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --window 9" in capsys.readouterr().err


def test_reports_are_deterministic(tmp_path):
    configs = [
        ["classify", "--inline", "rank 3; m12=3 m13=3 m23=4"],
        ["filling", "--p", "2", "--q", "3", "--h", "1"],
        ["warp", "--L", "6.5", "--grid", "64"],
        ["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf",
         "--word", "abc", "--K", "3", "--pattern", "abc"],
    ]
    for cfg in configs:
        _, first = run_cli(cfg, tmp_path, "a")
        _, second = run_cli(cfg, tmp_path, "b")
        assert first == second, cfg


def test_reflen_ball_csv_bytes_are_pinned(tmp_path):
    # sha256 of the whole report, recorded before elements were packed: the
    # key column digests canonical_key bytes, and the rows keep their order
    pinned = {
        ("rank 3; m12=3 m13=3 m23=4", "4"):
            "66873c32dba707405e538a5c31556d46fd62660c15d4fc5d79b5fb0f4a21b9dd",
        ("rank 3; m12=3 m23=5", "3"):
            "f16a2aab27ecfa90c4fca9638c01cf355aa8f12d53551f9dd6b43f40c44a3a77",
    }
    for (text, L), digest in pinned.items():
        code, data = run_cli(["reflen", "--inline", text, "-L", L, "-D", "2"], tmp_path)
        assert code == 0
        assert hashlib.sha256(data).hexdigest() == digest, text


def _pinned_run(argv, tmp_path, capsys):
    """(exit code, first 16 hex digits of the sha256 of the report bytes
    followed by the stderr text)."""
    capsys.readouterr()
    (tmp_path / "out").unlink(missing_ok=True)
    code, data = run_cli(argv, tmp_path)
    digest = hashlib.sha256(data + capsys.readouterr().err.encode()).hexdigest()[:16]
    return code, digest


# Lab report digests and exit codes, so that no change to the short-set walk,
# the defect window or the grid tests moves a byte.  Filling: every supported
# (p, q) at nine heights (h = 25 runs out of primes below the cap).  Warp: L
# from 6.5 to past the last feasible length.  qm-certify: the seed-1
# perfbench inputs (k = 4, |w| = 4 hits the window cap), then every window
# |w| .. 3|w| + 1 for abc and cbab.
_FILLING_PINS = {
    "2 3 1": (0, "47d03a5ef3f55bca"),
    "2 3 3/2": (0, "be6a62f06ec33081"),
    "2 3 2": (0, "deee3b04912d0642"),
    "2 3 7/3": (0, "22418c3a68bf4a0c"),
    "2 3 8/3": (0, "98afc4c4458a32a2"),
    "2 3 3": (0, "f9919de65ad34511"),
    "2 3 5": (0, "2904ec588e1ae89c"),
    "2 3 10": (0, "7c069c9af55fa4c6"),
    "2 3 25": (1, "121ffcde061b3de9"),
    "2 inf 1": (0, "33f05c8bdaeb8ee0"),
    "2 inf 3/2": (0, "70d1b55935cb98fe"),
    "2 inf 2": (0, "964516ed35a8a670"),
    "2 inf 7/3": (0, "bccac6021190679a"),
    "2 inf 8/3": (0, "a7d142cf1f457f05"),
    "2 inf 3": (0, "c34ba86dc6aa42c9"),
    "2 inf 5": (0, "6fceedf05c484b23"),
    "2 inf 10": (0, "9a52b47498570615"),
    "2 inf 25": (1, "4c43eb542bb57558"),
    "inf inf 1": (0, "6af21e1ca106681e"),
    "inf inf 3/2": (0, "8e0bb2cfda82bdbe"),
    "inf inf 2": (0, "3903a5c2723e6f15"),
    "inf inf 7/3": (0, "d4faf7112755f528"),
    "inf inf 8/3": (0, "09a5d3bb8f9e6902"),
    "inf inf 3": (0, "77b61ff812039851"),
    "inf inf 5": (0, "b7b921bc77373fb4"),
    "inf inf 10": (0, "fd43be5d2fb875b7"),
    "inf inf 25": (0, "9636fb29b1c9bc51"),
}
_WARP_PINS = {
    "6.5": (0, "dd36f59ffb6b5cd4"),
    "7.687": (0, "48cf242d8ca27c17"),
    "12.681": (0, "f18a6abcfe9fa8f2"),
    "19.292": (0, "e73f016444bbd447"),
    "20.998": (0, "699361cce55bc217"),
    "37.077": (0, "8529aa5588c983db"),
    "56.047": (0, "660037615ca48534"),
    "74.8": (0, "4cc112b560c347da"),
    "113.19": (0, "0f62a40cb9781a04"),
    "140": (0, "7cffaccf70c17bc5"),
    "146.5": (0, "37b9a6c281e3383f"),
    "150": (1, "d10acf473b1af2a3"),
}
_QM_PINS = {
    "--k 4 --pattern bdc --g bcbd --K 40": (0, "d41c942b316ed36a"),
    "--k 3 --pattern abc --g bcbab --K 40": (0, "404cd21722e840d2"),
    "--k 3 --pattern cab --g cbc --K 40": (0, "52d13c3f4d441ecf"),
    "--k 3 --pattern abc --g abc --K 6": (0, "2361f2f2e31eb8f3"),
    "--k 3 --pattern cbab --g bcbc --K 40": (0, "369fef536a94a384"),
    "--k 4 --pattern dabc --g adbcd --K 40": (2, "011557fc29c5d360"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 3": (1, "bd4b2d89d6ec125a"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 4": (1, "520240ba1132b279"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 5": (1, "4319c8489b3dd76a"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 6": (1, "102413efdb5d8c38"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 7": (1, "5bbec6c151dd6af4"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 8": (1, "3fb194a819e6067d"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 9": (0, "4a16db2c32043bb7"),
    "--k 3 --pattern abc --g bcbab --K 40 --window 10": (0, "f503b8c4045901fa"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 4": (1, "520240ba1132b279"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 5": (1, "4319c8489b3dd76a"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 6": (1, "102413efdb5d8c38"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 7": (1, "5bbec6c151dd6af4"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 8": (1, "3fb194a819e6067d"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 9": (1, "136b15b405bbd35b"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 10": (1, "bb6f0cfc8113f83e"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 11": (1, "268e4badfb94e365"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 12": (0, "9686a952794df6ff"),
    "--k 3 --pattern cbab --g bcbc --K 40 --window 13": (0, "fac693723e177152"),
}


def test_filling_reports_are_pinned(tmp_path, capsys):
    for args, pin in _FILLING_PINS.items():
        p, q, h = args.split()
        assert _pinned_run(["filling", "--p", p, "--q", q, "--h", h],
                           tmp_path, capsys) == pin, args


def test_warp_reports_are_pinned(tmp_path, capsys):
    for L, pin in _WARP_PINS.items():
        assert _pinned_run(["warp", "--L", L], tmp_path, capsys) == pin, L


def test_qm_certify_reports_are_pinned(tmp_path, capsys):
    for args, pin in _QM_PINS.items():
        assert _pinned_run(["qm-certify"] + args.split(), tmp_path, capsys) == pin, args


def test_classify_with_a_wide_conductor(tmp_path):
    for m in (71, 391):
        code, data = run_cli(["classify", "--inline", "rank 2; m12=%d" % m], tmp_path)
        assert code == 0, m
        assert json.loads(data)["report"]["kind"] == "Spherical"


def test_warp_without_a_feasible_bridge_names_the_search(tmp_path, capsys):
    code, _ = run_cli(["warp", "--L", "150"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "None" not in err
    assert "3276 candidates" in err and "L = 150.0" in err and "r_T = " in err


def test_cli_imports_neither_numpy_nor_sympy():
    import os
    import subprocess
    import sys

    import coxlen

    script = (
        "import os, sys, tempfile\n"
        "import coxlen, coxlen.cli\n"
        "out = os.path.join(tempfile.mkdtemp(), 'out')\n"
        "for argv in (['classify', '--inline', 'rank 3; m12=5 m23=3'],\n"
        "             ['warp', '--L', '6.5', '--grid', '64']):\n"
        "    assert coxlen.cli.main(argv + ['--output', out]) == 0, argv\n"
        "assert coxlen.RealCyclotomicField(5).degree == 2\n"
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_runs_build_no_exact_scalar(tmp_path, monkeypatch):
    # every computation works on Z[theta] coefficient tuples: runs over new
    # fields and empty caches, at computation/report field degrees 2/8 (H3)
    # and 8/16, build no ExactScalar
    import coxlen.coxeter
    import coxlen.reflen
    from coxlen.exactfield import ExactScalar, RealCyclotomicField

    for module, name in ((RealCyclotomicField, "_cache"), (coxlen.coxeter, "_KIND_CACHE"),
                         (coxlen.reflen, "_GROUP_CACHE"), (coxlen.reflen, "_REFLECTION_CACHE")):
        monkeypatch.setattr(module, name, {})
    built = []
    init = ExactScalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting)
    for text in ("rank 3; m12=3 m23=5", "rank 3; m12=4 m13=3 m23=5"):
        for argv in (["classify"], ["reflen", "-L", "3", "-D", "2"],
                     ["reflen", "--word", "abcb"], ["growth", "--word", "abc", "--K", "2"]):
            assert run_cli(argv + ["--inline", text], tmp_path)[0] == 0, (text, argv)
    for argv in (["subgroups", "--inline", "rank 3; m12=4 m13=3 m23=5"],
                 ["affine-bound", "--inline", "rank 3; m12=3 m13=3 m23=3", "-L", "3"]):
        assert run_cli(argv, tmp_path)[0] == 0, argv
    assert built == []
    ExactScalar(RealCyclotomicField(5), (1, 0))      # the counter sees a construction
    assert len(built) == 1


def test_reflen_ball_honours_node_cap(tmp_path):
    # the 57-element ball fits under the cap; the search's second layer
    # over the 24 reflections of depth <= 4 does not
    code, _ = run_cli(["reflen", "--inline", "rank 3; m12=3 m13=3 m23=4",
                       "-L", "5", "-D", "4", "--node-cap", "100"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("argv,cap", [
    (["reflen", "--inline", "rank 3; m12=inf m13=inf m23=inf", "--word", "abcabcabcacb",
      "--node-cap", "10"], None),
    (["reflen", "--inline", "rank 3; m12=3 m13=3 m23=4", "-L", "5", "-D", "4",
      "--node-cap", "100"], None),
    # growth has no --node-cap: the default is lowered in its place
    (["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf", "--word", "abc",
      "--K", "4"], 10),
], ids=["word", "ball", "growth"])
def test_a_search_cut_short_by_its_cap_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                 monkeypatch, argv, cap):
    # a result the node cap truncated is never reported: the run names the
    # cap on stderr and writes neither stdout nor --output
    import coxlen.cli

    if cap is not None:
        monkeypatch.setattr(coxlen.cli, "NODE_CAP", cap)
    limit = cap or int(argv[-1])
    line = "resource cap: search exceeded the node cap of %d stored elements\n" % limit
    assert run_cli(argv, tmp_path) == (2, b"")
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", line)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line)


def test_reflen_word_runs_every_search_under_node_cap(tmp_path, monkeypatch):
    # the exact solver and each ladder rung answer to --node-cap alike: on
    # A~2 (abc)^6 the solver and the D = 6 rung exceed a cap of 200 and give
    # way, and the D = 4 rung gives the upper bound
    import inspect

    import coxlen.reflen

    real = coxlen.reflen.min_product_length
    caps = []

    def recording(*args, **kwargs):
        call = inspect.signature(real).bind(*args, **kwargs)
        call.apply_defaults()
        caps.append(call.arguments["cap"])
        return real(*args, **kwargs)

    monkeypatch.setattr(coxlen.reflen, "min_product_length", recording)
    code, data = run_cli(["reflen", "--inline", "rank 3; m12=3 m13=3 m23=3",
                          "--word", "abc" * 6, "--node-cap", "200"], tmp_path)
    assert code == 0
    assert caps == [200] * 4
    report = json.loads(data)["report"]
    assert (report["upper"], report["lower"], report["status"], report["depth_used"]) == \
        (4, 2, "Bracketed", 4)


@pytest.mark.parametrize("mode", [["-L", "2"], ["--word", "ab"]])
def test_reflen_negative_depth_is_a_domain_error(tmp_path, capsys, mode):
    code, _ = run_cli(["reflen", "--inline", "rank 2; m12=3", "-D", "-1"] + mode,
                      tmp_path)
    assert code == 1
    assert "depth" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["reflen", "--inline", "rank 2; m12=3", "-L", "-2"],
                                  ["affine-bound", "--inline", "rank 2; m12=inf", "-L", "-1"]])
def test_negative_ball_radius_is_a_domain_error(tmp_path, capsys, argv):
    code, _ = run_cli(argv, tmp_path)
    assert code == 1
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["-L", "2"], ["--word", "abc"]])
def test_negative_node_cap_is_a_domain_error(tmp_path, capsys, mode):
    code, _ = run_cli(["reflen", "--inline", "rank 3", "--node-cap", "-1"] + mode,
                      tmp_path)
    assert code == 1
    assert "node cap" in capsys.readouterr().err


def test_growth_reads_generators_beyond_z(tmp_path):
    # growth prints no words, so a generator without a letter is accepted
    code, data = run_cli(["growth", "--inline", "rank 27; m1_27=3", "--word", "1 27 1",
                          "--K", "2"], tmp_path)
    assert code == 0
    assert data.decode().splitlines()[-2:] == ["1,1,1,Exact", "2,0,0,Exact"]


def test_exit_code_certificate_error(tmp_path, capsys, monkeypatch):
    import coxlen.cli

    def broken(cm):
        raise CertificateError("planted")

    monkeypatch.setattr(coxlen.cli, "classify_group", broken)
    code = main(["classify", "--inline", "rank 2; m12=3",
                 "--output", str(tmp_path / "x")])
    assert code == 3
    assert "planted" in capsys.readouterr().err


def _plant_in_cusp_data(monkeypatch, bad):
    # cusp 1 of (2,3,inf) sits at infinity; one of its stabilizer's mirrors
    # becomes the unit circle, whose reflection z -> 1/conj(z) moves infinity
    import coxlen.filling as filling
    real = filling._cusp_data
    monkeypatch.setattr(filling, "_cusp_data",
                        lambda gens, s, vertex: real(gens[:2] + (bad,), s, vertex))


def _plant_in_model(monkeypatch, bad):
    import coxlen.cli
    real = coxlen.cli.build_triangle_model

    def planted(p, q):
        model = real(p, q)
        model.generators = model.generators[:2] + (bad,)
        return model

    monkeypatch.setattr(coxlen.cli, "build_triangle_model", planted)


@pytest.mark.parametrize("plant", [_plant_in_cusp_data, _plant_in_model],
                         ids=["mirror-offset", "affine-action"])
def test_filling_with_a_planted_bad_generator_exits_3(tmp_path, capsys, monkeypatch,
                                                      plant):
    # the filling model checks the matrices it builds itself, so a bad
    # generator is a failed certificate check, not a bad input
    from coxlen.filling import PlaneIsometry

    plant(monkeypatch, PlaneIsometry.make(0, 1, 1, 0, True))
    code, _ = run_cli(["filling", "--p", "2", "--q", "3", "--h", "1"], tmp_path)
    assert code == 3
    assert capsys.readouterr().err.startswith("certificate check failed: element ")


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    args = ["reflen", "--inline", "rank 3; m12=3 m13=3 m23=4", "--word", "abcb"]
    first, second, alone = (tmp_path / name for name in ("first", "second", "alone"))
    assert main(args + ["-D", "4", "--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert capsys.readouterr().out == ""
    build_parser.cache_clear()
    assert main(args + ["--output", str(alone)]) == 0
    assert second.read_bytes() == alone.read_bytes()
    assert json.loads(first.read_bytes())["config"]["D"] == 4
    assert json.loads(second.read_bytes())["config"]["D"] == 6


def test_classify_computes_each_signature_once(tmp_path, monkeypatch):
    import coxlen.coxeter
    from coxlen.coxeter import classify_group, parse_coxeter_matrix

    text = "rank 6; m12=16 m23=3 m34=3 m45=3 m56=3"
    calls = []
    inertia = coxlen.coxeter.linalg.inertia

    def counting(field, M):
        calls.append(len(M))
        return inertia(field, M)

    monkeypatch.setattr(coxlen.coxeter.linalg, "inertia", counting)
    monkeypatch.setattr(coxlen.coxeter, "_KIND_CACHE", {})
    classify_group(parse_coxeter_matrix(text))
    alone = sorted(calls)
    calls.clear()
    monkeypatch.setattr(coxlen.coxeter, "_KIND_CACHE", {})
    code, data = run_cli(["classify", "--inline", text], tmp_path)
    assert code == 0
    assert json.loads(data)["report"]["signature"] == [5, 1, 0]
    assert sorted(calls) == alone and alone.count(6) == 1


def test_reflen_reports_null_depth_when_no_rung_ran(tmp_path):
    # the exact solver settles the word, so no rung runs; under a cap it
    # cannot meet, -D 0 leaves no rung to fall back on and the cap is named
    argv = ["reflen", "--inline", "rank 3; m12=inf m13=inf m23=inf", "--word", "abcabc",
            "-D", "0"]
    code, data = run_cli(argv, tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert (report["upper"], report["status"], report["depth_used"]) == (4, "Exact", None)
    assert run_cli(argv + ["--node-cap", "5"], tmp_path, "capped") == (2, b"")


# -- parsed inputs end in a report or an error line, never a traceback ----------


@pytest.mark.parametrize("argv", [
    ["classify", "--input", "/nonexistent/matrix.txt"],
    ["classify", "--input", "."],
    ["filling", "--h", "abc"], ["filling", "--h", "1/0"],
    ["filling", "--p", "x"], ["filling", "--q", "2.5"],
    ["warp", "--L", "1e5"], ["warp", "--L", "1e308"],
    ["classify", "--inline", "rank \u00b2"],
    ["reflen", "--inline", "rank 2", "--word", "a!"],
    ["reflen", "--inline", "rank 2", "--word", "1a"],
    ["reflen", "--inline", "rank 2", "--word", "\u00b2"],
    ["classify", "--inline", "[" * 100_000],
] + [["classify", "--inline", json.dumps([[1, x], [x, 1]])]
     for x in (None, [3], "3", 2.5, True)] + [
    # the report spells words in the letters a-z
    ["reflen", "--inline", "rank 30", "--word", "30"],
    ["reflen", "--inline", "rank 27; m1_27=3", "--word", "1 27 1"],
    # a pair assigned twice, in either spelling
    ["classify", "--inline", "rank 2; m12=3 m12=inf"],
    ["classify", "--inline", "rank 2; m1_2=3 m12=4"],
    # a certificate lists the powers g^1 .. g^K, K >= 1
] + [["qm-certify", "--k", "3", "--pattern", "abc", "--g", "abc", "--K", K]
     for K in ("0", "-5")] + [
    # the warp report's configuration line is strict JSON: no NaN or infinity
    ["warp", "--L", "inf"], ["warp", "--L", "nan"], ["warp", "--L", "7", "--rT", "nan"],
    ["warp", "--L", "7", "--rT", "inf"], ["warp", "--L", "7", "--rT=-inf"]])
def test_bad_input_exits_1_with_an_error_line(tmp_path, capsys, argv):
    code, _ = run_cli(argv, tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_warp_refusals_name_the_input_given(tmp_path, capsys):
    # an infinite L is refused naming L, not the default r_T derived from it
    code, _ = run_cli(["warp", "--L", "inf"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == "error: need a finite L, got L = inf\n"
    # a negative r_T in exponent form reaches the program when given with
    # "=", where argparse reads "--rT -1e308" as an option with no value
    code, _ = run_cli(["warp", "--L", "7", "--rT=-1e308"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: r_T must lie in ") and err.endswith("got -1e+308\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["warp", "--L", "7", "--rT", "-1e308"], tmp_path)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_unsupported_filling_pair_names_inf(tmp_path, capsys):
    code, _ = run_cli(["filling", "--p", "3", "--q", "inf"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: unsupported (p, q) = (3, inf): ")


@pytest.mark.parametrize("argv", [["filling", "--p", "2", "--q", "inf", "--h", "40"],
                                  ["filling", "--p", "inf", "--q", "inf", "--h", "160"]])
def test_no_prime_refusal_is_one_short_line(tmp_path, capsys, argv):
    # each prime is named by its cusp and the failing element's length, not
    # its word, so the line does not grow with h
    code, _ = run_cli(argv, tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: no prime <= 100 works") and err.count("\n") == 1
    assert len(err) < 1000


@pytest.mark.parametrize("argv", [["classify", "--inline", text] for text in (
    "rank 99999999", "rank 65", json.dumps([[1]] * 65),
    "rank 2; m12=100000",     # field degree 40,000
    "rank 2; m12=1009",       # field degree 504
    "rank 3; m12=3 m23=401",  # report field degree 800, computed at 200
)] + [["warp", "--L", "7", "--grid", "100000000"]],   # above warp.MAX_GRID
    ids=lambda argv: argv[2] if argv[0] == "classify" else " ".join(argv))
def test_rank_and_field_degree_caps_exit_2(tmp_path, capsys, argv):
    code, _ = run_cli(argv, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("resource cap: ")


def _bounded_run(argv, address_space=1 << 30, timeout=60):
    """Run the CLI in a subprocess with a timeout (60 s by default) and an
    address space of `address_space` bytes (1 GiB by default), so an
    uncapped run fails instead of hanging or filling memory."""
    import os
    import resource
    import subprocess
    import sys

    import coxlen

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    return subprocess.run([sys.executable, "-m", "coxlen.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=timeout, preexec_fn=limit)


@pytest.mark.parametrize("h", ["1000", "1e400"])
def test_short_element_cap_exits_2_in_bounded_time_and_memory(h):
    # above filling.MAX_SHORT short elements per cusp
    out = _bounded_run(["filling", "--p", "inf", "--q", "inf", "--h", h])
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr.startswith("resource cap: ")


def test_power_cap_exits_2_in_bounded_time_and_memory():
    # above quasimorphism.MAX_POWERS: refused before any bound is computed
    out = _bounded_run(["qm-certify", "--k", "3", "--pattern", "abc", "--g", "abc",
                        "--K", "100000000"])
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr == ("resource cap: K = 100000000 is above the cap of "
                          "100000\n")


_W3 = "rank 3; m12=inf m13=inf m23=inf"


def test_node_cap_bounds_the_ball_in_memory():
    # ~830 B per standard-ball element at rank 3, degree 1: 500,000 of them
    # fit under 1 GiB, where the ball of radius 40 would not
    out = _bounded_run(["reflen", "--inline", _W3, "-L", "40", "-D", "0",
                        "--node-cap", "500000"])
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr == "resource cap: standard ball exceeded 500000 nodes\n"


def test_memory_exhaustion_exits_2_with_a_cap_line():
    # the default cap needs 2-4 GB for the ball of radius 40: under 300 MiB
    # the run ends with a resource cap line naming --node-cap, not a traceback
    out = _bounded_run(["reflen", "--inline", _W3, "-L", "40", "-D", "0"],
                       address_space=300 << 20)
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr == ("resource cap: out of memory at --node-cap 5000000; "
                          "a lower --node-cap bounds the search\n")


def test_node_cap_bounds_the_word_searches_in_memory():
    # ~350 B per stored search state: the solver and every ladder rung of
    # (abc)^12 stop at the cap, so the run names it and reports nothing
    out = _bounded_run(["reflen", "--inline", _W3, "--word", "abc" * 12,
                        "--node-cap", "500000"])
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr == ("resource cap: search exceeded the node cap of 500000 "
                          "stored elements\n")
    assert out.stdout == ""


def test_node_cap_bounds_the_reflection_enumeration(tmp_path):
    # _W3 has 3 (2^31 - 1) reflections of root depth <= 30: the enumeration
    # stops at the cap before any search runs, and no report is written
    out = _bounded_run(["reflen", "--inline", _W3, "-L", "1", "-D", "30",
                        "--node-cap", "10", "--output", str(tmp_path / "out")], timeout=2)
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr == ("resource cap: reflections of root depth < 30 exceeded the "
                          "node cap of 10 stored elements\n")
    assert out.stdout == "" and not (tmp_path / "out").exists()


def test_inputs_at_the_caps_are_classified(tmp_path):
    # rank 64 (coxeter.MAX_RANK) and m12=601, field degree 300
    # (exactfield.MAX_DEGREE)
    for text in ("rank 64", "rank 2; m12=601"):
        assert run_cli(["classify", "--inline", text], tmp_path)[0] == 0, text


def test_rank_4_classify_at_field_degree_240(tmp_path):
    # conductor lcm(2, 5, 7, 11) = 770, report field degree 240; the Gram form
    # is computed in Q(2cos(pi/385)), degree 120, where inertia's pivot signs
    # need theta's enclosure narrowed to about 190 bits
    code, data = run_cli(["classify", "--inline", "rank 4; m12=5 m23=7 m34=11"],
                         tmp_path)
    assert code == 0
    report = json.loads(data)["report"]
    assert report["kind"] == "NonAffine"
    assert report["components"] == [{"generators": [1, 2, 3, 4], "kind": "NonAffine"}]
    assert report["field_conductor"] == 770
    assert report["signature"] == [3, 1, 0]
    assert report["minimal_nonaffine"] is False


def test_undecodable_input_file_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_bytes(b"rank 2; m12=\xff")
    code, _ = run_cli(["classify", "--input", str(src)], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


_ORDERS = ["2", "3", "4", "6", "inf", "0", "1", "-3", "2.5", "x", "\u00b2", ""]
_JUNK = ["", " ", "rank", "rank x", "rank -1", "rank \u00b2", "m12=3", ";", "[",
         "{", "[[1,", "null", "[]", "{}", '{"matrix": 3}', "[[]]", "\u00e9", "1/0"]
_JSON_ORDERS = [1, 2, 3, 4, 6, 0, -1, 2.5, None, True, "3", [], {}]


@st.composite
def _matrix_text(draw):
    kind = draw(st.sampled_from(["text", "json", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from(_JUNK) | st.text(max_size=8))
    n = draw(st.integers(0, 4))
    if kind == "text":
        parts = ["rank %d" % n] + [
            "m%d%d=%s" % (draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                          draw(st.sampled_from(_ORDERS)))
            for _ in range(draw(st.integers(0, 4)))]
        return draw(st.sampled_from(["; ", " "])).join(parts)
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from([1, 1, 1, 2, None]))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(_JSON_ORDERS))
    return json.dumps({"matrix": rows} if draw(st.booleans()) else rows)


def _pick(draw, *options):
    return draw(st.sampled_from(options))


@st.composite
def _argv(draw):
    cmd = _pick(draw, "classify", "subgroups", "reflen", "qm-certify", "filling", "warp")
    argv = [cmd]
    if cmd in ("classify", "subgroups", "reflen"):
        if draw(st.integers(0, 9)):
            argv += ["--inline", draw(_matrix_text())]
        else:
            argv += ["--input", _pick(draw, "/nonexistent/m.txt", ".", "")]
    if cmd == "reflen":
        if draw(st.booleans()):
            argv += ["--word", draw(st.text("abcdez129 !", max_size=5))]
        argv += ["-L", _pick(draw, "0", "1", "2", "3", "4", "-1", "x"),
                 "-D", _pick(draw, "0", "1", "2", "3", "-1")]
        cap = _pick(draw, None, "0", "1", "50", "2000", "-5")
        argv += ["--node-cap", cap] if cap else []
    elif cmd == "qm-certify":
        argv += ["--k", _pick(draw, "0", "1", "2", "3", "4", "x"),
                 "--pattern", draw(st.text("abcdz", max_size=4)),
                 "--g", draw(st.text("abcdz", max_size=5)),
                 "--K", _pick(draw, "1", "3", "0", "-1")]
        window = _pick(draw, None, "1", "4", "8", "-1")
        argv += ["--window", window] if window else []
    elif cmd == "filling":
        argv += ["--p", _pick(draw, "2", "3", "inf", "0", "x", "2.5", "-1", "5"),
                 "--q", _pick(draw, "3", "inf", "0", "2", "x", "1e2"),
                 "--h", _pick(draw, "1", "2", "3/2", "1/2", "0", "-1", "abc", "1/0", "nan"),
                 "--prime-cap", _pick(draw, "5", "30", "4", "-1", "x")]
    elif cmd == "warp":
        argv += ["--L", _pick(draw, "6.5", "7", "20", "1e5", "1e308", "inf", "nan",
                              "-3", "x", "6.2")]
        r_t = _pick(draw, None, "-1.5", "-0.5", "nan", "inf", "-1e9")
        argv += ["--rT", r_t] if r_t else []
        argv += ["--grid", _pick(draw, "8", "16", "64", "7", "0", "-4")]
    return argv + draw(st.lists(st.sampled_from(["--bogus", "-L", "--word", "3", "abc"]),
                                max_size=1))


@pytest.fixture(scope="module")
def fuzz_output(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "out")


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_generated_argv_ends_in_a_report_or_an_error(fuzz_output, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--output", fuzz_output])
        except SystemExit as e:    # argparse rejecting the command line
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
