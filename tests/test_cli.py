import hashlib
import json

import pytest

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


def test_classify_with_a_wide_conductor(tmp_path):
    code, data = run_cli(["classify", "--inline", "rank 2; m12=71"], tmp_path)
    assert code == 0
    assert json.loads(data)["report"]["kind"] == "Spherical"


def test_reflen_ball_honours_node_cap(tmp_path):
    # the 57-element ball fits under the cap; the search's second layer
    # over the 24 reflections of depth <= 4 does not
    code, _ = run_cli(["reflen", "--inline", "rank 3; m12=3 m13=3 m23=4",
                       "-L", "5", "-D", "4", "--node-cap", "100"], tmp_path)
    assert code == 2


def test_exit_code_certificate_error(tmp_path, capsys, monkeypatch):
    import coxlen.cli

    def broken(cm):
        raise CertificateError("planted")

    monkeypatch.setattr(coxlen.cli, "classify_group", broken)
    code = main(["classify", "--inline", "rank 2; m12=3",
                 "--output", str(tmp_path / "x")])
    assert code == 3
    assert "planted" in capsys.readouterr().err


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
