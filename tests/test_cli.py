"""Command-line behavior: verdicts, exit codes, certificate files, rendering."""
import dataclasses
import json
import time

import pytest

from seuclid.certs import MAX_BUNDLE_K_MAX, save_certificate
from seuclid.cli import main
from seuclid.disks import EXCEPTIONAL_PAIRS, certify_exceptional, table_disk_certificate


def test_check_euclidean(capsys):
    assert main(["check", "5", "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "Euclidean" in out and "k_max 2" in out


def test_check_non_euclidean(capsys):
    assert main(["check", "5", "--s", "11"]) == 0
    out = capsys.readouterr().out
    assert "NonEuclidean" in out and "(1+w)/2" in out


def test_check_exceptional(capsys):
    assert main(["check", "10", "--s", "2"]) == 0
    assert "exceptional" in capsys.readouterr().out


def test_check_not_applicable(capsys):
    assert main(["check", "31", "--s", "2"]) == 0
    assert "NotApplicable" in capsys.readouterr().out


def test_check_not_applicable_writes_no_cert(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "31", "--s", "2", "--cert", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NotApplicable" in out and "no certificate written" in out
    assert not path.exists()


def test_check_unknown_exit_2(capsys):
    assert main(["check", "5"]) == 2


def test_invalid_inputs_exit_1(capsys):
    assert main(["check", "12", "--s", "2"]) == 1
    assert main(["check", "5", "--s", "4"]) == 1
    assert main(["check", "5", "--s", "x"]) == 1
    assert main(["table", "--s", "2", "--dmax", "0"]) == 1


def test_check_writes_verifiable_cert(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "67", "--s", "2,3", "--cert", str(path)]) == 0
    assert main(["verify", str(path)]) == 0


def test_verify_tampered_cert_exit_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "67", "--s", "2,3", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["payload"]["chain"].pop(2)
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 3


def test_verify_unreadable_cert_exit_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{ not json")
    assert main(["verify", str(path)]) == 1


def test_table_text(capsys):
    assert main(["table", "--s", "", "--dmax", "11"]) == 0
    out = capsys.readouterr().out
    assert "Euclidean: 1, 2, 3, 7, 11" in out


def test_table_json(capsys):
    assert main(["table", "--s", "2", "--dmax", "23", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["euclidean"] == [1, 2, 3, 5, 6, 7, 10, 11, 15, 19, 23]


def test_render_cover(tmp_path, capsys):
    path = tmp_path / "fig.svg"
    assert main(["render", "5", "--s", "2", "-o", str(path)]) == 0
    svg = path.read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_render_disks_and_witness(tmp_path, capsys):
    path = tmp_path / "fig.svg"
    assert main(["render", "35", "--s", "7", "-o", str(path)]) == 0
    assert path.read_text().count("<circle") >= 20
    assert main(["render", "17", "--s", "2", "-o", str(path)]) == 0
    assert "not norm-Euclidean" in path.read_text()


def test_render_without_certificate(tmp_path, capsys):
    assert main(["render", "5", "-o", str(tmp_path / "fig.svg")]) == 2


def test_oracle(capsys):
    assert main(["oracle", "17", "2", "--nmax", "2", "--coeff", "10"]) == 0
    assert "min S-norm" in capsys.readouterr().out


def test_oracle_split_prime_uses_default_point(capsys):
    # 2 splits in Q(sqrt(-7)): no witness point, the oracle centers on (1+w)/2
    assert main(["oracle", "7", "2", "--nmax", "1", "--coeff", "5"]) == 0
    assert capsys.readouterr().out.startswith("xi0 = (1+w)/2;")


def test_verify_bad_bundle_exit_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "10", "--s", "2", "--cert", str(path)]) == 0
    good = json.loads(path.read_text())
    bad_alpha = json.loads(path.read_text())
    bad_alpha["payload"]["gap_lines"][0]["pieces"][0]["alpha"] = {"a": 0, "b": 1, "c": 3}
    bad_k_max = dict(good, payload=dict(good["payload"], k_max=0))
    for obj in (bad_alpha, bad_k_max):
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        assert "verification FAILED" in capsys.readouterr().out


def test_verify_piece_with_another_radicand_exit_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "10", "--s", "2", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    piece = obj["payload"]["gap_lines"][0]["pieces"][0]
    piece["hi"] = {"a": {"num": "0", "den": "1"}, "b": {"num": "1", "den": "10"}, "m": 3}
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verification FAILED" in captured.out
    assert captured.err == ""


_HALF = {"num": "1", "den": "2"}
_NIL = {"num": "0", "den": "1"}

# mutations of the first bound piece of the (10, 2) bundle, alpha = w/2 on
# [0, sqrt(2)/3), and the exit code each gets from `seuclid verify`
BUNDLE_PIECE_FORGERIES = [
    ("lo.m = -2", lambda pc: pc["lo"].update(m=-2), 1),
    ("hi.m = 3", lambda pc: pc["hi"].update(m=3), 3),
    ("hi.b.den = 0", lambda pc: pc["hi"]["b"].update(den="0"), 1),
    ("hi.m = x", lambda pc: pc["hi"].update(m="x"), 1),
    ("lo := hi", lambda pc: pc.update(lo=dict(pc["hi"])), 3),
    ("hi_closed := true", lambda pc: pc.update(hi_closed=True), 3),
    ("hi.b = 2/3", lambda pc: pc["hi"].update(b={"num": "2", "den": "3"}), 3),
    ("hi missing", lambda pc: pc.pop("hi"), 1),
    ("lo = 1/2, m = 2, b = 0", lambda pc: pc.update(lo={"a": _HALF, "b": _NIL, "m": 2}), 3),
]


@pytest.mark.parametrize("mutate, code", [f[1:] for f in BUNDLE_PIECE_FORGERIES], ids=[f[0] for f in BUNDLE_PIECE_FORGERIES])
def test_verify_bundle_piece_forgeries(mutate, code, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "10", "--s", "2", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    mutate(obj["payload"]["gap_lines"][0]["pieces"][0])
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == 3:
        assert "verification FAILED" in captured.out and captured.err == ""
    else:
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, kind", [(["17", "--s", "2"], "witness"), (["10", "--s", "2"], "exceptional-bundle")])
def test_verify_s_of_two_primes_exit_1(argv, kind, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", *argv, "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["kind"] == kind
    obj["s"] = [2, 3]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {kind} certificate: s must list exactly one prime, got [2, 3]\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("depth", [0, -5])
def test_verify_nonpositive_subdivision_depth_exit_3(depth, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "35", "--s", "7", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["payload"]["subdivision_depth"] = depth
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verification FAILED" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("argv, field, value", [
    (["10", "--s", "2"], "k_max", 10**9),
    (["35", "--s", "7"], "subdivision_depth", 10**6),
])
def test_verify_over_work_limit_exit_3_at_once(argv, field, value, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", *argv, "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["payload"][field] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert "verification FAILED" in captured.out
    assert captured.err == ""


def test_verify_built_ins_within_work_limits(tmp_path, capsys):
    certs = [certify_exceptional(d, p) for d, p in sorted(EXCEPTIONAL_PAIRS)]
    certs += [table_disk_certificate(p, subdivision_depth=500) for p in (5, 7)]
    certs.append(dataclasses.replace(certify_exceptional(10, 2), k_max=MAX_BUNDLE_K_MAX))
    for i, cert in enumerate(certs):
        path = tmp_path / f"{i}.json"
        save_certificate(cert, str(path))
        assert main(["verify", str(path)]) == 0, cert
