"""Command-line behavior: verdicts, exit codes, certificate files, rendering."""
import copy
import json
import time
from fractions import Fraction

import pytest

from seuclid import certs
from seuclid.certs import (
    MAX_D,
    MAX_DISKS,
    MAX_GAP_LINE_PIECES,
    MAX_SUBDIVISION_DEPTH,
    save_certificate,
)
from seuclid.cli import main
from seuclid.disks import EXCEPTIONAL_PAIRS, certify_exceptional, table_disk_certificate
from seuclid.exact import primes_below


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


def test_invalid_inputs_exit_1(tmp_path, capsys):
    assert main(["check", "12", "--s", "2"]) == 1
    assert main(["check", "5", "--s", "4"]) == 1
    assert main(["check", "5", "--s", "x"]) == 1
    assert main(["table", "--s", "2", "--dmax", "0"]) == 1
    assert main(["render", "12", "-o", str(tmp_path / "fig.svg")]) == 1
    assert not (tmp_path / "fig.svg").exists()
    assert main(["oracle", "12", "2"]) == 1
    assert main(["check", "0"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["check", "5", "--s", "x"], "cannot parse prime list 'x'"),
    (["table", "--s", "2", "--dmax", "0"], "--dmax must be positive"),
    (["oracle", "17", "4"], "4 is not prime"),
])
def test_invalid_input_messages(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


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


ORACLE_GOLDEN = {
    # the README example, and a split prime centred on (1+w)/2
    "17 2 --nmax 4 --coeff 40": (
        "xi0 = (1+w)/3; grid n <= 4, |a|,|b| <= 40\n"
        "min S-norm found: 1 at alpha = -21-21w\n"
    ),
    "7 2 --nmax 1 --coeff 5": (
        "xi0 = (1+w)/2; grid n <= 1, |a|,|b| <= 5\n"
        "min S-norm found: 1 at alpha = -3+3w\n"
    ),
    # 3 is inert in Q(sqrt(-19)): above level 0 only the vertex window
    "19 3 --nmax 3 --coeff 20": (
        "xi0 = (1+w)/2; grid n <= 3, |a|,|b| <= 20\n"
        "min S-norm found: 5/4 at alpha = -13+14w\n"
    ),
    # 2 and 3 ramify: above level 0 the classes but a = b = 0 (mod p)
    "14 2 --nmax 4 --coeff 60": (
        "xi0 = (1+w)/3; grid n <= 4, |a|,|b| <= 60\n"
        "min S-norm found: 1 at alpha = -21+11w\n"
    ),
    "15 3 --nmax 4 --coeff 60": (
        "xi0 = (1+w)/2; grid n <= 4, |a|,|b| <= 60\n"
        "min S-norm found: 1/2 at alpha = -40-40w\n"
    ),
}


@pytest.mark.parametrize("args", sorted(ORACLE_GOLDEN))
def test_oracle_golden_output(args, capsys):
    assert main(["oracle", *args.split()]) == 0
    assert capsys.readouterr().out == ORACLE_GOLDEN[args]


def test_verify_bad_bundle_exit_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", "10", "--s", "2", "--cert", str(path)]) == 0
    good = json.loads(path.read_text())
    bad_alpha = json.loads(path.read_text())
    bad_alpha["payload"]["gap_lines"][0]["pieces"][0]["alpha"] = {"a": 0, "b": 1, "c": 3}
    path.write_text(json.dumps(bad_alpha))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "verification FAILED" in capsys.readouterr().out
    # a 4.0 file's k_max, even 0, is ignored: the checker derives it
    path.write_text(json.dumps(dict(good, schema_version="4.0", payload=dict(good["payload"], k_max=0))))
    assert main(["verify", str(path)]) == 0


def _verify_with_pieces(pieces, tmp_path, capsys):
    """The exit code of `seuclid verify` on the (15, 3) bundle with the
    pieces of its line y0 = 1/2 replaced by `pieces`, and its output."""
    path = tmp_path / "c.json"
    assert main(["check", "15", "--s", "3", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["payload"]["gap_lines"][0]["pieces"] = pieces
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    return main(["verify", str(path)]), capsys.readouterr()


def test_verify_piece_with_another_radicand_exit_3(tmp_path, capsys):
    # on the line y0 = 1/2 the span of (-2 + w)/3 has ends in sqrt(33),
    # that of alpha = 0 the ends -1/2 and 0; both lie left of 0, so the
    # line is not covered: exit 3
    code, captured = _verify_with_pieces(_UNCOVERING_PIECES, tmp_path, capsys)
    assert code == 3
    assert "verification FAILED" in captured.out
    assert captured.err == ""
    # with the covering pieces added the same line verifies
    code, captured = _verify_with_pieces(_UNCOVERING_PIECES + _MIXED_COVER_PIECES, tmp_path, capsys)
    assert code == 0 and captured.out.endswith(": valid\n")


def test_verify_mixed_radicand_line_exit_0(tmp_path, capsys):
    # a covering line whose span ends lie in sqrt(33) and in Q
    code, captured = _verify_with_pieces(_MIXED_COVER_PIECES, tmp_path, capsys)
    assert code == 0 and captured.out.endswith(": valid\n") and captured.err == ""


def _verify_forgery(argv, mutate, code, tmp_path, capsys):
    """Write the certificate of `seuclid check argv`, mutate its object
    in place and check that `seuclid verify` exits with `code`: 0 valid,
    1 a parse error on stderr, 3 verification FAILED; never a traceback."""
    path = tmp_path / "c.json"
    assert main(["check", *argv, "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == 1:
        assert captured.err.startswith("error: ")
    else:
        assert captured.out.endswith(": valid\n" if code == 0 else ": verification FAILED\n")
        assert captured.err == ""


def _bound_piece(a, b, c):
    return {"type": "bound", "alpha": {"a": a, "b": b, "c": c}}


# on y0 = 1/5 of d = 10: the spans of alpha = -2 and (-8 + w)/4, with
# ends in sqrt(15) and sqrt(10), lie left of 0
_MIXED_RADICAND_LINE = {"y0": {"num": "1", "den": "5"}, "pieces": [_bound_piece(-2, 0, 1), _bound_piece(-8, 1, 4)]}
# on y0 = 1/2 of (15, 3): the spans of (-2 + w)/3 and 0 lie left of 0;
# (1 + w)/3, 1 and a point piece at x = 1 cover [0, 1], with span ends
# 1/4 -/+ sqrt(33)/12, 1/2 and 1
_UNCOVERING_PIECES = [_bound_piece(-2, 1, 3), _bound_piece(0, 0, 1)]
_MIXED_COVER_PIECES = [_bound_piece(1, 1, 3), _bound_piece(1, 0, 1), {
    "type": "point", "x": {"num": "1", "den": "1"}, "alpha": {"a": 2, "b": 0, "c": 1},
}]


def _rational(q):
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _surd(a, b, m):
    return {"a": _rational(Fraction(a)), "b": _rational(Fraction(b)), "m": m}


# the first piece as schema 2.0 wrote it, alpha = w/2 claimed on
# [0, sqrt(2)/3); 3.0 derives the span and ignores these keys
_PIECE_2_0_KEYS = {
    "lo": _surd(0, 0, 0), "hi": _surd(0, Fraction(1, 3), 2), "lo_closed": True, "hi_closed": False,
}


def _first_piece(mutate):
    """The 2.0 keys added back to the first piece, then mutated."""
    def forge(lines):
        piece = lines[0]["pieces"][0]
        piece.update(copy.deepcopy(_PIECE_2_0_KEYS))
        mutate(piece)
    return forge


def _set_first(key, value):
    return lambda lines: lines[0]["pieces"][0].update({key: value})


# mutations of the gap lines of the (10, 2) bundle, one line y0 = 1/3
# with bound pieces w/2, (2 + w)/2 and (2 + w)/4, and the exit code each
# gets from `seuclid verify`; the rows with claimed ends and flags added
# back verify, as the checker derives each piece's span
BUNDLE_PIECE_FORGERIES = [
    ("unchanged", lambda lines: None, 0),
    ("alpha c = 3", _set_first("alpha", {"a": 0, "b": 1, "c": 3}), 3),
    ("alpha = 0", _set_first("alpha", {"a": 0, "b": 0, "c": 1}), 3),
    ("middle piece dropped", lambda lines: lines[0]["pieces"].pop(1), 3),
    ("extra piece (1 + w)/2, empty span", lambda lines: lines[0]["pieces"].append(_bound_piece(1, 1, 2)), 3),
    ("extra line y0 = 1/5, spans in sqrt(15) and sqrt(10)", lambda lines: lines.append(_MIXED_RADICAND_LINE), 3),
    ("alpha a = x", lambda lines: lines[0]["pieces"][0]["alpha"].update(a="x"), 1),
    ("alpha missing", lambda lines: lines[0]["pieces"][0].pop("alpha"), 1),
    *((f"type = {kind!r}", _set_first("type", kind), 1) for kind in ("bogus", 7, None, "Bound")),
    ("lo.m = -2", _first_piece(lambda pc: pc["lo"].update(m=-2)), 0),
    ("hi.m = 3", _first_piece(lambda pc: pc["hi"].update(m=3)), 0),
    ("hi.b.den = 0", _first_piece(lambda pc: pc["hi"]["b"].update(den="0")), 0),
    ("hi.m = x", _first_piece(lambda pc: pc["hi"].update(m="x")), 0),
    ("lo := hi", _first_piece(lambda pc: pc.update(lo=dict(pc["hi"]))), 0),
    ("hi_closed := true", _first_piece(lambda pc: pc.update(hi_closed=True)), 0),
    ("hi.b = 2/3", _first_piece(lambda pc: pc["hi"].update(b=_rational(Fraction(2, 3)))), 0),
    ("hi missing", _first_piece(lambda pc: pc.pop("hi")), 0),
    ("lo = 1/2, m = 2, b = 0", _first_piece(lambda pc: pc.update(lo=_surd(Fraction(1, 2), 0, 2))), 0),
]


@pytest.mark.parametrize("mutate, code", [f[1:] for f in BUNDLE_PIECE_FORGERIES], ids=[f[0] for f in BUNDLE_PIECE_FORGERIES])
def test_verify_bundle_piece_forgeries(mutate, code, tmp_path, capsys):
    def forge(obj):
        assert obj["kind"] == "exceptional-bundle" and len(obj["payload"]["gap_lines"]) == 1
        mutate(obj["payload"]["gap_lines"])

    _verify_forgery(["10", "--s", "2"], forge, code, tmp_path, capsys)


def _disk_field(i, key, value):
    return lambda payload: payload["disks"][i].update({key: value})


def _disk_a_plus_one(i):
    return lambda payload: payload["disks"][i].update(a=payload["disks"][i]["a"] + 1)


def _flip_boosted(payload):
    """Add back schema 2.0's `boosted` flag, each one wrong."""
    for disk in payload["disks"]:
        r_squared = Fraction(int(disk["r_squared"]["num"]), int(disk["r_squared"]["den"]))
        disk["boosted"] = r_squared * disk["c"] ** 2 <= 1


# mutations of the depth-125 (35, 7) disk cover and the exit code each
# gets from `seuclid verify`; the checker derives each radius bound
# itself and reads no `boosted` flag, so wrong ones still verify
DISK_FORGERIES = [
    *((f"disk {i} a + 1", _disk_a_plus_one(i), 3) for i in (4, 5, 8, 12, 16)),
    ("disk 5 r_squared = 2/49", _disk_field(5, "r_squared", {"num": "2", "den": "49"}), 3),
    ("disk 4 dropped", lambda payload: payload["disks"].pop(4), 3),
    ("disk 6 c = 3", _disk_field(6, "c", 3), 3),
    ("disk 6 r_squared = -1/49", _disk_field(6, "r_squared", {"num": "-1", "den": "49"}), 3),
    ("depth 0", lambda payload: payload.update(subdivision_depth=0), 3),
    ("depth over the cap", lambda payload: payload.update(subdivision_depth=MAX_SUBDIVISION_DEPTH + 1), 3),
    ("disk 6 r_squared missing", lambda payload: payload["disks"][6].pop("r_squared"), 1),
    ("disk 6 a = x", _disk_field(6, "a", "x"), 1),
    ("disk 6 c = 0", _disk_field(6, "c", 0), 1),
    ("disk 6 r_squared.den = 0", _disk_field(6, "r_squared", {"num": "1", "den": "0"}), 1),
    ("disks = 5", lambda payload: payload.update(disks=5), 1),
    ("every boosted flipped", _flip_boosted, 0),
]


@pytest.mark.parametrize("mutate, code", [f[1:] for f in DISK_FORGERIES], ids=[f[0] for f in DISK_FORGERIES])
def test_verify_disk_forgeries(mutate, code, tmp_path, capsys):
    def forge(obj):
        assert obj["kind"] == "disk" and obj["payload"]["subdivision_depth"] == 125
        mutate(obj["payload"])

    _verify_forgery(["35", "--s", "7"], forge, code, tmp_path, capsys)


def _set(*path, value):
    """The mutation obj[path[0]]...[path[-1]] = value."""
    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


# one-field mutations of the (67, {2, 3}) cover, chain (0, 1), (1, 4),
# (1, 3), (1, 2), (2, 3), (3, 4), (1, 1), and the exit code each gets
# from `seuclid verify`; a field of the wrong JSON type is a parse error
COVER_FORGERIES = [
    ("unchanged", lambda obj: None, 0),
    ("d = 67.9", _set("d", value=67.9), 1),
    ("d = '67'", _set("d", value="67"), 1),
    ("d = 68", _set("d", value=68), 1),
    ("s = ['2', 3.0]", _set("s", value=["2", 3.0]), 1),
    ("s = [2, true]", _set("s", value=[2, True]), 1),
    ("s = [3]", _set("s", value=[3]), 3),
    ("k_max = 5", _set("payload", "k_max", value=5), 3),
    ("k_max = 4.0", _set("payload", "k_max", value=4.0), 1),
    ("link 0 k = true", _set("payload", "chain", 0, "k", value=True), 1),
    ("link 6 j = 1.0", _set("payload", "chain", 6, "j", value=1.0), 1),
    ("link 3 k = 5", _set("payload", "chain", 3, "k", value=5), 3),
    ("link 1 j = -1", _set("payload", "chain", 1, "j", value=-1), 3),
    ("link 2 dropped", lambda obj: obj["payload"]["chain"].pop(2), 3),
    ("chain missing", lambda obj: obj["payload"].pop("chain"), 1),
    ("link 0 = [0, 1]", _set("payload", "chain", 0, value=[0, 1]), 1),
    ("link 0 without k", lambda obj: obj["payload"]["chain"][0].pop("k"), 1),
    ("chain = '0,1'", _set("payload", "chain", value="0,1"), 1),
    ("link 1 = (2, 4)", _set("payload", "chain", 1, value={"j": 2, "k": 4}), 3),
    ("link 0 = (0, 0)", _set("payload", "chain", 0, value={"j": 0, "k": 0}), 3),
    ("link 1 k = -1", _set("payload", "chain", 1, "k", value=-1), 3),
    ("empty chain, k_max = 0", lambda obj: obj["payload"].update(chain=[], k_max=0), 3),
]


@pytest.mark.parametrize("mutate, code", [f[1:] for f in COVER_FORGERIES], ids=[f[0] for f in COVER_FORGERIES])
def test_verify_cover_forgeries(mutate, code, tmp_path, capsys):
    _verify_forgery(["67", "--s", "2,3"], mutate, code, tmp_path, capsys)


# one-field mutations of the (5, 11) witness, xi0 = (1 + w)/2 with bound
# 3/2, and the exit code each gets from `seuclid verify`; `num` and `den`
# must be canonical integer strings, den >= 1; a 3.0 file's `case_tag` is
# ignored, not trusted
WITNESS_FORGERIES = [
    ("unchanged", lambda obj: None, 0),
    ("d = 5.0", _set("d", value=5.0), 1),
    ("s = [11.0]", _set("s", value=[11.0]), 1),
    ("s = ['11']", _set("s", value=["11"]), 1),
    ("s = [2]", _set("s", value=[2]), 3),
    ("3.0 file, case_tag wrong, ignored",
     lambda obj: obj.update(schema_version="3.0", payload=dict(obj["payload"], case_tag="OddRamified23")), 0),
    ("bound = 2", _set("payload", "bound", value={"num": "2", "den": "1"}), 3),
    ("bound = 3/4", _set("payload", "bound", value={"num": "3", "den": "4"}), 3),
    ("bound.num = 3", _set("payload", "bound", value={"num": 3, "den": "2"}), 1),
    ("bound missing", lambda obj: obj["payload"].pop("bound"), 1),
    ("xi0.a = 1.0", _set("payload", "xi0", "a", value=1.0), 1),
    ("xi0.c = true", _set("payload", "xi0", "c", value=True), 1),
    ("xi0.b = 3", _set("payload", "xi0", "b", value=3), 3),
    *(
        (f"bound.num = {num!r}", _set("payload", "bound", "num", value=num), 1)
        for num in (" 3", "+3", "0_3", "\uff13", "03", "3 ")
    ),
    *(
        (f"bound.den = {den!r}", _set("payload", "bound", "den", value=den), 1)
        for den in ("02", "-2")
    ),
]


@pytest.mark.parametrize("mutate, code", [f[1:] for f in WITNESS_FORGERIES], ids=[f[0] for f in WITNESS_FORGERIES])
def test_verify_witness_forgeries(mutate, code, tmp_path, capsys):
    _verify_forgery(["5", "--s", "11"], mutate, code, tmp_path, capsys)


def test_verify_deeply_nested_json_exit_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv, kind", [
    (["67", "--s", "2,3"], "cover"),
    (["35", "--s", "7"], "disk"),
    (["17", "--s", "2"], "witness"),
    (["10", "--s", "2"], "exceptional-bundle"),
])
@pytest.mark.parametrize("d", [0, -3, 4])
def test_verify_unusable_d_exit_1(argv, kind, d, tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["check", *argv, "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["kind"] == kind
    obj["d"] = d
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed certificate: d must be ") and captured.out == ""


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


# a bundle file holds no k_max since schema 5.0, and a legacy one is
# ignored (test_certs.py::test_verify_ignores_legacy_bundle_k_max)
@pytest.mark.parametrize("argv, field, value", [
    (["5", "--s", "2"], "k_max", 10**9),
    (["35", "--s", "7"], "subdivision_depth", 10**6),
    (["67", "--s", "2,3"], "k_max", 10**9),
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


@pytest.mark.parametrize("copies", [1, 400_000])
def test_verify_repeated_cover_links_exit_3(copies, tmp_path, capsys):
    # copies of I_0^1 in front of the (67, {2, 3}) chain: the copy does
    # not raise the reach, so the replay fails at it; 400,000 of them
    # are more links than the 11 intervals with k <= k_max = 4 and fail
    # before the replay
    path = tmp_path / "c.json"
    assert main(["check", "67", "--s", "2,3", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["payload"]["chain"][:0] = [{"j": 0, "k": 1}] * copies
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.endswith(": verification FAILED\n")


def test_verify_cover_with_a_large_s(tmp_path, capsys):
    # the (99991, Theorem-2) cover, F_182 with 10,133 links, checked
    # against all 9,592 primes below 10^5: each k's smoothness is tested
    # once, and each test stops at the first prime above k
    path = tmp_path / "c.json"
    primes = ",".join(map(str, primes_below(10**5)))
    assert main(["check", "99991", "--s", primes, "--cert", str(path)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.endswith(": valid\n")


def _repeat(entries, count):
    return [entries[i % len(entries)] for i in range(count)]


def _with_disks(obj, count):
    obj["payload"]["disks"] = _repeat(obj["payload"]["disks"], count)


def _with_pieces(obj, count):
    line = obj["payload"]["gap_lines"][0]
    line["pieces"] = _repeat(line["pieces"], count)


@pytest.mark.parametrize("argv, grow, cap", [
    (["35", "--s", "7"], _with_disks, MAX_DISKS),
    (["15", "--s", "3"], _with_pieces, MAX_GAP_LINE_PIECES),
])
def test_verify_over_count_limit_exit_3_at_once(argv, grow, cap, tmp_path, capsys):
    # repeated disks or pieces still prove the claim: at the cap the file
    # verifies, and one more is rejected before any work
    path = tmp_path / "c.json"
    assert main(["check", *argv, "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    grow(obj, cap)
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 0
    grow(obj, cap + 1)
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
    for i, cert in enumerate(certs):
        path = tmp_path / f"{i}.json"
        save_certificate(cert, str(path))
        assert main(["verify", str(path)]) == 0, cert


def _add_prime(obj, p):
    obj["s"].append(p)


def _set_d(obj, d):
    obj["d"] = d


@pytest.mark.parametrize("forge", [_add_prime, _set_d])
def test_verify_huge_d_or_prime_exit_1_at_once(forge, tmp_path, capsys):
    # 2^61 - 1 is prime and squarefree: trial division of it would not
    # end, so the parser rejects any d or prime of s past MAX_D first
    path = tmp_path / "c.json"
    assert main(["check", "67", "--s", "2,3", "--cert", str(path)]) == 0
    obj = json.loads(path.read_text())
    forge(obj, 2**61 - 1)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert str(MAX_D) in capsys.readouterr().err


def test_verify_file_over_byte_cap_exit_1(tmp_path, monkeypatch, capsys):
    # a valid file padded with trailing whitespace to exactly the cap
    # verifies; one byte more is a parse error before any JSON parsing
    path = tmp_path / "c.json"
    assert main(["check", "67", "--s", "2,3", "--cert", str(path)]) == 0
    text = path.read_text()
    cap = len(text) + 100  # the file is ASCII: one byte per character
    monkeypatch.setattr(certs, "MAX_FILE_BYTES", cap)
    path.write_text(text + " " * (cap - len(text)))
    assert path.stat().st_size == cap
    assert main(["verify", str(path)]) == 0
    path.write_text(text + " " * (cap + 1 - len(text)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert f"MAX_FILE_BYTES = {cap}" in capsys.readouterr().err
