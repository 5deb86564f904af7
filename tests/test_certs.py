"""Certificate serialization round-trips and file-level verification."""
import copy
import hashlib
import json
from fractions import Fraction

import pytest

from seuclid.certs import (
    MAX_SUBDIVISION_DEPTH,
    CertificateParseError,
    canonical_json,
    certificate_from_obj,
    certificate_to_obj,
    load_certificate_obj,
    save_certificate,
    verify_certificate_obj,
)
from seuclid.covering import certify_euclidean, intervals, residual, theorem2_bound
from seuclid.disks import (
    _piece_span,
    certify_exceptional,
    find_uncovered_cell,
    gap_line_certificate,
    table_disk_certificate,
)
from seuclid.exact import SSet, primes_below, squarefree
from seuclid.field import make_field
from seuclid.witness import certify_non_euclidean


def _sample_certs():
    return [
        certify_euclidean(make_field(67), SSet.of(2, 3)),
        table_disk_certificate(5, subdivision_depth=50),
        certify_non_euclidean(17, 2),
        certify_exceptional(15, 3),
    ]


@pytest.mark.parametrize("idx", range(4))
def test_round_trip(idx):
    cert = _sample_certs()[idx]
    obj = certificate_to_obj(cert)
    restored = certificate_from_obj(json.loads(canonical_json(obj)))
    assert certificate_to_obj(restored) == obj


@pytest.mark.parametrize("idx", range(4))
def test_verify_valid(idx):
    assert verify_certificate_obj(certificate_to_obj(_sample_certs()[idx]))


def test_canonical_json_deterministic():
    cert1 = certify_euclidean(make_field(67), SSet.of(2, 3))
    cert2 = certify_euclidean(make_field(67), SSet.of(2, 3))
    assert canonical_json(certificate_to_obj(cert1)) == canonical_json(certificate_to_obj(cert2))


def test_verify_rejects_broken_chain():
    obj = certificate_to_obj(certify_euclidean(make_field(67), SSet.of(2, 3)))
    assert verify_certificate_obj(obj)
    obj["payload"]["chain"].pop(1)
    assert not verify_certificate_obj(obj)


def test_verify_rejects_false_k_max():
    obj = certificate_to_obj(certify_euclidean(make_field(67), SSet.of(2, 3)))
    assert obj["payload"]["k_max"] == 4
    for k_max in (3, 5, 8, 64):
        forged = copy.deepcopy(obj)
        forged["payload"]["k_max"] = k_max
        assert not verify_certificate_obj(forged)


# sha256 over the canonical JSON (one line each) of the Theorem-2 cover
# certificates for squarefree d <= 300 and the three gap-line bundles;
# schema 3.0: a bound piece is only {type, alpha}
PINNED_DIGEST = "31fe72fe91ddf5eb16aa51532c08d18daecaae8ef5b4f3dac5ac0579e1650b7e"


def test_certificate_bytes_pinned():
    certs = []
    for d in range(1, 301):
        if squarefree(d):
            fld = make_field(d)
            certs.append(certify_euclidean(fld, SSet.from_iterable(primes_below(theorem2_bound(fld)))))
    certs += [certify_exceptional(d, p) for d, p in ((10, 2), (15, 3), (15, 5))]
    digest = hashlib.sha256()
    for cert in certs:
        digest.update(canonical_json(certificate_to_obj(cert)).encode() + b"\n")
    assert len(certs) == 186
    assert digest.hexdigest() == PINNED_DIGEST


# sha256 over the canonical JSON (one line each) of all 1824 Theorem-2
# cover certificates for squarefree d <= 3000, schema 3.0 (the 2.0 bytes
# but for the version string)
PINNED_THEOREM2_DIGEST = "8a419906965e27423886b20380c014ce80b3f0b4bbcd79ced93ae596b6e805c8"


def test_theorem2_bytes_pinned_to_3000():
    digest = hashlib.sha256()
    count = 0
    for d in range(1, 3001):
        if squarefree(d):
            fld = make_field(d)
            cert = certify_euclidean(fld, SSet.from_iterable(primes_below(theorem2_bound(fld))))
            digest.update(canonical_json(certificate_to_obj(cert)).encode() + b"\n")
            count += 1
    assert count == 1824
    assert digest.hexdigest() == PINNED_THEOREM2_DIGEST


_ZERO = {"num": "0", "den": "1"}
_ONE = {"num": "1", "den": "1"}


@pytest.mark.parametrize("d, p", [(10, 2), (15, 3), (15, 5)])
def test_verify_rejects_zero_gap_line(d, p):
    # alpha = 0 claiming the bound 0*x^2 + 0*x + 0 on all of [0, 1]
    obj = certificate_to_obj(certify_exceptional(d, p))
    for line in obj["payload"]["gap_lines"]:
        line["pieces"] = [{
            "type": "bound", "alpha": {"a": 0, "b": 0, "c": 1},
            "a2": _ZERO, "a1": _ZERO, "a0": _ZERO,
            "lo": {"a": _ZERO, "b": _ZERO, "m": 0}, "hi": {"a": _ONE, "b": _ZERO, "m": 0},
            "lo_closed": True, "hi_closed": True,
        }]
    assert not verify_certificate_obj(obj)


def test_bundle_payload_keys():
    obj = certificate_to_obj(certify_exceptional(10, 2))
    assert obj["schema_version"] == "3.0"
    assert set(obj["payload"]) == {"k_max", "gap_rationals", "gap_lines"}
    for piece in obj["payload"]["gap_lines"][0]["pieces"]:
        assert set(piece) == {"type", "alpha"}


def test_schema_1_0_bundle_still_verifies():
    """A 1.0 file carries each piece's quadratic and the residual gaps;
    the parser ignores both."""
    obj = certificate_to_obj(certify_exceptional(10, 2))
    obj["schema_version"] = "1.0"
    fld, k_max = make_field(10), obj["payload"]["k_max"]
    ivs = intervals(fld, SSet.of(2), k_max)
    legacy = []
    for lo, hi in residual(fld, SSet.of(2), k_max).gaps:
        # a gap runs from the right end of one interval to the left end of another
        left = next(iv for iv in ivs if iv.hi == lo)
        right = next(iv for iv in ivs if iv.lo == hi)
        legacy.append([
            {"j": left.j, "s": 1, "k": left.k, "D": fld.D},
            {"j": right.j, "s": -1, "k": right.k, "D": fld.D},
        ])
    obj["payload"]["gaps"] = legacy
    quadratics = [(2, 0, Fraction(5, 9)), (2, -4, Fraction(23, 9)), (8, -8, Fraction(23, 9))]
    for piece, coefficients in zip(obj["payload"]["gap_lines"][0]["pieces"], quadratics):
        for key, q in zip(("a2", "a1", "a0"), map(Fraction, coefficients)):
            piece[key] = {"num": str(q.numerator), "den": str(q.denominator)}
    assert verify_certificate_obj(obj)
    # the stated quadratic is not read: one that never drops below 1
    # changes nothing
    for piece in obj["payload"]["gap_lines"][0]["pieces"]:
        piece.update(a2=_ZERO, a1=_ZERO, a0={"num": "5", "den": "1"})
    assert verify_certificate_obj(obj)


# the canonical objects that schema 2.0 wrote for the (10, 2) bundle,
# with each bound piece's claimed ends and flags, and for the depth-125
# (35, 5) disk cover, with each disk's `boosted` flag
SCHEMA_2_0_BUNDLE_10_2 = (
    '{"d":10,"kind":"exceptional-bundle","payload":{"gap_lines":[{"pieces":[{"alpha":{"a":0,'
    '"b":1,"c":2},"hi":{"a":{"den":"1","num":"0"},"b":{"den":"3","num":"1"},"m":2},'
    '"hi_closed":false,"lo":{"a":{"den":"1","num":"0"},"b":{"den":"1","num":"0"},"m":0},'
    '"lo_closed":true,"type":"bound"},{"alpha":{"a":2,"b":1,"c":2},"hi":{"a":{"den":"1",'
    '"num":"1"},"b":{"den":"1","num":"0"},"m":0},"hi_closed":true,"lo":{"a":{"den":"1",'
    '"num":"1"},"b":{"den":"3","num":"-1"},"m":2},"lo_closed":false,"type":"bound"},'
    '{"alpha":{"a":2,"b":1,"c":4},"hi":{"a":{"den":"2","num":"1"},"b":{"den":"6","num":"1"},'
    '"m":2},"hi_closed":false,"lo":{"a":{"den":"2","num":"1"},"b":{"den":"6","num":"-1"},"m":2},'
    '"lo_closed":false,"type":"bound"}],"y0":{"den":"3","num":"1"}}],"gap_rationals":[{"den":"3",'
    '"num":"1"},{"den":"3","num":"2"}],"k_max":64},"s":[2],"schema_version":"2.0"}'
)
SCHEMA_2_0_DISK_35_5 = (
    '{"d":35,"kind":"disk","payload":{"disks":[{"a":0,"b":0,"boosted":false,"c":1,'
    '"r_squared":{"den":"1","num":"1"}},{"a":1,"b":0,"boosted":false,"c":1,'
    '"r_squared":{"den":"1","num":"1"}},{"a":0,"b":1,"boosted":false,"c":1,'
    '"r_squared":{"den":"1","num":"1"}},{"a":1,"b":1,"boosted":false,"c":1,'
    '"r_squared":{"den":"1","num":"1"}},{"a":1,"b":2,"boosted":false,"c":5,'
    '"r_squared":{"den":"25","num":"1"}},{"a":2,"b":2,"boosted":false,"c":5,'
    '"r_squared":{"den":"25","num":"1"}},{"a":3,"b":3,"boosted":false,"c":5,'
    '"r_squared":{"den":"25","num":"1"}},{"a":4,"b":3,"boosted":false,"c":5,'
    '"r_squared":{"den":"25","num":"1"}},{"a":2,"b":1,"boosted":true,"c":5,'
    '"r_squared":{"den":"5","num":"1"}},{"a":-1,"b":2,"boosted":true,"c":5,'
    '"r_squared":{"den":"5","num":"1"}},{"a":6,"b":3,"boosted":true,"c":5,"r_squared":{"den":"5",'
    '"num":"1"}},{"a":3,"b":4,"boosted":true,"c":5,"r_squared":{"den":"5","num":"1"}},{"a":4,'
    '"b":2,"boosted":true,"c":5,"r_squared":{"den":"5","num":"1"}},{"a":1,"b":3,"boosted":true,'
    '"c":5,"r_squared":{"den":"5","num":"1"}}],"subdivision_depth":125},"s":[5],'
    '"schema_version":"2.0"}'
)


@pytest.mark.parametrize("text", [SCHEMA_2_0_BUNDLE_10_2, SCHEMA_2_0_DISK_35_5])
def test_schema_2_0_files_still_verify(text):
    """The keys that 3.0 dropped are ignored, not trusted."""
    obj = json.loads(text)
    assert obj["schema_version"] == "2.0"
    assert verify_certificate_obj(obj) is True


def test_verify_rejects_bundle_alpha_outside_o_s():
    obj = certificate_to_obj(certify_exceptional(10, 2))
    obj["payload"]["gap_lines"][0]["pieces"][0]["alpha"] = {"a": 0, "b": 1, "c": 3}
    assert verify_certificate_obj(obj) is False


@pytest.mark.parametrize("k_max", [0, -5])
def test_verify_rejects_nonpositive_bundle_k_max(k_max):
    obj = certificate_to_obj(certify_exceptional(15, 3))
    obj["payload"]["k_max"] = k_max
    assert verify_certificate_obj(obj) is False


def _bound_piece(a, b, c):
    return {"type": "bound", "alpha": {"a": a, "b": b, "c": c}}


def test_verify_rejects_piece_with_another_radicand():
    # on the line y0 = 1/5 of d = 10 the span of alpha = -2 has ends in
    # sqrt(15) and that of (-8 + w)/4 ends in sqrt(10): they cannot be compared
    obj = certificate_to_obj(certify_exceptional(10, 2))
    line = {"y0": {"num": "1", "den": "5"}, "pieces": [_bound_piece(-2, 0, 1), _bound_piece(-8, 1, 4)]}
    obj["payload"]["gap_lines"].append(line)
    assert verify_certificate_obj(obj) is False


def test_verify_accepts_radicand_equal_up_to_a_square():
    # the derived ends of the (10, 2) pieces are sqrt(288)/36 = sqrt(2)/3,
    # 1 -/+ sqrt(288)/36 and 1/2 -/+ sqrt(1152)/144 = 1/2 -/+ sqrt(2)/6
    fld, s, cert = make_field(10), SSet.of(2), gap_line_certificate(10, 2)
    radicands = [_piece_span(fld, s, cert.y0, piece.alpha)[0].m for piece in cert.pieces]
    assert radicands == [288, 288, 1152]
    assert verify_certificate_obj(certificate_to_obj(certify_exceptional(10, 2))) is True


@pytest.mark.parametrize("depth", [0, -5])
def test_verify_rejects_nonpositive_subdivision_depth(depth):
    obj = certificate_to_obj(table_disk_certificate(5, subdivision_depth=40))
    obj["payload"]["subdivision_depth"] = depth
    assert verify_certificate_obj(obj) is False
    # library callers of the scan still get the ValueError
    with pytest.raises(ValueError):
        find_uncovered_cell(certificate_from_obj(obj))


@pytest.mark.parametrize("p", [5, 7])
def test_table_disks_verify_at_the_depth_cap(p):
    obj = certificate_to_obj(table_disk_certificate(p, subdivision_depth=MAX_SUBDIVISION_DEPTH))
    assert verify_certificate_obj(obj) is True


def test_verify_rejects_non_smooth_interval():
    obj = certificate_to_obj(certify_euclidean(make_field(67), SSet.of(2, 3)))
    obj["payload"]["chain"][1]["k"] = 5
    assert not verify_certificate_obj(obj)


def test_verify_rejects_inflated_disk_radius():
    obj = certificate_to_obj(table_disk_certificate(5, subdivision_depth=40))
    # a plain disk at c = 5 claims the boosted radius sqrt(5)/5
    for entry in obj["payload"]["disks"]:
        if entry["c"] == 5 and entry["r_squared"] == {"num": "1", "den": "25"}:
            entry["r_squared"] = {"num": "1", "den": "5"}
            break
    else:
        pytest.fail("no plain disk at c = 5")
    assert not verify_certificate_obj(obj)


def test_verify_rejects_wrong_witness_bound():
    obj = certificate_to_obj(certify_non_euclidean(17, 2))
    obj["payload"]["bound"] = {"num": "2", "den": "1"}
    assert not verify_certificate_obj(obj)


def test_parse_errors():
    with pytest.raises(CertificateParseError):
        certificate_from_obj({"kind": "cover"})
    with pytest.raises(CertificateParseError):
        certificate_from_obj({"kind": "nonsense", "d": 5, "s": [], "payload": {}})


@pytest.mark.parametrize("kind, cert", [
    ("witness", lambda: certify_non_euclidean(17, 2)),
    ("exceptional-bundle", lambda: certify_exceptional(10, 2)),
])
@pytest.mark.parametrize("primes", [[2, 3], []])
def test_parse_error_names_s_of_one_prime_kinds(kind, cert, primes):
    obj = certificate_to_obj(cert())
    assert obj["kind"] == kind
    obj["s"] = primes
    with pytest.raises(CertificateParseError) as info:
        certificate_from_obj(obj)
    assert str(info.value) == f"{kind} certificate: s must list exactly one prime, got {primes}"


def test_save_and_load(tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(certify_euclidean(make_field(67), SSet.of(2, 3)), str(path))
    obj = load_certificate_obj(str(path))
    assert verify_certificate_obj(obj)
    assert obj["metadata"]["tool"] == "seuclid"
    # truncated file fails to parse
    path.write_text(path.read_text()[:40])
    with pytest.raises(CertificateParseError):
        load_certificate_obj(str(path))
