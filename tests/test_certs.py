"""Certificate serialization round-trips and file-level verification."""
import copy
import hashlib
import json
from fractions import Fraction

import pytest

from seuclid.certs import (
    CertificateParseError,
    canonical_json,
    certificate_from_obj,
    certificate_to_obj,
    load_certificate_obj,
    save_certificate,
    verify_certificate_obj,
)
from seuclid.covering import certify_euclidean, intervals, residual, theorem2_bound
from seuclid.disks import certify_exceptional, find_uncovered_cell, table_disk_certificate
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
# schema 2.0: the 1.0 objects with schema_version "2.0" and without the
# bundle's "gaps" and its pieces' "a2"/"a1"/"a0"
PINNED_DIGEST = "eb3cb772095eb88937ec5b7c80d8aa05357f93632c4c04364d6853aabafee8a4"


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
    assert obj["schema_version"] == "2.0"
    assert set(obj["payload"]) == {"k_max", "gap_rationals", "gap_lines"}
    piece = obj["payload"]["gap_lines"][0]["pieces"][0]
    assert set(piece) == {"type", "alpha", "lo", "hi", "lo_closed", "hi_closed"}


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


def test_verify_rejects_bundle_alpha_outside_o_s():
    obj = certificate_to_obj(certify_exceptional(10, 2))
    obj["payload"]["gap_lines"][0]["pieces"][0]["alpha"] = {"a": 0, "b": 1, "c": 3}
    assert verify_certificate_obj(obj) is False


@pytest.mark.parametrize("k_max", [0, -5])
def test_verify_rejects_nonpositive_bundle_k_max(k_max):
    obj = certificate_to_obj(certify_exceptional(15, 3))
    obj["payload"]["k_max"] = k_max
    assert verify_certificate_obj(obj) is False


def test_verify_rejects_piece_with_another_radicand():
    # the (10, 2) line's ends use sqrt(2); an end in sqrt(3) cannot be compared
    obj = certificate_to_obj(certify_exceptional(10, 2))
    piece = obj["payload"]["gap_lines"][0]["pieces"][0]
    piece["hi"] = {"a": {"num": "0", "den": "1"}, "b": {"num": "1", "den": "10"}, "m": 3}
    assert verify_certificate_obj(obj) is False


def test_verify_accepts_radicand_equal_up_to_a_square():
    # sqrt(8)/6 is the produced sqrt(2)/3, written over another radicand
    obj = certificate_to_obj(certify_exceptional(10, 2))
    piece = obj["payload"]["gap_lines"][0]["pieces"][0]
    assert piece["hi"] == {"a": {"num": "0", "den": "1"}, "b": {"num": "1", "den": "3"}, "m": 2}
    piece["hi"] = {"a": {"num": "0", "den": "1"}, "b": {"num": "1", "den": "6"}, "m": 8}
    assert verify_certificate_obj(obj) is True
    # sqrt(8)/3 is another number, past the point where the bound reaches 1
    piece["hi"]["b"] = {"num": "1", "den": "3"}
    assert verify_certificate_obj(obj) is False


@pytest.mark.parametrize("depth", [0, -5])
def test_verify_rejects_nonpositive_subdivision_depth(depth):
    obj = certificate_to_obj(table_disk_certificate(5, subdivision_depth=40))
    obj["payload"]["subdivision_depth"] = depth
    assert verify_certificate_obj(obj) is False
    # library callers of the scan still get the ValueError
    with pytest.raises(ValueError):
        find_uncovered_cell(certificate_from_obj(obj))


def test_verify_rejects_non_smooth_interval():
    obj = certificate_to_obj(certify_euclidean(make_field(67), SSet.of(2, 3)))
    obj["payload"]["chain"][1]["k"] = 5
    assert not verify_certificate_obj(obj)


def test_verify_rejects_inflated_disk_radius():
    obj = certificate_to_obj(table_disk_certificate(5, subdivision_depth=40))
    for entry in obj["payload"]["disks"]:
        if not entry["boosted"]:
            entry["r_squared"] = {"num": "1", "den": "5"}
            break
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
