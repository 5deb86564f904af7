"""Certificate serialization round-trips and file-level verification."""
import copy
import hashlib
import json

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
from seuclid.covering import certify_euclidean, theorem2_bound
from seuclid.disks import certify_exceptional, table_disk_certificate
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
# certificates for squarefree d <= 300 and the three gap-line bundles
PINNED_DIGEST = "a9e6fd8ac08235e68debb62ffa56ae07e71a14fca7a908bfd2603d57b27f8b37"


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
