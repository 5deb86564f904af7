"""Certificate serialization round-trips and file-level verification."""
import copy
import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seuclid import certs, covering, disks
from seuclid.certs import (
    MAX_BUNDLE_K_MAX,
    MAX_SUBDIVISION_DEPTH,
    CertificateParseError,
    _typed,
    canonical_json,
    certificate_from_obj,
    certificate_to_obj,
    load_certificate_obj,
    save_certificate,
    verify_certificate_obj,
)
from seuclid.covering import certify_euclidean, replay_chain, residual, theorem2_bound
from seuclid.disks import (
    certify_exceptional,
    find_uncovered_cell,
    gap_line_certificate,
    table_disk_certificate,
    verify_gap_line,
)
from seuclid.exact import SSet, is_prime, primes_below, s_part_strip, squarefree
from seuclid.field import make_field
from seuclid.witness import certify_non_euclidean
from surd_reference import MIXED_COVER, _piece_span


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


def _cover_admissible_reference(chain, s):
    """The checker's per-link test before it tested each denominator
    once: every link is an I_j^k with 0 <= j <= k, gcd(j, k) = 1 and
    S-smooth k."""
    for j, k in chain:
        if not (0 <= j <= k and math.gcd(j, k) == 1 and s_part_strip(k, s) == 1):
            return False
    return True


def _verify_cover_reference(obj):
    """verify_certificate_obj on a cover object whose d, s and k_max are
    valid, by the per-link path: the chain parsed with `_typed` on each
    value, the work caps, the reference test above, the k_max test and
    `replay_chain`."""
    payload = obj["payload"]
    try:
        chain = tuple((_typed(e["j"], int, "j"), _typed(e["k"], int, "k")) for e in payload["chain"])
    except CertificateParseError:
        raise
    except Exception as exc:
        raise CertificateParseError(f"malformed certificate: {exc}") from exc
    k_max = payload["k_max"]
    if k_max > MAX_BUNDLE_K_MAX or len(chain) > 1 + k_max * (k_max + 1) // 2:
        return False
    if not _cover_admissible_reference(chain, SSet.from_iterable(obj["s"])):
        return False
    if k_max != max((k for _, k in chain), default=0):
        return False
    return replay_chain(make_field(obj["d"]).D, chain)


def _outcome(verify, obj):
    """The result of verify(obj), or the message of the parse error it raises."""
    try:
        return verify(obj)
    except CertificateParseError as exc:
        return ("parse error", str(exc))


SQUAREFREE_3000 = [d for d in range(1, 3001) if squarefree(d)]
COVER_MUTATIONS = (
    "drop", "duplicate", "swap", "j < 0", "j > k", "k = 0", "k < 0", "scale by 2", "non-smooth k",
    "k_max + 1", "k_max - 1",
)


def _smooth_farey(n, s):
    """The links of the Farey sequence of order n whose k is S-smooth, in
    increasing order of j/k."""
    links = [(j, k) for k in range(1, n + 1) if s_part_strip(k, s) == 1 for j in range(k + 1) if math.gcd(j, k) == 1]
    return sorted(links, key=lambda link: Fraction(*link))


@st.composite
def _mutated_cover_objs(draw):
    """A cover object whose chain is F_n, n near k0, cut to the S-smooth k
    (for the Theorem-2 set and n = k0 the producer's certificate), with
    up to three mutations and, one time in four, a value of a wrong JSON
    type."""
    d = draw(st.sampled_from(SQUAREFREE_3000))
    fld = make_field(d)
    k0 = theorem2_bound(fld) - 1
    primes = draw(st.sampled_from([None, (2,), (2, 3), (2, 3, 5)]))
    s = SSet.from_iterable(primes_below(k0 + 1) if primes is None else primes)
    n = max(1, k0 + draw(st.sampled_from([0, 0, 0, -2, -1, 1, 2])))
    chain = [{"j": j, "k": k} for j, k in _smooth_farey(n, s)]
    k_max = max(link["k"] for link in chain)
    rnd = draw(st.randoms(use_true_random=False))
    for op in draw(st.lists(st.sampled_from(COVER_MUTATIONS), max_size=3)):
        i = rnd.randrange(len(chain)) if chain else None
        if op == "k_max + 1":
            k_max += 1
        elif op == "k_max - 1":
            k_max -= 1
        elif op == "non-smooth k":
            q = next(p for p in range(2, 1000) if is_prime(p) and p not in s)
            chain.insert(rnd.randrange(len(chain) + 1), {"j": rnd.randrange(1, q), "k": q})
        elif i is None:
            continue
        elif op == "drop":
            del chain[i]
        elif op == "duplicate":
            chain.insert(i, dict(chain[i]))
        elif op == "swap" and i + 1 < len(chain):
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
        elif op == "j < 0":
            chain[i]["j"] = -1 - chain[i]["j"]
        elif op == "j > k":
            chain[i]["j"] = chain[i]["k"] + 1
        elif op == "k = 0":
            chain[i]["k"] = 0
        elif op == "k < 0":
            chain[i]["k"] = -chain[i]["k"]
        elif op == "scale by 2":
            chain[i] = {"j": 2 * chain[i]["j"], "k": 2 * chain[i]["k"]}
    if chain and draw(st.integers(0, 3)) == 3:
        link = chain[rnd.randrange(len(chain))]
        key = rnd.choice("jk")
        link[key] = rnd.choice([bool(link[key] % 2), float(link[key]), str(link[key])])
    return {
        "schema_version": "3.0", "kind": "cover", "d": d, "s": list(s.primes),
        "payload": {"k_max": k_max, "chain": chain},
    }


@settings(max_examples=300, deadline=None)
@given(_mutated_cover_objs())
def test_verify_cover_matches_the_per_link_reference(obj):
    assert _outcome(verify_certificate_obj, obj) == _outcome(_verify_cover_reference, obj)


@pytest.mark.parametrize("links, message", [
    ({2: {"j": 1.0}}, "j must be of type int, got 1.0"),
    ({2: {"j": 1}, 3: {"j": 1.0, "k": 2}}, "malformed certificate: 'k'"),
    ({2: {"j": 1, "k": "3"}, 3: {"k": 2}}, "k must be of type int, got '3'"),
])
def test_cover_parse_error_names_the_first_bad_value(links, message):
    obj = certificate_to_obj(certify_euclidean(make_field(67), SSet.of(2, 3)))
    for i, link in links.items():
        obj["payload"]["chain"][i] = link
    assert _outcome(verify_certificate_obj, obj) == _outcome(_verify_cover_reference, obj) == ("parse error", message)


def test_verify_tests_each_denominator_once(monkeypatch):
    """F_36 has 397 links but 36 denominators: the smoothness test runs
    once per distinct k, not once per link."""
    fld = make_field(997)
    cert = certify_euclidean(fld, SSet.from_iterable(primes_below(theorem2_bound(fld))))
    assert cert.k_max == 36 and len(cert.chain) == 397
    calls = []

    def counting(n, s):
        calls.append(n)
        return s_part_strip(n, s)

    monkeypatch.setattr(certs, "s_part_strip", counting)
    assert verify_certificate_obj(certificate_to_obj(cert)) is True
    assert sorted(calls) == list(range(1, 37))


# sha256 over the canonical JSON (one line each) of the Theorem-2 cover
# certificates for squarefree d <= 300 and the three gap-line bundles;
# schema 5.0: a bound piece is only {type, alpha}, and a bundle payload
# is only {gap_lines} (the 4.0 bytes otherwise, but for the version
# string)
PINNED_DIGEST = "c0eac86ef757566ceaea9e1863cfc645babbf9591ca5db9b9a36b563f9b9bf34"


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
# cover certificates for squarefree d <= 3000, schema 5.0 (the 2.0 to
# 4.0 bytes but for the version string)
PINNED_THEOREM2_DIGEST = "49c636672c01b3e8d1f1e493a5c796b303061038537899eefdc179120e03ec4f"


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


# alpha = 0 claiming the bound 0*x^2 + 0*x + 0 on all of [0, 1], with
# the keys that schema 1.0 and 2.0 wrote
_ZERO_GAP_PIECE = {
    "type": "bound", "alpha": {"a": 0, "b": 0, "c": 1},
    "a2": _ZERO, "a1": _ZERO, "a0": _ZERO,
    "lo": {"a": _ZERO, "b": _ZERO, "m": 0}, "hi": {"a": _ONE, "b": _ZERO, "m": 0},
    "lo_closed": True, "hi_closed": True,
}


def _raise_residual(*args):
    raise AssertionError("a residual was computed")


@pytest.mark.parametrize("d, p", [(10, 2), (15, 3), (15, 5)])
def test_verify_rejects_zero_gap_line(d, p, monkeypatch):
    """The benchmark's zero-gap forgery; the lines do not depend on
    k_max, so they are checked first, before any residual."""
    obj = certificate_to_obj(certify_exceptional(d, p))
    for line in obj["payload"]["gap_lines"]:
        line["pieces"] = [copy.deepcopy(_ZERO_GAP_PIECE)]
    monkeypatch.setattr(covering, "residual", _raise_residual)
    monkeypatch.setattr(disks, "residual", _raise_residual)
    assert not verify_certificate_obj(obj)


def test_bundle_payload_keys():
    obj = certificate_to_obj(certify_exceptional(10, 2))
    assert obj["schema_version"] == "5.0"
    assert set(obj["payload"]) == {"gap_lines"}
    for piece in obj["payload"]["gap_lines"][0]["pieces"]:
        assert set(piece) == {"type", "alpha"}


def test_witness_payload_keys():
    obj = certificate_to_obj(certify_non_euclidean(5, 11))
    assert obj["schema_version"] == "5.0"
    assert obj["payload"] == {"xi0": {"a": 1, "b": 1, "c": 2}, "bound": {"num": "3", "den": "2"}}


def test_schema_1_0_bundle_still_verifies():
    """A 1.0 file carries k_max, each piece's quadratic and the residual
    gaps; the parser ignores all three."""
    obj = certificate_to_obj(certify_exceptional(10, 2))
    obj["schema_version"] = "1.0"
    fld, k_max = make_field(10), 64
    obj["payload"]["k_max"] = k_max
    # a gap runs from the right end (j, 1, k) of one interval to the left
    # end (j, -1, k) of another
    legacy = [
        [{"j": j, "s": side, "k": k, "D": fld.D} for j, side, k in gap]
        for gap in residual(fld, SSet.of(2), k_max).gaps
    ]
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


# the canonical objects that schema 3.0 wrote for the (5, 11) witness,
# with its `case_tag`, and for the (10, 2) and (15, 3) bundles, with
# their `gap_rationals`
SCHEMA_3_0_WITNESS_5_11 = (
    '{"d":5,"kind":"witness","payload":{"bound":{"den":"2","num":"3"},"case_tag":"OddInert23",'
    '"xi0":{"a":1,"b":1,"c":2}},"s":[11],"schema_version":"3.0"}'
)
SCHEMA_3_0_BUNDLE_10_2 = (
    '{"d":10,"kind":"exceptional-bundle","payload":{"gap_lines":[{"pieces":[{"alpha":{"a":0,"b":1,'
    '"c":2},"type":"bound"},{"alpha":{"a":2,"b":1,"c":2},"type":"bound"},{"alpha":{"a":2,"b":1,'
    '"c":4},"type":"bound"}],"y0":{"den":"3","num":"1"}}],"gap_rationals":[{"den":"3","num":"1"},'
    '{"den":"3","num":"2"}],"k_max":64},"s":[2],"schema_version":"3.0"}'
)
SCHEMA_3_0_BUNDLE_15_3 = (
    '{"d":15,"kind":"exceptional-bundle","payload":{"gap_lines":[{"pieces":[{"alpha":{"a":0,"b":1,'
    '"c":1},"type":"bound"},{"alpha":{"a":1,"b":0,"c":1},"type":"bound"},{"alpha":{"a":1,"b":0,'
    '"c":1},"type":"point","x":{"den":"1","num":"0"}},{"alpha":{"a":0,"b":0,"c":1},"type":"point",'
    '"x":{"den":"2","num":"1"}},{"alpha":{"a":2,"b":0,"c":1},"type":"point","x":{"den":"1",'
    '"num":"1"}}],"y0":{"den":"2","num":"1"}}],"gap_rationals":[{"den":"2","num":"1"}],"k_max":81},'
    '"s":[3],"schema_version":"3.0"}'
)


@pytest.mark.parametrize("text", [SCHEMA_3_0_WITNESS_5_11, SCHEMA_3_0_BUNDLE_10_2, SCHEMA_3_0_BUNDLE_15_3],
                         ids=["witness (5, 11)", "bundle (10, 2)", "bundle (15, 3)"])
def test_schema_3_0_files_still_verify(text):
    """The keys that 4.0 and 5.0 dropped are ignored, not trusted: a 3.0
    file is the 5.0 one plus `case_tag`, or `gap_rationals` and `k_max`."""
    obj = json.loads(text)
    assert obj["schema_version"] == "3.0"
    assert verify_certificate_obj(obj) is True
    legacy = {"witness": {"case_tag"}, "exceptional-bundle": {"gap_rationals", "k_max"}}[obj["kind"]]
    current = certificate_to_obj(certificate_from_obj(obj))
    assert current == dict(obj, schema_version="5.0", payload={
        key: value for key, value in obj["payload"].items() if key not in legacy
    })


# the canonical objects that schema 4.0 wrote for the (5, 11) witness
# and for the (10, 2) and (15, 5) bundles, with their `k_max`
SCHEMA_4_0_WITNESS_5_11 = (
    '{"d":5,"kind":"witness","payload":{"bound":{"den":"2","num":"3"},"xi0":{"a":1,"b":1,"c":2}},'
    '"s":[11],"schema_version":"4.0"}'
)
SCHEMA_4_0_BUNDLE_10_2 = (
    '{"d":10,"kind":"exceptional-bundle","payload":{"gap_lines":[{"pieces":[{"alpha":{"a":0,"b":1,'
    '"c":2},"type":"bound"},{"alpha":{"a":2,"b":1,"c":2},"type":"bound"},{"alpha":{"a":2,"b":1,'
    '"c":4},"type":"bound"}],"y0":{"den":"3","num":"1"}}],"k_max":64},"s":[2],"schema_version":"4.0"}'
)
SCHEMA_4_0_BUNDLE_15_5 = (
    '{"d":15,"kind":"exceptional-bundle","payload":{"gap_lines":[{"pieces":[{"alpha":{"a":0,"b":1,'
    '"c":1},"type":"bound"},{"alpha":{"a":1,"b":0,"c":1},"type":"bound"},{"alpha":{"a":-1,"b":0,'
    '"c":1},"type":"point","x":{"den":"1","num":"0"}},{"alpha":{"a":2,"b":0,"c":1},"type":"point",'
    '"x":{"den":"2","num":"1"}},{"alpha":{"a":0,"b":0,"c":1},"type":"point","x":{"den":"1",'
    '"num":"1"}}],"y0":{"den":"2","num":"1"}}],"k_max":125},"s":[5],"schema_version":"4.0"}'
)


@pytest.mark.parametrize("text", [SCHEMA_4_0_WITNESS_5_11, SCHEMA_4_0_BUNDLE_10_2, SCHEMA_4_0_BUNDLE_15_5],
                         ids=["witness (5, 11)", "bundle (10, 2)", "bundle (15, 5)"])
def test_schema_4_0_files_still_verify(text):
    """A 4.0 file is the 5.0 one but for the version string and, in a
    bundle, the `k_max` that 5.0 derives."""
    obj = json.loads(text)
    assert obj["schema_version"] == "4.0"
    assert verify_certificate_obj(obj) is True
    current = certificate_to_obj(certificate_from_obj(obj))
    assert current == dict(obj, schema_version="5.0", payload={
        key: value for key, value in obj["payload"].items() if key != "k_max"
    })


@pytest.mark.parametrize("version", ["99.0", "4", "5", 5.0, None, ["5.0"], "delete"])
def test_unknown_schema_version_is_a_parse_error(version):
    """Only the versions 1.0 to 5.0 are read; any other value, or no
    `schema_version` at all, fails to parse."""
    obj = json.loads(SCHEMA_4_0_WITNESS_5_11)
    if version == "delete":
        del obj["schema_version"]
    else:
        obj["schema_version"] = version
    with pytest.raises(CertificateParseError, match="schema_version"):
        certificate_from_obj(obj)
    with pytest.raises(CertificateParseError):
        verify_certificate_obj(obj)


@pytest.mark.parametrize("version", ["1.0", "2.0", "3.0", "4.0", "5.0"])
def test_every_readable_schema_version_verifies(version):
    obj = json.loads(SCHEMA_4_0_WITNESS_5_11)
    obj["schema_version"] = version
    assert verify_certificate_obj(obj) is True


def _legacy_bundle(text, mutate):
    obj = json.loads(text)
    mutate(obj["payload"]["gap_lines"])
    return obj


_LINE_1_5 = {"y0": {"num": "1", "den": "5"}, "pieces": [{"type": "bound", "alpha": {"a": a, "b": b, "c": c}}
                                                         for a, b, c in MIXED_COVER]}
# y0 = 1/M, M = 2^61 - 1 prime: near y = 0, alpha = 0 and 1 cover the line
_M61 = 2**61 - 1
_LINE_1_M61 = {"y0": {"num": "1", "den": str(_M61)}, "pieces": [
    {"type": "bound", "alpha": {"a": a, "b": 0, "c": 1}} for a in (0, 1)
]}


def test_bundle_lines_that_verify_alone():
    """The forged lines below cover [0, 1] on their own: only the orbit
    rule rejects the bundles that carry them."""
    assert verify_gap_line(make_field(10), SSet.of(2), certificate_from_obj(
        _legacy_bundle(SCHEMA_3_0_BUNDLE_10_2, lambda lines: lines.append(_LINE_1_5))).gap_lines[1])
    assert verify_gap_line(make_field(15), SSet.of(3), certificate_from_obj(
        _legacy_bundle(SCHEMA_3_0_BUNDLE_15_3, lambda lines: lines.append(_LINE_1_M61))).gap_lines[1])


@pytest.mark.parametrize("text, mutate", [
    # the orbit 1/5 -> 2/5 -> 4/5 -> 3/5 of a covered line lies in no gap;
    # the stored gap_rationals {1/3, 2/3} each sit in one
    (SCHEMA_3_0_BUNDLE_10_2, lambda lines: lines.append(_LINE_1_5)),
    # no lines: the stored gap_rationals would still fill both gaps
    (SCHEMA_3_0_BUNDLE_10_2, lambda lines: lines.clear()),
], ids=["extra line y0 = 1/5", "no lines"])
def test_bundle_forgeries_rejected(text, mutate):
    """Rejected because the gap rationals are derived from the lines,
    not read from the file's legacy `gap_rationals`."""
    assert verify_certificate_obj(_legacy_bundle(text, mutate)) is False


def test_bundle_whose_orbits_never_settle_rejected_at_once(monkeypatch):
    """The line y0 = 1/5 verifies alone, but its orbit of four rationals
    outnumbers the residual gaps of (10, 2) at every k_max: the search
    gives up at MAX_BUNDLE_K_MAX = 2^12, after 13 residuals."""
    obj = _legacy_bundle(SCHEMA_3_0_BUNDLE_10_2, lambda lines: lines.__setitem__(slice(None), [_LINE_1_5]))
    k_maxes = []

    def counted(fld, s, k_max):
        k_maxes.append(k_max)
        return residual(fld, s, k_max)

    monkeypatch.setattr(disks, "residual", counted)
    start = time.perf_counter()
    assert verify_certificate_obj(obj) is False
    assert time.perf_counter() - start < 1
    assert len(k_maxes) <= 13 and max(k_maxes) <= MAX_BUNDLE_K_MAX


def test_bundle_with_a_long_orbit_rejected_at_once():
    """The line y0 = 1/(2^61 - 1) verifies alone, and 3 has a vast order
    mod 2^61 - 1: the orbit stops once it outgrows the one gap of (15, 3)."""
    obj = _legacy_bundle(SCHEMA_3_0_BUNDLE_15_3, lambda lines: lines.append(_LINE_1_M61))
    start = time.perf_counter()
    assert verify_certificate_obj(obj) is False
    assert time.perf_counter() - start < 1


_KIND_CERTS = {
    "cover": lambda: certify_euclidean(make_field(67), SSet.of(2, 3)),
    "disk": lambda: table_disk_certificate(5, subdivision_depth=40),
    "witness": lambda: certify_non_euclidean(5, 11),
    "exceptional-bundle": lambda: certify_exceptional(10, 2),
}


@pytest.mark.parametrize("kind", sorted(_KIND_CERTS))
@pytest.mark.parametrize("d", [0, -3, 4])
def test_unusable_d_is_a_parse_error_for_every_kind(kind, d):
    obj = certificate_to_obj(_KIND_CERTS[kind]())
    assert obj["kind"] == kind
    obj["d"] = d
    with pytest.raises(CertificateParseError):
        certificate_from_obj(obj)
    with pytest.raises(CertificateParseError):
        verify_certificate_obj(obj)


def test_verify_rejects_bundle_alpha_outside_o_s():
    obj = certificate_to_obj(certify_exceptional(10, 2))
    obj["payload"]["gap_lines"][0]["pieces"][0]["alpha"] = {"a": 0, "b": 1, "c": 3}
    assert verify_certificate_obj(obj) is False


@pytest.mark.parametrize("k_max", [0, -5, 1, 10**9, "x", None])
def test_verify_ignores_legacy_bundle_k_max(k_max):
    """A 4.0 bundle's `k_max` is ignored, not trusted: any value, or
    none, verifies at once; the checker derives k_max (2 for (10, 2))."""
    obj = json.loads(SCHEMA_4_0_BUNDLE_10_2)
    if k_max is None:
        del obj["payload"]["k_max"]
    else:
        obj["payload"]["k_max"] = k_max
    start = time.perf_counter()
    assert verify_certificate_obj(obj) is True
    assert time.perf_counter() - start < 1


def _bound_piece(a, b, c):
    return {"type": "bound", "alpha": {"a": a, "b": b, "c": c}}


# on the line y0 = 1/2 of (15, 3) the span of (1 + w)/3 is
# 1/4 -/+ sqrt(33)/12 and that of 1 is (1/2, 1): with a point piece at
# x = 1 they cover [0, 1], with ends in sqrt(33) and in Q
MIXED_15_3 = [_bound_piece(1, 1, 3), _bound_piece(1, 0, 1), {
    "type": "point", "x": {"num": "1", "den": "1"}, "alpha": {"a": 2, "b": 0, "c": 1},
}]


def test_verify_rejects_piece_with_another_radicand():
    # the same two spans moved one to the left, (-2 + w)/3 with ends in
    # sqrt(33) and 0 with ends -1/2 and 0, leave [0, 1] uncovered
    obj = certificate_to_obj(certify_exceptional(15, 3))
    line = obj["payload"]["gap_lines"][0]
    line["pieces"] = [_bound_piece(-2, 1, 3), _bound_piece(0, 0, 1)]
    assert verify_certificate_obj(obj) is False
    # the same line with the covering pieces added verifies, radicands mixed
    line["pieces"] += MIXED_15_3
    assert verify_certificate_obj(obj) is True
    # each covering piece is needed
    for i in range(len(MIXED_15_3)):
        line["pieces"] = MIXED_15_3[:i] + MIXED_15_3[i + 1:]
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
