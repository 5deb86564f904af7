"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-contained and pins its own expected values and time
budget; run with -v to get one pass/fail line per criterion.
"""
import ast
import json
import pathlib
import random
import time
from fractions import Fraction

import mpmath

import seuclid
from seuclid.cli import survey_rows
from seuclid.covering import (
    CoverCertificate,
    certify_euclidean,
    intervals,
    residual,
    theorem2_bound,
)
from seuclid.disks import (
    EXCEPTIONAL_PAIRS,
    MAX_REFINE,
    ExceptionalBundle,
    boost_radius,
    certify_exceptional,
    gap_line_certificate,
    table_disk_centers,
    table_disk_certificate,
    verify_disk_cert,
    verify_gap_line,
)
from seuclid.exact import (
    SSet,
    SurdValue,
    primes_below,
    squarefree,
    surd_cmp,
)
from seuclid.field import KElement, make_field, s_norm
from seuclid.witness import (
    WitnessCertificate,
    certify_non_euclidean,
    oracle_min_snorm,
)

EUCLIDEAN_TABLE = {
    (): [1, 2, 3, 7, 11],
    (2,): [1, 2, 3, 5, 6, 7, 10, 11, 15, 19, 23],
    (2, 3): [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 23,
             31, 35, 39, 43, 47, 51, 55, 59, 67, 71],
    (2, 3, 5): [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23,
                26, 29, 30, 31, 33, 34, 35, 39, 43, 47, 51, 55, 59, 67, 71,
                79, 83, 87, 91, 95, 103, 107, 111, 115, 119, 123, 127, 131,
                139, 143],
}

TABLE_DMAX = {(): 11, (2,): 23, (2, 3): 71, (2, 3, 5): 143}


def test_criterion_01_survey_reproduces_euclidean_table():
    start = time.monotonic()
    for primes, expected in EUCLIDEAN_TABLE.items():
        rows = survey_rows(SSet.from_iterable(primes), TABLE_DMAX[primes])
        euclidean = [r["d"] for r in rows if r["verdict"].startswith("euclidean")]
        assert euclidean == expected, f"S = {primes}"
    assert time.monotonic() - start < 10


def test_criterion_02_minimal_interval_counts():
    expected = [((), 11, 1, 2), ((2,), 23, 2, 3), ((2, 3), 71, 4, 7), ((2, 3, 5), 143, 6, 13)]
    for primes, d, x, count in expected:
        s = SSet.from_iterable(primes)
        fld = make_field(d)
        cert = certify_euclidean(fld, s)
        assert isinstance(cert, CoverCertificate)
        assert cert.k_max == x, f"minimal k_max for d={d}"
        assert len(intervals(fld, s, x)) == count


def test_criterion_03_large_prime_sets_always_cover():
    start = time.monotonic()
    for d in range(1, 301):
        if not squarefree(d):
            continue
        fld = make_field(d)
        s = SSet.from_iterable(primes_below(theorem2_bound(fld)))
        cert = certify_euclidean(fld, s)
        assert isinstance(cert, CoverCertificate), f"d = {d}"
    assert time.monotonic() - start < 60


def test_criterion_04_worked_snorm_example():
    fld = make_field(5)
    assert s_norm(KElement(3, 3, 7, fld), SSet.of(2)) == Fraction(27, 49)


# Euclidean sets restricted to the classification's hypotheses:
# p = 2 needs -d != 1 (mod 8); odd p needs (-d/p) != 1
CLASSIFIED_EUCLIDEAN = {
    2: {1, 2, 3, 5, 6, 10, 11, 19},
    3: {1, 3, 7, 15},
    5: {2, 3, 7, 15, 35},
    7: {1, 2, 7, 11, 35},
}


def _in_domain(d, p):
    return not isinstance(seuclid.witness.witness_bound(d, p), seuclid.Verdict)


def test_criterion_05_classification_with_certificates():
    start = time.monotonic()
    for p, expected in CLASSIFIED_EUCLIDEAN.items():
        s = SSet.of(p)
        got = set()
        for d in range(1, 201):
            if not squarefree(d) or not _in_domain(d, p):
                continue
            cover = certify_euclidean(make_field(d), s)
            if isinstance(cover, CoverCertificate):
                got.add(d)
            elif (d, p) in EXCEPTIONAL_PAIRS:
                certify_exceptional(d, p)  # raises if its certificate fails
                got.add(d)
            else:
                witness = certify_non_euclidean(d, p)
                assert isinstance(witness, WitnessCertificate), f"(d, p) = ({d}, {p})"
                assert witness.bound >= 1
        assert got == expected, f"p = {p}"
    assert time.monotonic() - start < 120


def test_criterion_06_exceptional_certificates_verify():
    start = time.monotonic()
    cert_a = table_disk_certificate(5, subdivision_depth=125)
    assert len(cert_a.disks) == 14
    assert MAX_REFINE == 4
    assert verify_disk_cert(cert_a)
    cert_b = table_disk_certificate(7, subdivision_depth=125)
    assert len(cert_b.disks) == 20
    assert verify_disk_cert(cert_b)
    line10 = gap_line_certificate(10, 2)
    assert len(line10.pieces) == 3
    assert verify_gap_line(make_field(10), SSet.of(2), line10)
    for p in (3, 5):
        assert verify_gap_line(make_field(15), SSet.of(p), gap_line_certificate(15, p))
        assert isinstance(certify_exceptional(15, p), ExceptionalBundle)
    assert isinstance(certify_exceptional(10, 2), ExceptionalBundle)
    assert time.monotonic() - start < 60


def test_criterion_07_boost_rule_replays_tables():
    fld = make_field(35)
    for p in (5, 7):
        s = SSet.of(p)
        rows = table_disk_centers(p)
        for a, b, c in rows["unit"]:
            assert boost_radius(fld, s, KElement(a, b, c, fld)) == 1
        for a, b, c in rows["plain"]:
            assert boost_radius(fld, s, KElement(a, b, c, fld)) == Fraction(1, p * p)
        for a, b, c in rows["boosted"]:
            assert boost_radius(fld, s, KElement(a, b, c, fld)) == Fraction(p, p * p)


def test_criterion_08_residual_contraction():
    fld = make_field(10)
    s = SSet.of(2)
    lengths = []
    for t in range(2, 9):
        res = residual(fld, s, 2**t)
        for lo, hi in res.gaps:
            third = any(
                lo.to_quadsurd() <= y <= hi.to_quadsurd()
                for y in (Fraction(1, 3), Fraction(2, 3))
            )
            assert third, f"gap at k_max = 2^{t} misses 1/3 and 2/3"
        lengths.append(res.total_length())
    for before, after in zip(lengths, lengths[1:]):
        assert after < before


def test_criterion_09_oracle_cross_check():
    start = time.monotonic()
    non_euclidean = []
    for d in range(1, 51):
        if not squarefree(d):
            continue
        for p in (2, 3, 5, 7, 11, 13):
            cert = certify_non_euclidean(d, p)
            if isinstance(cert, WitnessCertificate):
                non_euclidean.append(cert)
    assert len(non_euclidean) >= 20
    for cert in non_euclidean[:20]:
        report = oracle_min_snorm(cert.d, cert.p, cert.xi0, 4, 60)
        assert report.min_snorm_found >= 1, f"(d, p) = ({cert.d}, {cert.p})"
        assert report.min_snorm_found >= cert.bound

    euclidean_pairs = [(1, 2), (2, 2), (3, 2), (5, 2), (6, 2), (11, 2), (19, 2),
                       (3, 3), (7, 3), (2, 5)]
    assert len(euclidean_pairs) == 10
    for d, p in euclidean_pairs:
        fld = make_field(d)
        # witness-style points whose denominator is coprime to p (a
        # p-power denominator forces the S-norm to be a positive integer)
        candidates = [
            KElement(a, b, c, fld)
            for a, b, c in ((1, 1, 2), (1, 1, 3), (0, 1, 3))
            if c % p != 0
        ]
        assert candidates
        for xi0 in candidates:
            report = oracle_min_snorm(d, p, xi0, 4, 12)
            assert report.min_snorm_found < 1, f"(d, p, xi0) = ({d}, {p}, {xi0})"
    assert time.monotonic() - start < 120


def test_criterion_10a_surd_cmp_against_high_precision():
    rng = random.Random(20260826)
    with mpmath.workdps(100):
        for _ in range(10**4):
            D = rng.choice([15, 20, 35, 40, 67, 143])
            x = SurdValue(rng.randint(-40, 40), rng.choice([-1, 0, 1]), rng.randint(1, 40), D)
            y = SurdValue(rng.randint(-40, 40), rng.choice([-1, 0, 1]), rng.randint(1, 40), D)
            width = mpmath.sqrt(mpmath.mpf(3) / D)
            diff = (x.j + x.s * width) / x.k - (y.j + y.s * width) / y.k
            expected = 0 if abs(diff) < mpmath.mpf("1e-60") else int(mpmath.sign(diff))
            assert surd_cmp(x, y) == expected


CERTIFICATION_MODULES = ["exact", "field", "covering", "witness", "disks", "certs"]


def test_criterion_10b_no_floats_in_certification_paths():
    """Static scan: no float literals, float() calls, or math.sqrt in the
    certification modules outside the display-only approx helpers."""
    pkg = pathlib.Path(seuclid.__file__).parent
    for name in CERTIFICATION_MODULES:
        tree = ast.parse((pkg / f"{name}.py").read_text())
        stack = []

        def walk(node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node.name)
            offenders = []
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append("float literal")
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id == "float":
                    offenders.append("float()")
                if (isinstance(f, ast.Attribute) and f.attr == "sqrt"
                        and isinstance(f.value, ast.Name) and f.value.id == "math"):
                    offenders.append("math.sqrt")
            if offenders and "approx" not in stack:
                raise AssertionError(f"{name}.py line {node.lineno}: {offenders}")
            for child in ast.iter_child_nodes(node):
                walk(child)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.pop()

        walk(tree)


def test_criterion_10c_certificates_are_bit_deterministic():
    from seuclid.certs import canonical_json, certificate_to_obj

    blobs = set()
    for _ in range(3):
        cert = certify_euclidean(make_field(67), SSet.of(2, 3))
        blobs.add(canonical_json(certificate_to_obj(cert)))
    assert len(blobs) == 1
    assert json.loads(blobs.pop())["kind"] == "cover"
