"""Certificate files: JSON serialization and self-contained re-verification.

The canonical serialization is deterministic (sorted keys, no
timestamps); rationals are encoded as integer strings so nothing passes
through a lossy numeric type.  Verifying a loaded certificate uses only
the file contents plus (d, S).  Keys that earlier schemas wrote and the
checker now derives (a witness's `case_tag`, a bundle's `gap_rationals`
and `k_max`) are ignored, not trusted; a file must declare one of the
schema versions 1.0 to 5.0.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from . import __version__
from .covering import CoverCertificate, Verdict, replay_chain
from .disks import (
    MAX_BUNDLE_K_MAX,
    BoundPiece,
    Disk,
    DiskCertificate,
    ExceptionalBundle,
    GapLineCert,
    PointPiece,
    boost_radius,
    verify_disk_cert,
    verify_exceptional_bundle,
)
from .exact import SSet, s_part_strip
from .field import KElement, QuadField, make_field
from .witness import WitnessCertificate, witness_bound

SCHEMA_VERSION = "5.0"
_READABLE_VERSIONS = ("1.0", "2.0", "3.0", "4.0", SCHEMA_VERSION)  # keys a later one dropped are ignored

# Limits on the checker's work for one file; a file past one is rejected
# before that work.  A bundle's check tries the residuals at k_max = 1,
# p, p^2, ... up to MAX_BUNDLE_K_MAX, defined beside it in `disks` (the
# built-ins settle at 2, 1 and 1; all 13 residuals for p = 2 take about
# 8 ms).  A cover's k_max has the same cap, and each link of its chain
# must raise the reach, so the chain holds each interval with k <= k_max
# at most once (a Theorem-2 cover has k_max = k0 <= 1154 for
# d <= MAX_D); after parsing a cover costs O(links + sum of pi(k)) over
# its distinct k.  A disk scan computes one corner range per disk in
# each of its depth + 1 columns, and a gap line of n pieces takes at
# most (2*n + 2)^2 integer sign tests.  A d or prime of s over MAX_D is
# a parse error before the trial divisions of `squarefree` and
# `is_prime`, and a file over MAX_FILE_BYTES before any parsing, after
# reading at most one byte more (the producer's largest file, the cover
# of d = 999,994, takes 21.1 MB from `save_certificate`).
MAX_SUBDIVISION_DEPTH = 1000
MAX_DISKS = 256
MAX_GAP_LINE_PIECES = 256
MAX_D = 10**6
MAX_FILE_BYTES = 32 * 2**20

__all__ = [
    "SCHEMA_VERSION",
    "MAX_BUNDLE_K_MAX",
    "MAX_SUBDIVISION_DEPTH",
    "MAX_DISKS",
    "MAX_GAP_LINE_PIECES",
    "MAX_D",
    "MAX_FILE_BYTES",
    "CertificateParseError",
    "certificate_to_obj",
    "certificate_from_obj",
    "verify_certificate_obj",
    "canonical_json",
    "save_certificate",
    "load_certificate_obj",
]


class CertificateParseError(Exception):
    pass


def _frac(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _typed(value: Any, kind: type, name: str) -> Any:
    """`value` if its type is exactly `kind`, so no bool passes for an int."""
    if type(value) is not kind:
        raise CertificateParseError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _read_frac(obj: Any) -> Fraction:
    """{num, den}: integer strings in canonical form, str(int(t)) == t,
    with den >= 1."""
    try:
        num, den = int(_typed(obj["num"], str, "num")), int(_typed(obj["den"], str, "den"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateParseError(f"bad rational: {obj!r}") from exc
    if str(num) != obj["num"] or str(den) != obj["den"] or den < 1:
        raise CertificateParseError(f"bad rational: {obj!r}")
    return Fraction(num, den)


def _elem(x: KElement) -> dict[str, int]:
    return {"a": x.a, "b": x.b, "c": x.c}


def _read_elem(obj: Any, fld: QuadField) -> KElement:
    return KElement(*(_typed(obj[key], int, key) for key in "abc"), fld)


Certificate = CoverCertificate | DiskCertificate | WitnessCertificate | ExceptionalBundle


def certificate_to_obj(cert: Certificate) -> dict[str, Any]:
    """Canonical (metadata-free) JSON-ready form of a certificate."""
    if isinstance(cert, CoverCertificate):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cover",
            "d": cert.d,
            "s": list(cert.s.primes),
            "payload": {
                "k_max": cert.k_max,
                "chain": [{"j": j, "k": k} for j, k in cert.chain],
            },
        }
    if isinstance(cert, DiskCertificate):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "disk",
            "d": cert.d,
            "s": list(cert.s.primes),
            "payload": {
                "subdivision_depth": cert.subdivision_depth,
                "disks": [
                    {**_elem(disk.center), "r_squared": _frac(disk.r_squared)}
                    for disk in cert.disks
                ],
            },
        }
    if isinstance(cert, WitnessCertificate):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "witness",
            "d": cert.d,
            "s": [cert.p],
            "payload": {
                "xi0": _elem(cert.xi0),
                "bound": _frac(cert.bound),
            },
        }
    if isinstance(cert, ExceptionalBundle):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "exceptional-bundle",
            "d": cert.d,
            "s": [cert.p],
            "payload": {
                "gap_lines": [
                    {
                        "y0": _frac(line.y0),
                        "pieces": [_piece_to_obj(piece) for piece in line.pieces],
                    }
                    for line in cert.gap_lines
                ],
            },
        }
    raise TypeError(f"not a certificate: {cert!r}")


def _piece_to_obj(piece: BoundPiece | PointPiece) -> dict[str, Any]:
    if isinstance(piece, PointPiece):
        return {"type": "point", "x": _frac(piece.x), "alpha": _elem(piece.alpha)}
    return {"type": "bound", "alpha": _elem(piece.alpha)}


def certificate_from_obj(obj: Any) -> Certificate:
    """Parse a certificate object; raises CertificateParseError on any
    structural problem, an unknown schema_version and a d that is not a
    squarefree positive integer included, for every kind."""
    try:
        version = obj["schema_version"]
        if version not in _READABLE_VERSIONS:
            raise CertificateParseError(f"unknown schema_version {version!r}, expected one of {_READABLE_VERSIONS}")
        kind = obj["kind"]
        d = _typed(obj["d"], int, "d")
        primes = [_typed(p, int, "s") for p in obj["s"]]
        if d > MAX_D or any(p > MAX_D for p in primes):
            raise CertificateParseError(f"d or a prime of s exceeds MAX_D = {MAX_D}")
        s = SSet.from_iterable(primes)
        fld = make_field(d)
        payload = obj["payload"]
        if kind == "cover":
            k_max = _typed(payload["k_max"], int, "k_max")
            # fresh link tuples: sharing them with the producer's
            # (covering._LINKS) would let a file grow that table for good;
            # the types are tested inline, and `_typed` names the first bad one
            chain = []
            for e in payload["chain"]:
                j = e["j"]
                if type(j) is not int:
                    _typed(j, int, "j")
                k = e["k"]
                if type(k) is not int:
                    _typed(k, int, "k")
                chain.append((j, k))
            return CoverCertificate(d=d, s=s, k_max=k_max, chain=tuple(chain))
        if kind == "disk":
            disks = tuple(
                Disk(center=_read_elem(e, fld), r_squared=_read_frac(e["r_squared"])) for e in payload["disks"]
            )
            depth = _typed(payload["subdivision_depth"], int, "subdivision_depth")
            return DiskCertificate(d=d, s=s, disks=disks, subdivision_depth=depth)
        if kind == "witness":
            xi0, bound = _read_elem(payload["xi0"], fld), _read_frac(payload["bound"])
            return WitnessCertificate(d=d, p=_one_prime(kind, s), xi0=xi0, bound=bound)
        if kind == "exceptional-bundle":
            lines = tuple(
                GapLineCert(_read_frac(line["y0"]), tuple(_piece_from_obj(piece, fld) for piece in line["pieces"]))
                for line in payload["gap_lines"]
            )
            return ExceptionalBundle(d=d, p=_one_prime(kind, s), gap_lines=lines)
        raise CertificateParseError(f"unknown certificate kind: {kind!r}")
    except CertificateParseError:
        raise
    except Exception as exc:
        raise CertificateParseError(f"malformed certificate: {exc}") from exc


def _one_prime(kind: str, s: SSet) -> int:
    if len(s) != 1:
        raise CertificateParseError(f"{kind} certificate: s must list exactly one prime, got {list(s.primes)}")
    return s.primes[0]


def _piece_from_obj(obj: Any, fld: QuadField) -> BoundPiece | PointPiece:
    alpha = _read_elem(obj["alpha"], fld)
    if obj["type"] == "bound":
        return BoundPiece(alpha)
    if obj["type"] == "point":
        return PointPiece(x=_read_frac(obj["x"]), alpha=alpha)
    raise CertificateParseError(f"unknown gap-line piece type: {obj['type']!r}")


def verify_certificate_obj(obj: Any) -> bool:
    """Re-run the appropriate verifier from file contents alone; a file
    past a work limit (cover `k_max` over MAX_BUNDLE_K_MAX, more than
    MAX_GAP_LINE_PIECES pieces over all gap lines,
    `subdivision_depth` over MAX_SUBDIVISION_DEPTH, more than MAX_DISKS
    disks) fails at once.  A cover is then checked in one pass over its
    chain, with each distinct k's S-smoothness tested once, and replayed:
    O(links + sum of pi(k)) steps after parsing."""
    cert = certificate_from_obj(obj)
    if isinstance(cert, CoverCertificate):
        # a chain whose links each raise the reach holds each of the at
        # most 1 + k_max*(k_max + 1)/2 intervals of k <= k_max once
        if cert.k_max > MAX_BUNDLE_K_MAX or len(cert.chain) > 1 + cert.k_max * (cert.k_max + 1) // 2:
            return False
        fld = make_field(cert.d)
        # a Farey chain F_k has about 0.3*k^2 links but only k distinct
        # denominators: each k's S-smoothness is tested once
        smooth: set[int] = set()
        for j, k in cert.chain:
            if not (0 <= j <= k and math.gcd(j, k) == 1):
                return False
            if k not in smooth:
                if s_part_strip(k, cert.s) != 1:
                    return False
                smooth.add(k)
        if cert.k_max != max(smooth, default=0):
            return False
        return replay_chain(fld.D, cert.chain)
    if isinstance(cert, DiskCertificate):
        if not 1 <= cert.subdivision_depth <= MAX_SUBDIVISION_DEPTH:
            return False
        if len(cert.disks) > MAX_DISKS:
            return False
        fld = make_field(cert.d)
        # each claimed radius must be within what the lemmas afford
        for disk in cert.disks:
            try:
                allowed = boost_radius(fld, cert.s, disk.center)
            except ValueError:
                return False
            if disk.r_squared > allowed:
                return False
        return verify_disk_cert(cert)
    if isinstance(cert, WitnessCertificate):
        dispatch = witness_bound(cert.d, cert.p)
        if isinstance(dispatch, Verdict):
            return False
        xi0, bound = dispatch
        return xi0 == cert.xi0 and bound == cert.bound and bound >= 1
    if isinstance(cert, ExceptionalBundle):
        if sum(len(line.pieces) for line in cert.gap_lines) > MAX_GAP_LINE_PIECES:
            return False
        return verify_exceptional_bundle(cert)
    return False


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_certificate(cert: Certificate, path: str) -> None:
    from datetime import datetime, timezone  # only the saved metadata needs it

    out = certificate_to_obj(cert)
    timestamp = datetime.now(timezone.utc).isoformat()
    out["metadata"] = {"tool": "seuclid", "version": __version__, "timestamp": timestamp}
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_certificate_obj(path: str) -> Any:
    """The JSON object in the file at `path`; a file over MAX_FILE_BYTES
    is a parse error, found by reading at most one byte more."""
    parts, left = [], MAX_FILE_BYTES + 1
    try:
        with open(path, "rb") as fh:
            # 64 KiB at a time: one read of the cap's size would allocate
            # a buffer that large for every file
            while left and (part := fh.read(min(left, 1 << 16))):
                parts.append(part)
                left -= len(part)
    except OSError as exc:
        raise CertificateParseError(f"cannot read certificate file: {exc}") from exc
    if not left:
        raise CertificateParseError(f"certificate file exceeds MAX_FILE_BYTES = {MAX_FILE_BYTES}")
    try:
        return json.loads(b"".join(parts).decode())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CertificateParseError(f"cannot read certificate file: {exc}") from exc
