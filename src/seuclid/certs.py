"""Certificate files: JSON serialization and self-contained re-verification.

The canonical serialization is deterministic (sorted keys, no
timestamps); rationals are encoded as integer strings so nothing passes
through a lossy numeric type.  Verifying a loaded certificate uses only
the file contents plus (d, S).
"""
from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

from . import __version__
from .covering import CoverCertificate, Verdict, replay_chain
from .disks import (
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
from .exact import SSet, SurdValue, s_part_strip
from .field import KElement, QuadField, make_field
from .witness import CaseTag, WitnessCertificate, witness_bound

SCHEMA_VERSION = "2.0"

# Limits on the checker's work for one file.  A bundle's residual builds
# all intervals with S-smooth k <= k_max (the built-ins use 64, 81 and
# 125), and a disk scan checks depth^2 cells (the benchmark files use
# 500); a file past either limit is rejected before any of that work.
MAX_BUNDLE_K_MAX = 4096
MAX_SUBDIVISION_DEPTH = 1000

__all__ = [
    "SCHEMA_VERSION",
    "MAX_BUNDLE_K_MAX",
    "MAX_SUBDIVISION_DEPTH",
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


def _read_frac(obj: Any) -> Fraction:
    try:
        return Fraction(int(obj["num"]), int(obj["den"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateParseError(f"bad rational: {obj!r}") from exc


def _elem(x: KElement) -> dict[str, int]:
    return {"a": x.a, "b": x.b, "c": x.c}


def _read_elem(obj: Any, fld: QuadField) -> KElement:
    return KElement(int(obj["a"]), int(obj["b"]), int(obj["c"]), fld)


def _surd(v: SurdValue) -> dict[str, Any]:
    # the file keeps a + b*sqrt(m) with rational a, b
    return {"a": _frac(Fraction(v.P, v.M)), "b": _frac(Fraction(v.Q, v.M)), "m": v.m}


def _read_surd(obj: Any) -> SurdValue:
    return _read_frac(obj["a"]) + _read_frac(obj["b"]) * SurdValue(P=0, Q=1, m=int(obj["m"]))


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
                    {**_elem(disk.center), "boosted": disk.boosted, "r_squared": _frac(disk.r_squared)}
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
                "case_tag": cert.case_tag.value,
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
                "k_max": cert.k_max,
                "gap_rationals": [_frac(y) for y in cert.gap_rationals],
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
    return {
        "type": "bound",
        "alpha": _elem(piece.alpha),
        "lo": _surd(piece.lo),
        "hi": _surd(piece.hi),
        "lo_closed": piece.lo_closed,
        "hi_closed": piece.hi_closed,
    }


def certificate_from_obj(obj: Any) -> Certificate:
    """Parse a certificate object; raises CertificateParseError on any
    structural problem."""
    try:
        kind = obj["kind"]
        d = int(obj["d"])
        s = SSet.from_iterable(int(p) for p in obj["s"])
        payload = obj["payload"]
        if kind == "cover":
            # fresh link tuples: sharing them with the producer's
            # (covering._LINKS) would let a file grow that table for good
            return CoverCertificate(
                d=d,
                s=s,
                k_max=int(payload["k_max"]),
                chain=tuple((int(e["j"]), int(e["k"])) for e in payload["chain"]),
            )
        fld = make_field(d)
        if kind == "disk":
            disks = tuple(
                Disk(
                    center=_read_elem(e, fld),
                    r_squared=_read_frac(e["r_squared"]),
                    boosted=bool(e["boosted"]),
                )
                for e in payload["disks"]
            )
            return DiskCertificate(
                d=d, s=s, disks=disks, subdivision_depth=int(payload["subdivision_depth"])
            )
        if kind == "witness":
            p = _one_prime(kind, s)
            return WitnessCertificate(
                d=d,
                p=p,
                xi0=_read_elem(payload["xi0"], fld),
                case_tag=CaseTag(payload["case_tag"]),
                bound=_read_frac(payload["bound"]),
            )
        if kind == "exceptional-bundle":
            p = _one_prime(kind, s)
            lines = tuple(
                GapLineCert(
                    y0=_read_frac(line["y0"]),
                    pieces=tuple(_piece_from_obj(piece, fld) for piece in line["pieces"]),
                )
                for line in payload["gap_lines"]
            )
            return ExceptionalBundle(
                d=d,
                p=p,
                k_max=int(payload["k_max"]),
                gap_rationals=tuple(_read_frac(y) for y in payload["gap_rationals"]),
                gap_lines=lines,
            )
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
    if obj["type"] == "point":
        return PointPiece(x=_read_frac(obj["x"]), alpha=alpha)
    return BoundPiece(
        alpha=alpha,
        lo=_read_surd(obj["lo"]),
        hi=_read_surd(obj["hi"]),
        lo_closed=bool(obj["lo_closed"]),
        hi_closed=bool(obj["hi_closed"]),
    )


def verify_certificate_obj(obj: Any) -> bool:
    """Re-run the appropriate verifier from file contents alone; a bundle
    `k_max` over MAX_BUNDLE_K_MAX or a `subdivision_depth` over
    MAX_SUBDIVISION_DEPTH fails at once."""
    cert = certificate_from_obj(obj)
    if isinstance(cert, CoverCertificate):
        fld = make_field(cert.d)
        for j, k in cert.chain:
            if not (0 <= j <= k and math.gcd(j, k) == 1 and s_part_strip(k, cert.s) == 1):
                return False
        if cert.k_max != max((k for _, k in cert.chain), default=0):
            return False
        return replay_chain(fld.D, list(cert.chain))
    if isinstance(cert, DiskCertificate):
        if not 1 <= cert.subdivision_depth <= MAX_SUBDIVISION_DEPTH:
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
        tag, xi0, bound = dispatch
        return (
            tag == cert.case_tag
            and xi0 == cert.xi0
            and bound == cert.bound
            and bound >= 1
        )
    if isinstance(cert, ExceptionalBundle):
        return cert.k_max <= MAX_BUNDLE_K_MAX and verify_exceptional_bundle(cert)
    return False


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_certificate(cert: Certificate, path: str) -> None:
    out = certificate_to_obj(cert)
    timestamp = datetime.now(timezone.utc).isoformat()
    out["metadata"] = {"tool": "seuclid", "version": __version__, "timestamp": timestamp}
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_certificate_obj(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateParseError(f"cannot read certificate file: {exc}") from exc
