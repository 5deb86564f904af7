"""Certificate files: JSON serialization and self-contained re-verification.

The canonical serialization is deterministic (sorted keys, no
timestamps); rationals are encoded as integer strings so nothing passes
through a lossy numeric type.  Verifying a loaded certificate uses only
the file contents plus (d, S).
"""
from __future__ import annotations

import json
import math
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
from .exact import SSet, s_part_strip
from .field import KElement, QuadField, make_field
from .witness import CaseTag, WitnessCertificate, witness_bound

SCHEMA_VERSION = "3.0"

# Limits on the checker's work for one file.  A bundle's residual builds
# all intervals with S-smooth k <= k_max (the built-ins use 64, 81 and
# 125); each link of a cover chain must raise the reach, so the chain
# holds each interval with k <= k_max at most once, and that k_max has
# the same cap (a Theorem-2 cover has k_max = k0 <= 1154 for
# d <= MAX_D); a disk scan computes one corner range per disk in each
# of its depth + 1 columns (the built-ins use 14 and 20 disks, the
# benchmark files depth 500), and a gap line of n pieces takes at most
# (2*n + 2)^2 integer sign tests, two to place each of its 2*n + 2 ends
# (0, 1 and the span ends) in [0, 1] and two per piece at each (the
# built-ins have at most 5 pieces in all); a file past any limit is
# rejected before any of that work.  A d or prime of s over
# MAX_D is a parse error before the trial divisions of `squarefree` and
# `is_prime`.  After parsing, a cover costs O(links + sum of pi(k)) over
# its distinct k: a gcd per link, one S-strip per distinct k, which stops
# at the first prime of s above k, and the replay.  Before any parsing, a
# file over MAX_FILE_BYTES is rejected after reading at most one byte
# more than the cap: the largest file the producer writes, the cover of
# d = 999,994 (405,325 links), takes 21.1 MB from `save_certificate`.
MAX_BUNDLE_K_MAX = 4096
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
    return {"type": "bound", "alpha": _elem(piece.alpha)}


def certificate_from_obj(obj: Any) -> Certificate:
    """Parse a certificate object; raises CertificateParseError on any
    structural problem."""
    try:
        kind = obj["kind"]
        d = _typed(obj["d"], int, "d")
        primes = [_typed(p, int, "s") for p in obj["s"]]
        if d > MAX_D or any(p > MAX_D for p in primes):
            raise CertificateParseError(f"d or a prime of s exceeds MAX_D = {MAX_D}")
        s = SSet.from_iterable(primes)
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
        fld = make_field(d)
        if kind == "disk":
            disks = tuple(
                Disk(center=_read_elem(e, fld), r_squared=_read_frac(e["r_squared"])) for e in payload["disks"]
            )
            depth = _typed(payload["subdivision_depth"], int, "subdivision_depth")
            return DiskCertificate(d=d, s=s, disks=disks, subdivision_depth=depth)
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
                k_max=_typed(payload["k_max"], int, "k_max"),
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
    if obj["type"] == "bound":
        return BoundPiece(alpha)
    if obj["type"] == "point":
        return PointPiece(x=_read_frac(obj["x"]), alpha=alpha)
    raise CertificateParseError(f"unknown gap-line piece type: {obj['type']!r}")


def verify_certificate_obj(obj: Any) -> bool:
    """Re-run the appropriate verifier from file contents alone; a file
    past a work limit (cover or bundle `k_max` over MAX_BUNDLE_K_MAX,
    more than MAX_GAP_LINE_PIECES pieces over all gap lines,
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
        tag, xi0, bound = dispatch
        return (
            tag == cert.case_tag
            and xi0 == cert.xi0
            and bound == cert.bound
            and bound >= 1
        )
    if isinstance(cert, ExceptionalBundle):
        if cert.k_max > MAX_BUNDLE_K_MAX:
            return False
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
