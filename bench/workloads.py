"""The benchmark's three workloads, built only from seuclid's public API.

Each workload is a fixed set of items.  The seed sets the order of the
items and, in ``verify_certs``, which certificates the forgeries are cut
from; it never changes what is computed for a genuine item.  Every item
carries the known answer it is checked against after the timed pass.

Items call seuclid through module attributes (``api.covering.x``) at
call time, so the tracer's wrappers are reached when they are installed.
"""
from __future__ import annotations

import copy
import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

SURVEY_PRIMES = (2, 3, 5, 7)
SURVEY_D_MAX = 200
ORACLE_D_MAX = 50
WITNESS_PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_GRID = (4, 60)  # n_max, coeff_max
THEOREM2_D_MAX = 1000
COVER_FILES_D_MAX = 300
WITNESS_FILES_D_MAX = 200
BUNDLE_PAIRS = ((10, 2), (15, 3), (15, 5))
DISK_FILE_DEPTH = 500
MUTATIONS_PER_KIND = 3


@dataclasses.dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    # the certificate an item produced, for the JSON round-trip check
    cert: Callable[[Any], Any] | None = None


def _squarefree_upto(api, d_max: int) -> list[int]:
    return [d for d in range(1, d_max + 1) if api.exact.squarefree(d)]


def _theorem2_set(api, fld):
    return api.exact.SSet.from_iterable(api.exact.primes_below(api.covering.theorem2_bound(fld)))


def _splits(d: int, p: int) -> bool:
    """p splits in Q(sqrt(-d)): outside the classification's hypotheses."""
    if p == 2:
        return (-d) % 8 == 1
    return pow(-d % p, (p - 1) // 2, p) == 1


def theorem2_sweep(api, rng, workdir: Path) -> list[Item]:
    """certify_euclidean for every squarefree d <= 1000 with S = all
    primes below theorem2_bound; checked against the minimal k_max."""
    kmax = EXPECTED["theorem2_kmax"]
    items = []
    for d in _squarefree_upto(api, THEOREM2_D_MAX):
        fld = api.field.make_field(d)
        s = _theorem2_set(api, fld)
        items.append(Item(
            f"theorem2 d={d}",
            lambda fld=fld, s=s: api.covering.certify_euclidean(fld, s),
            lambda r, k=kmax[str(d)]: isinstance(r, api.covering.CoverCertificate) and r.k_max == k,
            cert=lambda r: r,
        ))
    rng.shuffle(items)
    return items


def paper_survey(api, rng, workdir: Path) -> list[Item]:
    """The paper's reproduction run: the four Euclidean tables, decide for
    S = {p} with p <= 7 and d <= 200, and the oracle on every witness
    certificate with d <= 50 and p <= 13."""
    SSet = api.exact.SSet
    items = []
    for table in EXPECTED["euclidean_tables"]:
        items.append(Item(
            f"table S={table['s']}",
            lambda s=SSet.from_iterable(table["s"]), d_max=table["d_max"]: api.cli.survey_rows(s, d_max),
            lambda rows, want=table["euclidean"]: [
                r["d"] for r in rows if r["verdict"].startswith("euclidean")
            ] == want,
        ))
    for p in SURVEY_PRIMES:
        kinds = {d: kind for kind, ds in EXPECTED["decide_kinds"][str(p)].items() for d in ds}
        in_domain = {d for kind, ds in EXPECTED["decide_kinds"][str(p)].items()
                     if kind.startswith("euclidean") for d in ds if not _splits(d, p)}
        if sorted(in_domain) != EXPECTED["classification"][str(p)]:
            raise ValueError(f"pinned verdicts for p = {p} disagree with the paper's classification")
        s = SSet.of(p)
        for d in _squarefree_upto(api, SURVEY_D_MAX):
            items.append(Item(
                f"decide d={d} p={p}",
                lambda d=d, s=s: api.cli.decide(d, s),
                lambda v, want=kinds[d]: v.kind == want,
                cert=lambda v: v.certificate,
            ))
    for p in WITNESS_PRIMES:
        for d in _squarefree_upto(api, ORACLE_D_MAX):
            w = api.witness.certify_non_euclidean(d, p)
            if not isinstance(w, api.witness.WitnessCertificate):
                continue
            items.append(Item(
                f"oracle d={d} p={p}",
                lambda w=w: api.witness.oracle_min_snorm(w.d, w.p, w.xi0, *ORACLE_GRID),
                lambda r, bound=w.bound: r.min_snorm_found >= bound >= 1,
            ))
    rng.shuffle(items)
    return items


_ZERO = {"num": "0", "den": "1"}
_ONE = {"num": "1", "den": "1"}
# alpha = 0 with the bound 0*x^2 + 0*x + 0 claimed on all of [0, 1]
_ZERO_GAP_PIECE = {
    "type": "bound", "alpha": {"a": 0, "b": 0, "c": 1},
    "a2": _ZERO, "a1": _ZERO, "a0": _ZERO,
    "lo": {"a": _ZERO, "b": _ZERO, "m": 0}, "hi": {"a": _ONE, "b": _ZERO, "m": 0},
    "lo_closed": True, "hi_closed": True,
}


def _forgeries(by_kind: dict[str, list[dict]], rng) -> list[tuple[str, dict]]:
    """Forged certificate objects, every one of which must be rejected.

    The first two are the holes listed as known_holes in expected.json;
    the mutations after them are ones a sound verifier catches.  No
    forgery raises a bound the verifier trusts (such as a bundle k_max),
    so none can make verification run long.
    """
    def pick(kind):
        return copy.deepcopy(rng.choice(by_kind[kind]))

    out = []
    cover = pick("cover")
    cover["payload"]["k_max"] += rng.randint(1, 8)
    out.append(("forged-cover-kmax", cover))
    bundle = pick("exceptional-bundle")
    for line in bundle["payload"]["gap_lines"]:
        line["pieces"] = [copy.deepcopy(_ZERO_GAP_PIECE)]
    out.append(("forged-bundle-zero-gap-line", bundle))
    for n in range(MUTATIONS_PER_KIND):
        cover = pick("cover")
        chain = cover["payload"]["chain"]
        del chain[rng.randrange(len(chain))]
        out.append((f"forged-dropped-link-{n}", cover))
        disk_cert = pick("disk")
        disk = rng.choice(disk_cert["payload"]["disks"])
        disk["r_squared"] = {"num": str(2 * int(disk["r_squared"]["num"])), "den": disk["r_squared"]["den"]}
        out.append((f"forged-inflated-radius-{n}", disk_cert))
        wit = pick("witness")
        bound = Fraction(int(wit["payload"]["bound"]["num"]), int(wit["payload"]["bound"]["den"]))
        bound += Fraction(1, rng.randint(2, 9))
        wit["payload"]["bound"] = {"num": str(bound.numerator), "den": str(bound.denominator)}
        out.append((f"forged-witness-bound-{n}", wit))
    return out


def _produced_certificates(api) -> list[tuple[str, Any]]:
    """The certificates whose files verify_certs checks, as the producer
    emits them."""
    produced = []
    for d in _squarefree_upto(api, COVER_FILES_D_MAX):
        fld = api.field.make_field(d)
        produced.append((f"cover d={d}", api.covering.certify_euclidean(fld, _theorem2_set(api, fld))))
    for p in WITNESS_PRIMES:
        for d in _squarefree_upto(api, WITNESS_FILES_D_MAX):
            w = api.witness.certify_non_euclidean(d, p)
            if isinstance(w, api.witness.WitnessCertificate):
                produced.append((f"witness d={d} p={p}", w))
    for d, p in BUNDLE_PAIRS:
        produced.append((f"bundle d={d} p={p}", api.disks.certify_exceptional(d, p)))
    for p in (5, 7):
        cert = api.disks.certify_exceptional(35, p)
        produced.append((f"disk d=35 p={p}", dataclasses.replace(cert, subdivision_depth=DISK_FILE_DEPTH)))
    return produced


def verify_certs(api, rng, workdir: Path) -> list[Item]:
    """load_certificate_obj -> verify_certificate_obj on certificate files
    written during set-up: genuine ones must pass, forged ones must fail."""
    certs = api.certs
    files: list[tuple[str, dict, bool]] = []
    by_kind: dict[str, list[dict]] = {}
    for label, cert in _produced_certificates(api):
        obj = certs.certificate_to_obj(cert)
        files.append((label, obj, True))
        by_kind.setdefault(obj["kind"], []).append(obj)
    files += [(label, obj, False) for label, obj in _forgeries(by_kind, rng)]
    workdir.mkdir(parents=True)
    items = []
    for index, (label, obj, genuine) in enumerate(files):
        path = workdir / f"{index:04d}.json"
        path.write_text(certs.canonical_json(obj))
        items.append(Item(
            label,
            lambda path=str(path): certs.verify_certificate_obj(certs.load_certificate_obj(path)),
            lambda ok, genuine=genuine: ok is genuine,
        ))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "theorem2_sweep": theorem2_sweep,
    "paper_survey": paper_survey,
    "verify_certs": verify_certs,
}
