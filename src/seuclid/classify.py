"""The decision pipeline: one Verdict per (d, S) pair, and table surveys."""
from __future__ import annotations

from .covering import CoverCertificate, Verdict, certify_euclidean
from .disks import EXCEPTIONAL_PAIRS, certify_exceptional
from .exact import SSet, squarefree
from .field import make_field
from .witness import WitnessCertificate, certify_non_euclidean

__all__ = ["decide", "survey_rows"]


def decide(d: int, s: SSet) -> Verdict:
    """The check pipeline: covering, then the exceptional certificates,
    then the witness lower bounds (the latter two for singleton S)."""
    cover = certify_euclidean(make_field(d), s)
    if isinstance(cover, CoverCertificate):
        return Verdict("euclidean-cover", cover, f"cover certificate, minimal k_max {cover.k_max}")
    if len(s) == 1:
        (p,) = s.primes
        if (d, p) in EXCEPTIONAL_PAIRS:
            cert = certify_exceptional(d, p)
            return Verdict("euclidean-exceptional", cert, f"exceptional certificate for ({d}, {p})")
        outcome = certify_non_euclidean(d, p)
        if isinstance(outcome, WitnessCertificate):
            return Verdict(
                "non-euclidean",
                outcome,
                f"witness {outcome.xi0} with bound {outcome.bound} ({outcome.case_tag.value})",
            )
        if outcome.kind == "not-applicable":
            return outcome
        return Verdict("unknown", None, f"{cover.reason}; {outcome.reason}")
    return cover


def survey_rows(s: SSet, d_max: int) -> list[dict]:
    """One row per squarefree d <= d_max: d, S, the verdict kind and,
    for a cover, its k_max."""
    rows = []
    for d in range(1, d_max + 1):
        if not squarefree(d):
            continue
        verdict = decide(d, s)
        row = {"d": d, "s": list(s.primes), "verdict": verdict.kind}
        if isinstance(verdict.certificate, CoverCertificate):
            row["k_max"] = verdict.certificate.k_max
        rows.append(row)
    return rows
