"""Command-line surface: check / table / render / verify / oracle.

Exit codes: 0 verdict reached or certificate valid, 1 invalid input or
parse error, 2 no verdict, 3 verification failure.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .certs import (
    CertificateParseError,
    canonical_json,
    load_certificate_obj,
    save_certificate,
    verify_certificate_obj,
)
from .classify import decide, survey_rows
from .covering import Verdict
from .exact import SSet, is_prime, squarefree
from .field import KElement, make_field
from .render import render_certificate
from .witness import oracle_min_snorm, witness_bound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2
EXIT_INVALID = 3


class InputError(Exception):
    pass


def _parse_s(text: str | None) -> SSet:
    if not text:
        return SSet()
    try:
        primes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse prime list {text!r}") from exc
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    return SSet.from_iterable(primes)


def _check_d(d: int) -> int:
    if d < 1 or not squarefree(d):
        raise InputError(f"d must be a squarefree positive integer, got {d}")
    return d


def cmd_check(args: argparse.Namespace) -> int:
    d = _check_d(args.d)
    s = _parse_s(args.s)
    verdict = decide(d, s)
    label = {
        "euclidean-cover": "Euclidean",
        "euclidean-exceptional": "Euclidean (exceptional)",
        "non-euclidean": "NonEuclidean",
        "not-applicable": "NotApplicable",
        "unknown": "Unknown",
    }[verdict.kind]
    print(f"Q(sqrt(-{d})) with S = {s}: {label}")
    print(f"  {verdict.reason}")
    if verdict.kind == "unknown":
        return EXIT_UNKNOWN
    if args.cert:
        if verdict.certificate is None:
            print("  no certificate written")
        else:
            save_certificate(verdict.certificate, args.cert)
            print(f"  certificate written to {args.cert}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    s = _parse_s(args.s)
    if args.dmax < 1:
        raise InputError("--dmax must be positive")
    rows = survey_rows(s, args.dmax)
    euclidean = [r["d"] for r in rows if r["verdict"].startswith("euclidean")]
    if args.format == "json":
        print(canonical_json({"s": list(s.primes), "d_max": args.dmax, "rows": rows, "euclidean": euclidean}))
    else:
        print(f"S = {s}, d <= {args.dmax}")
        for r in rows:
            extra = f" (k_max {r['k_max']})" if "k_max" in r else ""
            print(f"  {r['d']:4d}  {r['verdict']}{extra}")
        print("Euclidean: " + ", ".join(str(d) for d in euclidean))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    d = _check_d(args.d)
    s = _parse_s(args.s)
    verdict = decide(d, s)
    if verdict.certificate is None:
        print(f"no certificate to render: {verdict.reason}", file=sys.stderr)
        return EXIT_UNKNOWN
    svg = render_certificate(verdict.certificate)
    with open(args.output, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if verify_certificate_obj(load_certificate_obj(args.certificate)):
        print(f"{args.certificate}: valid")
        return EXIT_OK
    print(f"{args.certificate}: verification FAILED")
    return EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    d = _check_d(args.d)
    if not is_prime(args.p):
        raise InputError(f"{args.p} is not prime")
    dispatch = witness_bound(d, args.p)
    if isinstance(dispatch, Verdict):
        xi0 = KElement(1, 1, 2, make_field(d))
    else:
        _tag, xi0, _bound = dispatch
    report = oracle_min_snorm(d, args.p, xi0, args.nmax, args.coeff)
    print(f"xi0 = {xi0}; grid n <= {args.nmax}, |a|,|b| <= {args.coeff}")
    print(f"min S-norm found: {report.min_snorm_found} at alpha = {report.argmin}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seuclid",
        description="Certify (non-)Euclideanity of rings of S-integers in Q(sqrt(-d)).",
    )
    parser.add_argument("--version", action="version", version=f"seuclid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one (d, S) pair")
    p_check.add_argument("d", type=int)
    p_check.add_argument("--s", default="", help="comma-separated primes, e.g. 2,3")
    p_check.add_argument("--cert", default=None, help="write certificate JSON here")
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table", help="survey squarefree d up to a bound")
    p_table.add_argument("--s", default="")
    p_table.add_argument("--dmax", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_render = sub.add_parser("render", help="render the certificate for (d, S) as SVG")
    p_render.add_argument("d", type=int)
    p_render.add_argument("--s", default="")
    p_render.add_argument("-o", "--output", required=True)
    p_render.set_defaults(func=cmd_render)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force minimum S-norm around the witness point")
    p_oracle.add_argument("d", type=int)
    p_oracle.add_argument("p", type=int)
    p_oracle.add_argument("--nmax", type=int, default=4)
    p_oracle.add_argument("--coeff", type=int, default=40)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, CertificateParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
