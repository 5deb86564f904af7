"""Negative certification: witness points and the grid oracle.

For S = {p}, a witness point xi0 with a proven lower bound
N_S(xi0 - alpha) >= 1 for all alpha in O_S shows the field is not
S-norm-Euclidean.  The bound is an exact rational from a small case
analysis on how p behaves in the field; the exact minimum over a grid
of S-integers cross-checks it.
"""
from seuclid import WitnessCertificate, certify_non_euclidean, oracle_min_snorm

for d, p in ((17, 2), (13, 2), (5, 11), (23, 5), (7, 11)):
    out = certify_non_euclidean(d, p)
    if isinstance(out, WitnessCertificate):
        print(f"(d={d}, p={p}): NOT {{{p}}}-norm-Euclidean")
        print(f"  xi0 = {out.xi0}, bound {out.bound}")
        rep = oracle_min_snorm(d, p, out.xi0, n_max=4, coeff_max=40)
        print(f"  oracle minimum over the grid: {rep.min_snorm_found} at alpha = {rep.argmin}")
        assert rep.min_snorm_found >= out.bound
    elif out.kind == "not-applicable":
        print(f"(d={d}, p={p}): outside the classification ({out.reason})")
