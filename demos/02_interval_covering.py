"""Positive certification by interval covering.

Disks of radius 1/k centered at the S-integer points (i + j*w)/k project
to open intervals I_j^k = ((j - sqrt(3/D))/k, (j + sqrt(3/D))/k) on the
y-axis of the fundamental domain.  If those intervals cover [0, 1], the
field is S-norm-Euclidean.  All comparisons are exact: integer endpoint
keys order the family, and the resulting chain is a certificate that
`replay_chain` re-checks by integer sign tests on (j, k, D).
"""
from seuclid import SSet, certify_euclidean, intervals, make_field, theorem2_bound
from seuclid.covering import replay_chain

fld = make_field(67)
s = SSet.of(2, 3)
ivs = intervals(fld, s, 4)
print(f"{fld}, S = {s}: {len(ivs)} intervals with smooth k <= 4")
for iv in ivs:
    print(f"  I_{iv.j}^{iv.k} = ({iv.lo.approx():.4f}, {iv.hi.approx():.4f})")

cert = certify_euclidean(fld, s)
print(f"\ncover found, minimal k_max = {cert.k_max}")
print(f"chain: {cert.chain}")
print(f"independent replay: {replay_chain(fld.D, cert.chain)}")

# sufficiency: taking S = all primes below this bound always works
for d in (5, 67, 163):
    f = make_field(d)
    print(f"\nd = {d}: any S containing all primes below {theorem2_bound(f)} certifies")
