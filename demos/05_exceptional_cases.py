"""The five exceptional pairs, where neither engine alone settles it.

For (10,2), (15,3) and (15,5) the interval family covers [0,1] minus a
shrinking neighborhood of finitely many rationals; a symbolic gap-line
certificate handles the missed lines.  For (35,5) and (35,7) a finite
list of disks, some with radius boosted from 1/c to sqrt(p)/c, covers
the fundamental domain outright.
"""
import math

from seuclid import SSet, certify_exceptional, make_field, residual
from seuclid.disks import verify_disk_cert


def approx(end, D):
    """A gap end (a, b, c) = (a + b*sqrt(3/D))/c as a float, for display."""
    a, b, c = end
    return (a + b * math.sqrt(3 / D)) / c


# the residual gaps contract onto {1/3, 2/3} as k_max grows
fld = make_field(10)
s = SSet.of(2)
print("d = 10, S = {2}: residual gaps around 1/3 and 2/3")
for t in (3, 5, 7):
    res = residual(fld, s, 2**t)
    widths = [approx(hi, res.D) - approx(lo, res.D) for lo, hi in res.gaps]
    print(f"  k_max = 2^{t}: {len(res.gaps)} gaps, widths {[f'{w:.2e}' for w in widths]}")

bundle = certify_exceptional(10, 2)
print(f"verified bundle: gap lines at {[str(line.y0) for line in bundle.gap_lines]}")

bundle15 = certify_exceptional(15, 3)
print(f"\nd = 15, S = {{3}}: single gap line at {bundle15.gap_lines[0].y0}, "
      f"{len(bundle15.gap_lines[0].pieces)} certificate pieces")

for p in (5, 7):
    cert = certify_exceptional(35, p)
    boosted = sum(d.boosted for d in cert.disks)
    print(f"\nd = 35, S = {{{p}}}: {len(cert.disks)} disks ({boosted} boosted), "
          f"subdivision {cert.subdivision_depth}: verified = {verify_disk_cert(cert)}")
