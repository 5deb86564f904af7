"""Which complex quadratic fields are S-norm-Euclidean?

Sweeps squarefree d for several prime sets S and prints the certified
Euclidean values.  The empty set recovers the classical five fields;
growing S grows the list quickly.
"""
from seuclid import SSet, survey_rows

for primes, d_max in (((), 11), ((2,), 23), ((2, 3), 71), ((2, 3, 5), 143)):
    s = SSet.from_iterable(primes)
    rows = survey_rows(s, d_max)
    euclidean = [r["d"] for r in rows if r["verdict"].startswith("euclidean")]
    exceptional = [r["d"] for r in rows if r["verdict"] == "euclidean-exceptional"]
    print(f"S = {s!s:12} d <= {d_max:3}: {euclidean}")
    if exceptional:
        print(f"{'':20}(via exceptional certificates: {exceptional})")
