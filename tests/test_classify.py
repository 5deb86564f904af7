"""The decision pipeline: pinned verdicts, exports and the CLI bindings."""
import hashlib
import importlib
import pkgutil

import seuclid
import seuclid.cli
from seuclid.classify import decide, survey_rows
from seuclid.exact import SSet, squarefree
from seuclid.field import make_field

# sha256 over one line "d primes kind reason" per (d, S) below, recorded
# before decide moved out of the CLI module
PINNED_DECIDE_DIGEST = "e81c8b98db63076186a62c61bc25f1917bdd9d5bb568b41f3c9dff8d5363ebcb"


def test_decide_verdicts_pinned():
    digest = hashlib.sha256()
    count = 0
    for primes in ((), (2,), (3,), (5,), (7,), (2, 3)):
        s = SSet.from_iterable(primes)
        for d in range(1, 201):
            if squarefree(d):
                v = decide(d, s)
                digest.update(f"{d} {list(primes)} {v.kind} {v.reason}\n".encode())
                count += 1
    assert count == 732
    assert digest.hexdigest() == PINNED_DECIDE_DIGEST


def test_survey_builds_each_field_once():
    """The paper's survey, decide for S = {p}, p <= 7, and squarefree
    d <= 200 plus its four Euclidean tables, builds Q(sqrt(-d)) once
    per distinct d."""
    ds = [d for d in range(1, 201) if squarefree(d)]
    make_field.cache_clear()
    for p in (2, 3, 5, 7):
        for d in ds:
            decide(d, SSet.of(p))
    for primes, d_max in (((), 11), ((2,), 23), ((2, 3), 71), ((2, 3, 5), 143)):
        survey_rows(SSet.from_iterable(primes), d_max)
    assert make_field.cache_info().misses == len(ds) == 122


def test_all_exports_resolve():
    for info in pkgutil.iter_modules(seuclid.__path__):
        module = importlib.import_module(f"seuclid.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"seuclid.{info.name}.{name}"


def test_pipeline_bindings():
    # callers reach the pipeline through the CLI module and the package
    assert seuclid.cli.decide is seuclid.decide
    assert seuclid.cli.survey_rows is seuclid.survey_rows
    assert seuclid.Verdict is seuclid.covering.Verdict
