"""The benchmark's verify_certs files (bench/workloads.py) must keep their
verdicts: every produced certificate verifies and every forgery is
rejected.  The forgeries mutate keys of the current schema (a cover's
`k_max` and `chain`, a disk's `r_squared`, a witness's `bound`, a
bundle's `gap_lines`), so a schema change that drops one fails here
rather than in a benchmark run."""
import json
import random
import sys
import types
from pathlib import Path

import pytest

from seuclid import certs, cli, covering, disks, exact, field, witness

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

API = types.SimpleNamespace(
    exact=exact, field=field, covering=covering, witness=witness, disks=disks, certs=certs, cli=cli,
)


def _load_workloads():
    # executed from its source, so nothing is written next to it; it
    # reads bench/expected.json beside its own path, and its dataclass
    # looks its module up in sys.modules while the class is built
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def produced():
    """The benchmark module and its genuine objects, by kind, after a
    JSON round trip as the benchmark writes and loads them."""
    workloads = _load_workloads()
    by_kind = {}
    for _label, cert in workloads._produced_certificates(API):
        obj = json.loads(certs.canonical_json(certs.certificate_to_obj(cert)))
        by_kind.setdefault(obj["kind"], []).append(obj)
    return workloads, by_kind


def test_benchmark_certificates_verify(produced):
    _, by_kind = produced
    assert {kind: len(objs) for kind, objs in by_kind.items()} == {
        "cover": 183, "witness": 417, "exceptional-bundle": 3, "disk": 2,
    }
    for objs in by_kind.values():
        for obj in objs:
            assert certs.verify_certificate_obj(obj) is True, (obj["kind"], obj["d"], obj["s"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_forgeries_rejected(produced, seed):
    workloads, by_kind = produced
    forgeries = workloads._forgeries(by_kind, random.Random(seed))
    assert len(forgeries) == 2 + 3 * workloads.MUTATIONS_PER_KIND
    for label, obj in forgeries:
        assert certs.verify_certificate_obj(json.loads(certs.canonical_json(obj))) is False, label
