"""The benchmark tracer (bench/tracer.py) binds seuclid names by string:
a rename that would break `bench/run.py --trace 1` fails here."""
import types
from pathlib import Path

from seuclid import certs, cli, covering, disks, exact, field, witness
from seuclid.exact import SSet
from seuclid.field import make_field

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    # executed from its source, so nothing is written next to it
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


API = types.SimpleNamespace(
    exact=exact, field=field, covering=covering, witness=witness, disks=disks, certs=certs, cli=cli,
)


def test_tracer_counts_the_surd_kernel_and_restores_it():
    chain = list(covering.certify_euclidean(make_field(67), SSet.of(2, 3)).chain)
    bundle = disks.certify_exceptional(10, 2)
    originals = (exact.surd_cmp, exact.SurdValue.__post_init__, covering.residual)
    tracer = _load_tracer().Tracer(API)
    tracer.install()
    try:
        # residual and the bundle check run on integer ends; intervals
        # builds SurdValue ends, and comparing two of them calls surd_cmp
        covering.residual(make_field(10), SSet.of(2), 64)
        assert disks.verify_exceptional_bundle(bundle)
        assert covering.replay_chain(67, chain)
        first = covering.intervals(make_field(10), SSet.of(2), 4)[0]
        assert first.lo < first.hi
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert counts["exact.surd_cmp.calls"] > 0
    assert counts["exact.SurdValue.calls"] > 0
    assert {"covering.residual", "covering.replay_chain"} <= {span[0] for span in spans}
    restored = (exact.surd_cmp, exact.SurdValue.__post_init__, covering.residual)
    assert all(now is before for now, before in zip(restored, originals))


def test_tracer_reads_arguments_by_name():
    # the per-call counters bind n_max, coeff_max and cert by name, so a
    # renamed parameter must fail here rather than in a traced run
    xi0, _bound = witness.witness_bound(17, 2)
    cert = disks.table_disk_certificate(7, 8)
    tracer = _load_tracer().Tracer(API)
    tracer.install()
    try:
        witness.oracle_min_snorm(17, 2, xi0, 1, 3)
        disks.verify_disk_cert(cert)
    finally:
        tracer.uninstall()
    _spans, counts = tracer.take()
    assert counts["witness.oracle_min_snorm.points"] == 98  # (1 + 1) * (2*3 + 1)^2
    assert counts["disks.verify_disk_cert.cells"] == 64  # 8^2
