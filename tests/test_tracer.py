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


def test_tracer_counts_the_surd_kernel_and_restores_it():
    api = types.SimpleNamespace(
        exact=exact, field=field, covering=covering, witness=witness, disks=disks, certs=certs, cli=cli,
    )
    chain = list(covering.certify_euclidean(make_field(67), SSet.of(2, 3)).chain)
    originals = (exact.surd_cmp, covering.surd_cmp, exact.SurdValue.__post_init__, covering.residual)
    tracer = _load_tracer().Tracer(api)
    tracer.install()
    try:
        covering.residual(make_field(10), SSet.of(2), 64)
        assert covering.replay_chain(67, chain)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert counts["exact.surd_cmp.calls"] > 0
    assert counts["exact.SurdValue.calls"] > 0
    assert {"covering.residual", "covering.replay_chain"} <= {span[0] for span in spans}
    restored = (exact.surd_cmp, covering.surd_cmp, exact.SurdValue.__post_init__, covering.residual)
    assert all(now is before for now, before in zip(restored, originals))
