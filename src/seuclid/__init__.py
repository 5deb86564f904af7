"""Exact certification of norm-Euclidean rings of S-integers in complex
quadratic fields Q(sqrt(-d))."""

__version__ = "0.1.0"

from .exact import (  # noqa: F401
    SSet,
    SurdValue,
    legendre,
    primes_below,
    s_norm_rational,
    s_part_strip,
    squarefree,
    surd_cmp,
)
from .field import (  # noqa: F401
    KElement,
    QuadField,
    denom_s,
    make_field,
    norm,
    reduce_to_fundamental,
    s_norm,
)
from .covering import (  # noqa: F401
    CoverCertificate,
    Interval,
    Residual,
    Verdict,
    certify_euclidean,
    covers_unit,
    intervals,
    residual,
    theorem2_bound,
)
from .disks import (  # noqa: F401
    Disk,
    DiskCertificate,
    ExceptionalBundle,
    GapLineCert,
    boost_radius,
    certify_exceptional,
    verify_disk_cert,
    verify_gap_line,
)
from .witness import (  # noqa: F401
    OracleReport,
    WitnessCertificate,
    certify_non_euclidean,
    oracle_min_snorm,
)
from .classify import decide, survey_rows  # noqa: F401
