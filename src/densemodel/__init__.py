"""Bounded approximants of sparse weighted sets, with certified counting.

The package turns an unbounded weight f dominated by a pseudorandom majorant
nu into a bounded function g whose Fourier transform is uniformly close to
that of f, then counts solutions of translation-invariant linear equations
under f, g, and threshold level sets, certifying every inequality on the
instance at hand.
"""

from .bohr import BohrSet, SpectrumSet, bohr_enumerate, bohr_measure, spectrum
from .convex import (
    HullProjection,
    PointHull,
    SaddleResult,
    minimax_solve,
    project_onto_hull,
)
from .counting import (
    CountReport,
    LinearForm,
    ThresholdReport,
    TransferErrorReport,
    count_brute,
    count_integer,
    count_spectral,
    count_weighted,
    threshold_extract,
    transfer_error_bound,
)
from .errors import (
    CertificationError,
    DenseModelError,
    ResourceError,
    ValidationError,
)
from .majorants import (
    Majorant,
    diagnose,
    make_random_sparse,
    make_squares,
    make_uniform,
    make_weighted_primes,
)
from .models import (
    DenseModelReport,
    green_model,
    hahn_banach_model,
    hdr_model,
    naslund_model,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    report_schema_version,
    run_pipeline,
)
from .polyapprox import build_abs_approx, build_positive_part, taylor_coeff
from .signals import (
    CertifiedSup,
    DiscreteSignal,
    FrequencyGrid,
    convolve,
    fourier_eval,
    grid_fourier,
    lp_norm,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
