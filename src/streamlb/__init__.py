"""streamlb: hard-instance generators, verifiers, and protocol experiments
for two-pass graph streaming."""

__version__ = "0.1.0"

from .behrend import BehrendSet, construct_ap_free, random_ap_free, verify_no_3ap
from .infometrics import (
    DiscreteDistribution,
    JointDistribution,
    entropy,
    kl,
    mutual_information,
    top_half_check,
    tvd,
)
from .instances import (
    EdgeStream,
    SIInstance,
    STInstance,
    URInstance,
    sample_si,
    sample_st,
    sample_ur,
    to_stream,
    verify_st_instance,
    verify_ur_promise,
)
from .protocols import (
    Transcript,
    boost_si,
    intersection_protocol,
    measure_internal_eps,
    mock_eps_solver,
    simulate_two_pass,
)
from .reductions import (
    BipartiteGraph,
    perfect_matching_exists,
    reduce_to_acyclicity,
    reduce_to_matching,
    reduce_to_reach_count,
    reduce_to_sssp,
)
from .rsgraph import RSDigraph, build_rs_digraph, verify_induced
from .streaming import run_stream
