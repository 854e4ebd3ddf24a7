"""Self-tests of a traced run: which layer metrics each workload must move.

A layer that a workload must exercise reads non-zero; a layer it must not
touch reads zero.  A metric missing because its target no longer exists is
skipped here and shows as missing in the output instead.
"""

from __future__ import annotations

# Only invariants that hold for any correct implementation of a workload:
# a refactor may move work between layers but not remove these.
COMMON_NONZERO = [
    "evalgen.generate_synthetic_kb.busy_s", "querygraph.augment_query_graph.calls",
    "encoders.encode_eval.calls", "matcher.disambiguate.calls",
]

MAGNN_ONLY = ["ndiff.segment_sum.calls", "ndiff.segment_softmax.calls",
              "negsample.sample.calls", "negsample.hard_frac"]

NONZERO = {
    "train-magnn": COMMON_NONZERO + MAGNN_ONLY + ["ndiff.backward.calls",
                                                  "encoders.encode_train.calls"],
    "serve-sage-10x": COMMON_NONZERO,
}
ZERO = {
    "train-magnn": [],
    "serve-sage-10x": MAGNN_ONLY,
}
# Layers a disambiguate request must never reach, on any workload.
NOT_IN_REQUESTS = ("ndiff.backward", "ndiff.adam_step", "negsample.sample",
                   "matcher.train")


def check(workload: str, metrics: dict, tracer) -> list[str]:
    failures = []
    for name in NONZERO[workload]:
        if name in metrics and not metrics[name]["value"] > 0:
            failures.append(f"layers: {name} should be non-zero on {workload}")
    for name in ZERO[workload]:
        if name in metrics and metrics[name]["value"] != 0:
            failures.append(f"layers: {name} should be zero on {workload}")
    requests = [s for s in tracer.spans if str(s[4]).startswith("request")]
    if not requests:
        failures.append("layers: no span carries a request id")
    for span in requests:
        if span[0] in NOT_IN_REQUESTS:
            failures.append(f"layers: {span[0]} ran inside {span[4]}")
            break
    return failures
