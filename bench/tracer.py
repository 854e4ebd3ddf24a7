"""Outside-in span tracer for the hetlink benchmark.

The tracer wraps public functions of each hetlink module from outside the
program: it replaces the attribute wherever a caller looks the name up (the
defining module, every module that imported the name, and class attributes
for methods and properties).  Each call records one span in memory:

    [name, start, end, parent span index, request id, outermost of its name]

Spans are written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.  A target that no longer
exists is reported as a missing metric; it never stops the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (span name, owner path, attribute, kind).  The owner path is either a
# module ("hetlink.ndiff") or a class ("hetlink.ndiff:Adam"); kind is
# "function", "method" or "property".  Functions are bound in every hetlink
# module that holds the same object, so `from .x import f` callers are seen.
TARGETS = [
    ("cli.main", "hetlink.cli", "main", "function"),
    ("cli.read_bundle", "hetlink.cli", "read_bundle", "function"),
    ("hetgraph.build_inverted_index", "hetlink.hetgraph", "build_inverted_index", "function"),
    ("hetgraph.edges", "hetlink.hetgraph:HeteroGraph", "edges", "property"),
    ("hetgraph.node_ids", "hetlink.hetgraph:HeteroGraph", "node_ids", "property"),
    ("hetgraph.nodes_of_type", "hetlink.hetgraph:HeteroGraph", "nodes_of_type", "method"),
    ("termembed.init_node_features", "hetlink.termembed", "init_node_features", "function"),
    ("querygraph.augment_query_graph", "hetlink.querygraph", "augment_query_graph", "function"),
    ("querygraph.features", "hetlink.querygraph:QueryGraph", "features", "method"),
    ("negsample.sample", "hetlink.negsample:HardNegativeSampler", "sample", "method"),
    ("negsample.ranked", "hetlink.negsample:HardNegativeSampler", "ranked", "method"),
    ("ndiff.backward", "hetlink.ndiff", "backward", "function"),
    ("ndiff.adam_step", "hetlink.ndiff:Adam", "step", "method"),
    ("ndiff.segment_sum", "hetlink.ndiff", "segment_sum", "function"),
    ("ndiff.segment_softmax", "hetlink.ndiff", "segment_softmax", "function"),
    ("ndiff.sparse_matmul", "hetlink.ndiff", "sparse_matmul", "function"),
    ("ndiff.gather_rows", "hetlink.ndiff", "gather_rows", "function"),
    ("encoders.encode", "hetlink.encoders:Encoder", "encode", "method"),
    ("matcher.train", "hetlink.matcher", "train", "function"),
    ("matcher.save_model", "hetlink.matcher", "save_model", "function"),
    ("matcher.load_model", "hetlink.matcher", "load_model", "function"),
    ("matcher.disambiguate", "hetlink.matcher", "disambiguate", "function"),
    ("matcher.candidate_ids", "hetlink.matcher", "candidate_ids", "function"),
    ("matcher.score_one_vs_many", "hetlink.matcher:MatchingHead", "score_one_vs_many", "method"),
    ("matcher.build_query_batch", "hetlink.matcher", "build_query_batch", "function"),
    ("evalgen.generate_synthetic_kb", "hetlink.evalgen", "generate_synthetic_kb", "function"),
    ("evalgen.predict_batch", "hetlink.evalgen", "predict_batch", "function"),
]

# Per-layer metrics reported by a traced run: (metric, unit).  "calls" and
# "busy_s" come from spans; the rest are counters recorded at the same
# boundaries.  busy_s is wall time inside the outermost call of that name.
LAYER_METRICS = [
    ("cli.read_bundle.busy_s", "s"),
    ("matcher.load_model.busy_s", "s"),
    ("hetgraph.build_inverted_index.busy_s", "s"),
    ("hetgraph.edges.calls", "count"),
    ("hetgraph.edges.busy_s", "s"),
    ("hetgraph.nodes_of_type.calls", "count"),
    ("hetgraph.nodes_of_type.busy_s", "s"),
    ("hetgraph.node_ids.calls", "count"),
    ("hetgraph.node_ids.busy_s", "s"),
    ("termembed.init_node_features.busy_s", "s"),
    ("querygraph.augment_query_graph.calls", "count"),
    ("querygraph.augment_query_graph.busy_s", "s"),
    ("querygraph.features.busy_s", "s"),
    ("querygraph.unresolved", "count"),
    ("negsample.sample.calls", "count"),
    ("negsample.sample.busy_s", "s"),
    ("negsample.ranked.busy_s", "s"),
    ("negsample.ranked.hit_frac", "ratio"),
    ("negsample.hard_frac", "ratio"),
    ("ndiff.backward.calls", "count"),
    ("ndiff.backward.busy_s", "s"),
    ("ndiff.adam_step.busy_s", "s"),
    ("ndiff.segment_sum.calls", "count"),
    ("ndiff.segment_sum.busy_s", "s"),
    ("ndiff.segment_sum.rows", "count"),
    ("ndiff.segment_softmax.calls", "count"),
    ("ndiff.segment_softmax.busy_s", "s"),
    ("ndiff.sparse_matmul.calls", "count"),
    ("ndiff.sparse_matmul.busy_s", "s"),
    ("ndiff.gather_rows.calls", "count"),
    ("ndiff.gather_rows.busy_s", "s"),
    ("encoders.encode_train.calls", "count"),
    ("encoders.encode_train.busy_s", "s"),
    ("encoders.encode_eval.calls", "count"),
    ("encoders.encode_eval.busy_s", "s"),
    ("encoders.encode_eval.nodes", "count"),
    ("matcher.train.busy_s", "s"),
    ("matcher.save_model.busy_s", "s"),
    ("matcher.disambiguate.calls", "count"),
    ("matcher.disambiguate.busy_s", "s"),
    ("matcher.candidate_ids.calls", "count"),
    ("matcher.candidate_ids.busy_s", "s"),
    ("matcher.candidate_ids.rows", "count"),
    ("matcher.score_one_vs_many.calls", "count"),
    ("matcher.score_one_vs_many.busy_s", "s"),
    ("matcher.score_one_vs_many.rows", "count"),
    ("matcher.build_query_batch.busy_s", "s"),
    ("evalgen.generate_synthetic_kb.busy_s", "s"),
    ("evalgen.predict_batch.busy_s", "s"),
]


def _rows(x) -> int:
    data = getattr(x, "data", x)
    return int(data.shape[0])


def _encode_name(args, kwargs) -> str:
    training = kwargs.get("training", args[4] if len(args) > 4 else False)
    return "encoders.encode_train" if training else "encoders.encode_eval"


def _count_encode(tracer, args, kwargs, result, pre):
    if _encode_name(args, kwargs) == "encoders.encode_eval":
        tracer.counts["encoders.encode_eval.nodes"] += len(args[1])


def _count_segment_sum(tracer, args, kwargs, result, pre):
    tracer.counts["ndiff.segment_sum.rows"] += _rows(args[0])


def _count_candidates(tracer, args, kwargs, result, pre):
    tracer.counts["matcher.candidate_ids.rows"] += len(result)


def _count_scored(tracer, args, kwargs, result, pre):
    tracer.counts["matcher.score_one_vs_many.rows"] += _rows(args[2])


def _count_unresolved(tracer, args, kwargs, result, pre):
    if not result.unknown_nodes:
        tracer.counts["querygraph.unresolved"] += 1


def _ranked_cached(args, kwargs):
    return args[1] in getattr(args[0], "_ranked", ())


def _count_ranked(tracer, args, kwargs, result, pre):
    tracer.counts["negsample.ranked.hits"] += bool(pre)


def _count_sampled(tracer, args, kwargs, result, pre):
    provenance = result[1]
    tracer.counts["negsample.sampled"] += len(provenance)
    tracer.counts["negsample.sampled_hard"] += sum(p == "hard" for p in provenance)


# span name -> (pre-call hook or None, post-call counter, metrics it feeds)
COUNTERS = {
    "encoders.encode": (None, _count_encode, ["encoders.encode_eval.nodes"]),
    "ndiff.segment_sum": (None, _count_segment_sum, ["ndiff.segment_sum.rows"]),
    "matcher.candidate_ids": (None, _count_candidates, ["matcher.candidate_ids.rows"]),
    "matcher.score_one_vs_many": (None, _count_scored, ["matcher.score_one_vs_many.rows"]),
    "querygraph.augment_query_graph": (None, _count_unresolved, ["querygraph.unresolved"]),
    "negsample.ranked": (_ranked_cached, _count_ranked, ["negsample.ranked.hit_frac"]),
    "negsample.sample": (None, _count_sampled, ["negsample.hard_frac"]),
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.request = None
        self._stack: list[int] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        pre_hook, counter, fed = COUNTERS.get(name, (None, None, []))
        dynamic = name == "encoders.encode"
        clock = time.perf_counter

        def count(hook, *hook_args):
            # a hook that no longer fits the program drops its metrics only
            if hook is None or fed[0] in self.missing:
                return None
            try:
                return hook(*hook_args)
            except Exception:
                self.missing.extend(fed)
                return None

        def wrapped(*args, **kwargs):
            span_name = _encode_name(args, kwargs) if dynamic else name
            pre = count(pre_hook, args, kwargs)
            stack = self._stack
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   self._depth[span_name] == 0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            self._depth[span_name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._depth[span_name] -= 1
                stack.pop()
            count(counter, self, args, kwargs, result, pre)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def install(self) -> None:
        """Bind a wrapper at every lookup site of every target."""
        import importlib
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hetlink" or n.startswith("hetlink.")]
        for name, owner_path, attr, kind in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if kind == "property":
                if not isinstance(original, property):
                    self.missing.append(name)
                    continue
                self._set(owner, attr, property(self._wrap(original.fget, name)))
            elif kind == "method":
                self._set(owner, attr, self._wrap(original, name))
            else:
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i]
                for i, (_n, start, end, _p, _r, _o) in enumerate(self.spans)]

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost calls only) and self_s per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, start, end, _p, _r, outer), self_s in zip(self.spans, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            if outer:
                row["busy_s"] += end - start
        return dict(out)

    def layer_metrics(self) -> dict[str, dict]:
        """Every LAYER_METRICS entry whose target could be wrapped."""
        summary = self.summary()
        counts = self.counts
        derived = {
            "negsample.ranked.hit_frac": _ratio(
                counts["negsample.ranked.hits"],
                summary.get("negsample.ranked", {}).get("calls", 0)),
            "negsample.hard_frac": _ratio(counts["negsample.sampled_hard"],
                                          counts["negsample.sampled"]),
        }
        missing = set(self.missing)
        if "encoders.encode" in missing:
            missing |= {"encoders.encode_train", "encoders.encode_eval"}
        if "negsample.sample" in missing:
            missing.add("negsample.hard_frac")
        metrics = {}
        for metric, unit in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if base in missing or metric in missing:
                continue
            if metric in derived:
                value = derived[metric]
            elif field in ("calls", "busy_s"):
                value = summary.get(base, {}).get(field, 0)
            else:
                value = counts[metric]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write(self, path) -> None:
        """Spans as JSON lines, with self time, then the per-name summary."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent, req, _o), self_s) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req,
                                     "self_s": self_s}) + "\n")
            fh.write(json.dumps({"summary": self.summary(),
                                 "counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
