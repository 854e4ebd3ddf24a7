"""The seeded hetlink workloads and their output checks.

A run is a fixed amount of work, the same for a given seed and --seconds,
made of identical rounds:

  round r  [set-up r: gen-synth -> bundle, load bundle, index and features]
           (the first `setup_reps` rounds; every repeat must write the same
           bytes)
           CLI train
           CLI eval of every labelled chunk
           one disambiguate request for each snippet of chunk 0

The number of rounds comes from --seconds and the workload's nominal round
time, so a run measures for about --seconds on the machine the benchmark
was sized on, and `attempted` and `failed` repeat exactly for a seed.

The speed of a shared machine drifts by tens of per cent over spells of
tens of seconds, and every operation of a run slows alike.  A SpeedGauge
therefore times a fixed reference kernel between the operations, and each
timing sample is scaled to the machine's nominal speed by the kernel's
median time around it.  Each timing metric is the median of these scaled
samples over the rounds.

The program only ever sees files that ``hetlink gen-synth`` wrote from the
workload seed.  The labelled snippets are generated with the corpus, after
the training snippets, and training never sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from hetlink import cli, evalgen, matcher, querygraph
from hetlink.hetgraph import build_inverted_index
from hetlink.termembed import init_node_features

# Every node-type count of the default synthetic corpus times ten.
KB_10X = {"node_counts": {t: 10 * n for t, n in evalgen.DEFAULT_NODE_COUNTS.items()}}
TOP_K = 5
MIN_ROUNDS = 3
MIN_RANKED = 100          # ranked snippets served; the p90 then has 10 beyond it
TRACE_REQUESTS = 60       # requests in each pass of a traced run
GAUGE_EVERY = 3           # requests between two gauge readings
DROP_MESSAGE = "has no ambiguous mention"


@dataclass(frozen=True)
class Spec:
    name: str
    gen_config: dict                # gen-synth config; the seed comes from --seed
    train_snippets: int             # leading snippets that training sees
    chunk: int                      # labelled snippets per CLI eval; chunk 0 is served
    chunks: int                     # labelled chunks, each evaluated every round
    setup_reps: int                 # set-ups per run, one in each leading round
    round_s: float                  # nominal seconds of one round (2-core x86_64)
    train: list[str] = field(default_factory=list)

    @property
    def labelled(self) -> int:
        """Snippets after the training ones."""
        return self.chunks * self.chunk

    def rounds(self, seconds: float) -> int:
        """Rounds of a run that should measure for about `seconds`."""
        return max(MIN_ROUNDS, self.setup_reps, round(seconds / self.round_s))


SPECS = {
    # Training-heavy: MAGNN on the default corpus (900 nodes, its first 300
    # snippets), hard sampler with the uniform first epoch, patience=epochs.
    "train-magnn": Spec(
        name="train-magnn", gen_config={}, train_snippets=300, chunk=160, chunks=3,
        setup_reps=4, round_s=11.0,
        train=["--encoder", "magnn", "--sampler", "hard", "--curriculum", "true",
               "--epochs", "20", "--patience", "20"]),
    # Serving: GraphSAGE trained briefly (2 epochs, 100 snippets), 9,000-node KB.
    "serve-sage-10x": Spec(
        name="serve-sage-10x", gen_config=KB_10X, train_snippets=100, chunk=150, chunks=1,
        setup_reps=2, round_s=15.0,
        train=["--encoder", "graphsage", "--epochs", "2", "--patience", "2"]),
}


class BenchError(Exception):
    pass


class SpeedGauge:
    """The machine's speed over time, from a fixed reference kernel.

    The kernel uses no hetlink code and does the kinds of work a request
    does: a sparse-times-dense product over 9,000 rows, a dense product and
    a Python dictionary loop.  `scale(start, seconds)` is the kernel's
    nominal time divided by its median time within WINDOW_S of a sample, so
    a sample times `scale` is the sample at the machine's nominal speed.
    """

    NOMINAL_S = 0.0045        # median kernel time within runs, 2-core x86_64
    WINDOW_S = 5.0

    def __init__(self):
        rng = np.random.default_rng(0)
        n, nnz = 9000, 48000
        self._adj = scipy.sparse.csr_matrix(
            (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n))
        self._x = rng.random((n, 32))
        self._w = rng.random((32, 32))
        self.readings: list[tuple[float, float]] = []    # (start, seconds)

    def tick(self) -> None:
        start = time.perf_counter()
        (self._adj @ self._x) @ self._w
        counts: dict[int, int] = {}
        for i in range(5000):
            counts[i % 613] = counts.get(i % 613, 0) + i
        self.readings.append((start, time.perf_counter() - start))

    def scale(self, start: float, seconds: float) -> float:
        near = [s for t, s in self.readings
                if start - self.WINDOW_S <= t <= start + seconds + self.WINDOW_S]
        return self.NOMINAL_S / statistics.median(near or [s for _, s in self.readings])


class DropCounter(logging.Handler):
    """Counts the CLI's "no ambiguous mention; skipped" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.drops = 0

    def emit(self, record):
        if DROP_MESSAGE in record.getMessage():
            self.drops += 1


def configure_logging() -> DropCounter:
    os.environ["HETLINK_LOG"] = "WARNING"
    logger = logging.getLogger("hetlink")
    logger.propagate = False
    counter = DropCounter()
    logger.addHandler(counter)
    errors = logging.StreamHandler()
    errors.setLevel(logging.ERROR)
    logger.addHandler(errors)
    return counter


def run_cli(argv: list[str]) -> str:
    """One in-process `hetlink` command; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"hetlink {argv[0]} exited with {code}")
    return out.getvalue()


def tree_digest(directory) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def write_snippets(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)


@dataclass
class Loaded:
    """What a serving process holds after loading the bundle and model."""
    kb: object
    store: object
    freqs: object
    index: object
    features: object
    model: object = None


def load_bundle(bundle) -> Loaded:
    """The CLI's load path: bundle, acronym-enabled index, node features."""
    kb, store, freqs = cli.read_bundle(bundle)
    return Loaded(kb, store, freqs, build_inverted_index(kb),
                  init_node_features(kb, store, freqs))


class Session:
    """One pass of a workload: working directory, checks and counters."""

    def __init__(self, spec: Spec, seed: int, workdir, drops: DropCounter,
                 tracer=None):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.drops = drops
        self.tracer = tracer
        self.gauge = SpeedGauge()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def scope(self, request_id):
        """Tag the spans of one request or command with its id."""
        if self.tracer is None:
            yield
            return
        saved = self.tracer.request
        self.tracer.request = request_id
        try:
            yield
        finally:
            self.tracer.request = saved

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def cli_counted(self, argv: list[str], n_snippets: int) -> str:
        """A measured CLI command over n snippets; drops count as failed."""
        before = self.drops.drops
        out = run_cli(argv)
        self.attempted += n_snippets
        self.failed += self.drops.drops - before
        return out

    # -- set-up ------------------------------------------------------------

    def setup(self, rep: int) -> dict:
        """gen-synth, the snippet files, then load bundle, index and features."""
        spec = self.spec
        root = os.path.join(self.workdir, f"setup{rep}")
        bundle = os.path.join(root, "bundle")
        os.makedirs(root)
        gen_path = os.path.join(root, "gen.json")
        with open(gen_path, "w", encoding="utf-8") as fh:
            json.dump(spec.gen_config, fh)
        out = {"root": root, "bundle": bundle}
        with self.scope(f"setup{rep}"):
            start = time.perf_counter()
            run_cli(["gen-synth", "--config", gen_path, "--seed", str(self.seed),
                     "--snippets", str(spec.train_snippets + spec.labelled),
                     "--out", bundle])
            with open(os.path.join(bundle, "snippets.json"), encoding="utf-8") as fh:
                rows = json.load(fh)
            out["train_path"] = os.path.join(root, "train.json")
            write_snippets(out["train_path"], rows[:spec.train_snippets])
            labelled = rows[spec.train_snippets:]
            out["chunks"] = []
            for c in range(spec.chunks):
                path = os.path.join(root, f"eval{c}.json")
                write_snippets(path, labelled[c * spec.chunk:(c + 1) * spec.chunk])
                out["chunks"].append(path)
            loaded = load_bundle(bundle)
            out["setup_s"] = (start, time.perf_counter() - start)
        out["loaded"] = loaded
        out["served"] = labelled[:spec.chunk]
        return out

    # -- measured operations -----------------------------------------------

    def train_once(self, bundle, train_path, rep: int) -> dict:
        model = os.path.join(self.workdir, f"model{rep}")
        with self.scope(f"train{rep}"):
            t0 = time.perf_counter()
            self.cli_counted(["train", "--bundle", bundle, "--snippets", train_path,
                              "--out", model, "--seed", str(self.seed)] + self.spec.train,
                             self.spec.train_snippets)
            seconds = time.perf_counter() - t0
        with open(os.path.join(model, "history.csv"), "rb") as fh:
            history = fh.read()
        return {"model": model, "seconds": (t0, seconds), "history": history}

    def eval_once(self, bundle, model, snippets_path, rep: int) -> dict:
        with self.scope(f"eval{rep}"):
            t0 = time.perf_counter()
            out = self.cli_counted(["eval", "--bundle", bundle, "--model", model,
                                    "--snippets", snippets_path], self.spec.chunk)
            seconds = time.perf_counter() - t0
        return {"seconds": (t0, seconds), "report": json.loads(out)}

    def request(self, loaded: Loaded, snippet):
        """The per-snippet work of ``hetlink disambiguate``: query graph with
        the CLI's index, query features, top-k ranking of the first
        ambiguous mention.  Returns (seconds, (gold id, ranking) or None)."""
        t0 = time.perf_counter()
        extractor = (querygraph.GoldMentionExtractor() if snippet.mentions
                     else querygraph.GazetteerExtractor(loaded.index))
        qg = querygraph.augment_query_graph(loaded.kb, loaded.index, snippet, extractor)
        if not qg.unknown_nodes:
            return time.perf_counter() - t0, None
        node = qg.unknown_nodes[0]
        ranked = matcher.disambiguate(loaded.model, loaded.kb, loaded.features, qg,
                                      qg.features(loaded.store, loaded.freqs),
                                      node, TOP_K)
        seconds = time.perf_counter() - t0
        return seconds, (qg.mentions[node].link_id, [list(r) for r in ranked])


class Server:
    """Closed loop, one client: each round requests the served snippets in
    order.

    A request without a ranking, or one that raises, is a failed operation
    and has no latency sample.  A repeat of a snippet must rank exactly as
    its first request did.
    """

    def __init__(self, session: Session, rows):
        self.session = session
        self.snippets = [querygraph.TextSnippet.from_json(r, r["id"]) for r in rows]
        self.first: dict[str, object] = {}
        self.times: dict[str, list] = {}   # ranked snippet -> (start, seconds) per request
        self.requests = 0

    def serve(self, loaded: Loaded, n: int) -> None:
        session = self.session
        for snippet in self.snippets[:n]:
            i = self.requests
            if i % GAUGE_EVERY == 0:
                session.gauge.tick()
            session.attempted += 1
            start = time.perf_counter()
            try:
                with session.scope(f"request{i}"):
                    seconds, ranked = session.request(loaded, snippet)
            except Exception as exc:  # a raising request is a failed operation
                traceback.print_exc(file=sys.stderr)
                seconds, ranked = None, ("error", repr(exc))
            if ranked is None or seconds is None:
                session.failed += 1
            else:
                self.times.setdefault(snippet.id, []).append((start, seconds))
            if snippet.id not in self.first:
                self.first[snippet.id] = ranked
            else:
                session.check(self.first[snippet.id] == ranked,
                              f"serve: snippet {snippet.id} ranked differently on a repeat")
            self.requests += 1


def served_f1(rankings: dict, ids) -> float:
    """Rank-1 F1 of served rankings over `ids`, scored as CLI ``eval`` does:
    snippets without a ranking are left out."""
    predictions, gold = {}, {}
    for sid in ids:
        ranked = rankings.get(sid)
        if ranked is None or ranked[0] == "error":
            continue
        gold_id, cands = ranked
        predictions[sid] = [nid for nid, _ in cands]
        gold[sid] = int(gold_id)
    return evalgen.precision_recall_f1(predictions, gold).f1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one pass of a workload -------------------------------------------------

def combined_f1(reports: list[dict]) -> float:
    """Rank-1 F1 over the union of disjoint eval chunks."""
    correct = sum(r["n_correct"] for r in reports)
    emitted = sum(r["n_emitted"] for r in reports)
    gold = sum(r["n_gold"] for r in reports)
    precision = correct / emitted if emitted else 0.0
    recall = correct / gold if gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def run_pass(session: Session, rounds: int, requests: int | None = None) -> dict:
    """`rounds` identical rounds; each serves the first `requests` snippets
    of chunk 0 (all of them when None)."""
    spec = session.spec
    result = {"setup_s": [], "train_s": [], "eval_s": {c: [] for c in range(spec.chunks)},
              "history": None, "bundle_digest": None, "model_digest": None,
              "reports": {}}
    base = server = None
    for r in range(rounds):
        session.gauge.tick()
        if r < spec.setup_reps:
            if base is not None:
                shutil.rmtree(base["root"])
            base = session.setup(r)
            session.gauge.tick()
            result["setup_s"].append(base["setup_s"])
            digest = tree_digest(base["bundle"])
            session.check(result["bundle_digest"] in (None, digest),
                          "set-up: the same seed wrote a different bundle")
            result["bundle_digest"] = digest
            if server is None:
                server = Server(session, base["served"])
        tr = session.train_once(base["bundle"], base["train_path"], r)
        session.gauge.tick()
        result["train_s"].append(tr["seconds"])
        session.check(result["history"] in (None, tr["history"]),
                      "train: history.csv differs between identical trainings")
        result["history"] = tr["history"]
        digest = tree_digest(tr["model"])
        session.check(result["model_digest"] in (None, digest),
                      "train: identical trainings saved different models")
        result["model_digest"] = digest
        base["loaded"].model, _ = matcher.load_model(tr["model"])

        for c, path in enumerate(base["chunks"]):
            ev = session.eval_once(base["bundle"], tr["model"], path, r)
            session.gauge.tick()
            result["eval_s"][c].append(ev["seconds"])
            session.check(result["reports"].setdefault(c, ev["report"]) == ev["report"],
                          "eval: a repeated CLI eval gave a different report")
        server.serve(base["loaded"], spec.chunk if requests is None else requests)
        shutil.rmtree(tr["model"])

    rankings = server.first
    if len(rankings) == len(server.snippets):
        session.check(served_f1(rankings, list(rankings)) == result["reports"][0]["f1"],
                      "serve: served rank-1 F1 differs from CLI eval on chunk 0")
    shutil.rmtree(base["root"])
    reports = [result["reports"][c] for c in sorted(result["reports"])]
    result.update(rankings=rankings, times=server.times, requests=server.requests,
                  rounds=rounds, f1=combined_f1(reports))
    return result


# -- run-to-run reference ----------------------------------------------------

def check_reference(session: Session, ref_dir, code_hash: str, result: dict) -> None:
    """The same code and seed must give the same bundle, F1, eval reports,
    training history and rankings as every earlier run in this checkout."""
    record = {
        "f1": result["f1"],
        "eval_reports": {str(c): r for c, r in sorted(result["reports"].items())},
        "bundle": result["bundle_digest"],
        "history_sha256": hashlib.sha256(result["history"]).hexdigest(),
        "rankings": {sid: hashlib.sha256(json.dumps(r).encode()).hexdigest()[:16]
                     for sid, r in sorted(result["rankings"].items())},
    }
    path = os.path.join(ref_dir, code_hash, f"{session.spec.name}-{session.seed}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    for key in ("f1", "bundle", "history_sha256", "eval_reports", "rankings"):
        session.check(ref[key] == record[key],
                      f"repeat: {key} differs from an earlier run of this seed and code")


def scaled(gauge: SpeedGauge, samples) -> list[float]:
    """(start, seconds) samples at the machine's nominal speed."""
    return [seconds * gauge.scale(start, seconds) for start, seconds in samples]


def latencies_ms(result: dict, gauge: SpeedGauge) -> list[float]:
    """Each ranked snippet's median scaled request time over the rounds, in ms."""
    return [statistics.median(scaled(gauge, times)) * 1e3
            for times in result["times"].values()]


def end_to_end_metrics(result: dict, session: Session) -> dict:
    gauge = session.gauge
    lat_ms = latencies_ms(result, gauge)
    if len(lat_ms) < MIN_RANKED:
        raise BenchError(f"only {len(lat_ms)} ranked snippets served; need {MIN_RANKED}")
    values = {
        "setup_s": (statistics.median(scaled(gauge, result["setup_s"])), "s"),
        "train_s": (statistics.median(scaled(gauge, result["train_s"])), "s"),
        "eval_s": (statistics.median(statistics.median(scaled(gauge, v))
                                     for v in result["eval_s"].values()), "s"),
        "disambiguate_p50_ms": (statistics.median(lat_ms), "ms"),
        "disambiguate_p90_ms": (percentile(lat_ms, 90), "ms"),
        "f1": (result["f1"], "ratio"),
        "ranked_frac": (1.0 - session.failed / session.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def samples(result: dict, session: Session) -> dict:
    """Every unscaled timing sample behind the metrics, the gauge readings
    and the request counts."""
    def raw(pairs):
        return [seconds for _, seconds in pairs]
    return {"setup_s": raw(result["setup_s"]), "train_s": raw(result["train_s"]),
            "eval_s": {str(c): raw(v) for c, v in result["eval_s"].items()},
            "gauge_s": raw(session.gauge.readings),
            "rounds": result["rounds"], "requests": result["requests"],
            "ranked_snippets": len(result["times"])}
