"""hetlink benchmark: one command, two seeded workloads.

    python3 bench/run.py --workload train-magnn --seed 1 --seconds 45 --trace 0

Run from the repository root.  The program is imported from ``src/``.  All
files go under ``.bench_out/`` and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1`` the
run makes one untraced and one traced round of fixed work and reports the
per-layer metrics and the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

BLAS_THREADS = 1          # at most nproc; one thread keeps timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-magnn", "serve-sage-10x")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="about how long the run measures; sets its fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hetlink", "cli.py")):
        print(f"error: no hetlink sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)

    import envinfo
    import workloads
    from tracer import Tracer

    drops = workloads.configure_logging()
    spec = workloads.SPECS[args.workload]
    env = envinfo.collect(ROOT, BENCH_DIR, BLAS_THREADS)
    env.update({"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace})
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            correct, attempted, failed, metrics, extra = traced_run(
                spec, args.seed, workdir, drops, workloads, Tracer)
        else:
            session = workloads.Session(spec, args.seed, workdir, drops)
            result = workloads.run_pass(session, spec.rounds(args.seconds))
            workloads.check_reference(session, os.path.join(OUT_DIR, "ref"),
                                      env["code_sha256"], result)
            metrics = workloads.end_to_end_metrics(result, session)
            extra = {"samples": workloads.samples(result, session)}
            correct, attempted, failed = (not session.failures, session.attempted,
                                          session.failed)
            for message in session.failures:
                print(f"check failed: {message}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(extra)
    with open(os.path.join(OUT_DIR, f"env-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(spec, seed, workdir, drops, workloads, Tracer):
    """One untraced and one traced pass of the same fixed work: one round,
    TRACE_REQUESTS requests.

    Returns the per-layer metrics of the traced pass plus the tracing
    overhead; both passes must give the same F1, history and rankings.
    """
    import expectations

    def one_pass(label, tracer=None):
        session = workloads.Session(spec, seed, os.path.join(workdir, label), drops,
                                    tracer)
        os.makedirs(session.workdir)
        start = time.perf_counter()
        result = workloads.run_pass(session, 1, workloads.TRACE_REQUESTS)
        return session, result, time.perf_counter() - start

    plain, plain_result, plain_s = one_pass("untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_result, traced_s = one_pass("traced", tracer)
    finally:
        tracer.uninstall()

    checks = plain.failures + traced.failures
    for key in ("f1", "reports", "history", "bundle_digest", "model_digest"):
        if plain_result[key] != traced_result[key]:
            checks.append(f"trace: {key} differs between traced and untraced passes")
    if plain_result["rankings"] != traced_result["rankings"]:
        checks.append("trace: serve rankings differ between traced and untraced passes")

    metrics = tracer.layer_metrics()
    checks += expectations.check(spec.name, metrics, tracer)
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    tracer.write(os.path.join(OUT_DIR, f"trace-{spec.name}-{seed}.jsonl"))
    for message in checks:
        print(f"check failed: {message}", file=sys.stderr)
    extra = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
             "missing_layer_targets": tracer.missing}
    return (not checks, traced.attempted, traced.failed, metrics, extra)


if __name__ == "__main__":
    sys.exit(main())
