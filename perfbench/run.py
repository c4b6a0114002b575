"""biexp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a biexp checkout.  Workloads:

* verify-real, verify-q: cold `run_suite` passes over the float-arithmetic
  suites or the q-deformed suites, each pass in a fresh child process.  The
  number of passes is fixed by --seconds and the workload's nominal pass
  time (at least 2), never by the speed of the code.  Pass 2i takes a suite
  order drawn from the seed and pass 2i+1 the reverse, so every two passes
  run every pair of suites in both orders; their check rows must agree.
* eval-pointwise: one child process runs a closed loop, one caller, over a
  seeded stream of scalar calls (see stream.py) with warm caches; the number
  of 100-call blocks is fixed by --seconds.  Sampled results and a fixed
  probe set are checked against mpmath afterwards (see oracle.py).

Every metric is printed for every workload.  pass_s is the median verify
pass, or the median block of 100 stream calls.  A call is one whole pass in
the verify workloads (what one `biexp verify` process costs; with so few
passes call_us_p99 is in effect the slowest one) and one scalar call in
eval-pointwise.

Times are scaled to a nominal machine speed.  Co-tenants of a shared
virtual machine slow all code by up to about 1.9x for stretches of seconds
to minutes, so each child also times a fixed reference workload next to
the measured work (worker.py), and each stretch of about a second is
multiplied by (nominal reference time / measured reference time) ** 0.85,
the exponent measured on that machine.  The raw times are on the info line.

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run (see tracer.py) and prints the per-layer metrics, unscaled except for
trace.overhead_s, the scaled difference between traced and untraced work.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The line before it carries provenance and the correctness detail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS, per_layer_metrics  # noqa: E402
from worker import scaled_span, speed_scale  # noqa: E402

VERIFY = {
    "verify-real": ("planewave", "dunkl-sampling", "fourier-neumann", "hankel",
                    "spectrum", "lemma71"),
    "verify-q": ("q-core", "q-planewave", "q-weber"),
}
TINY_VERIFY = {"verify-real": ("planewave", "spectrum"),
               "verify-q": ("q-planewave", "q-weber")}
WORKLOADS = tuple(VERIFY) + ("eval-pointwise",)
# seconds per pass, and blocks per second, of the seed code on a 2-vCPU
# Intel Xeon virtual machine; they turn --seconds into a fixed amount of work
NOMINAL_PASS_S = {"verify-real": 24.0, "verify-q": 2.5}
NOMINAL_BLOCKS_PER_S = 40
IMPORT_SAMPLES = 3  # before the workload, and as many again after it
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def _child(root: str, *args) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip().splitlines()[-1:] or proc.stdout[-200:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_sample(root: str) -> float:
    res = _child(root, "import", root)
    return res["import_s"] * speed_scale(res["ref"])


def _provenance(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "biexp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True,
                                   timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# correctness gates of the verify workloads
# ---------------------------------------------------------------------------

def _norm_id(suite: str, cid: str) -> str:
    # ids may carry a "suite::" prefix and a suite-like first component
    # ("sampling/...", "neumann/..."); a check is identified by the rest
    cid = cid.split("::", 1)[-1]
    return f"{suite}:{cid.split('/', 1)[-1]}"


def _expected_ids(suites) -> set:
    with open(os.path.join(HERE, "expected_ids.json")) as fh:
        frozen = json.load(fh)
    return {_norm_id(s, cid) for s in suites for cid in frozen[s]}


def _rows_digest(rows: list) -> str:
    canon = sorted((_norm_id(r[0], r[1]), json.dumps(r[2:])) for r in rows)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def _verify_gates(suites, passes: list) -> dict:
    """Each pass must hold exactly the frozen check ids, and all passes the
    same rows.  Seeds only choose suite orders, and the passes of one run
    already differ in order, so this also covers agreement between seeds."""
    expected = _expected_ids(suites)
    gates = {"ids_match": True}
    digests = set()
    for p in passes:
        ids = [_norm_id(r[0], r[1]) for r in p["rows"]]
        if len(ids) != len(set(ids)) or set(ids) != expected:
            gates["ids_match"] = False
        digests.add(_rows_digest(p["rows"]))
    gates["rows_equal_between_passes"] = len(passes) >= 2 and len(digests) == 1
    gates["checks_per_pass"] = len(passes[0]["rows"])
    gates["expected_checks"] = len(expected)
    return gates


def _margin_max(rows: list) -> float:
    return max(min(r[6], r[7]) / r[8] for r in rows if r[8] > 0.0)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _suite_order(suites, seed: int, i: int) -> list:
    order = list(suites)
    random.Random(f"{seed}/{i // 2}").shuffle(order)
    return order[::-1] if i % 2 else order


def _quantile99(values: list) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_verify(root: str, workload: str, seed: int, seconds: float, trace: bool,
               tiny: bool) -> tuple:
    suites = (TINY_VERIFY if tiny else VERIFY)[workload]
    n_passes = 2 if tiny else max(2, round(seconds / NOMINAL_PASS_S[workload]))
    passes = []
    if trace:
        # one untraced and one traced pass, in the same suite order
        order = _suite_order(suites, seed, 0)
        passes = [_child(root, "verify", root, traced, *order) for traced in (0, 1)]
    else:
        passes = [_child(root, "verify", root, 0, *_suite_order(suites, seed, i))
                  for i in range(n_passes)]
    gates = _verify_gates(suites, passes)
    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(1 for p in passes for r in p["rows"] if not r[9])
    info = {"gates": gates,
            "failed_checks": sorted({r[1] for p in passes for r in p["rows"] if not r[9]})}
    if trace:
        plain, traced = passes
        # both passes at the nominal machine speed, so that the difference
        # is the tracer's cost rather than a change in machine speed
        overhead_s = (scaled_span(traced["ref"], traced["pass_s"])
                      - scaled_span(plain["ref"], plain["pass_s"]))
        metrics = _layer_metrics(traced["trace"], traced["pass_s"], overhead_s)
        for name, t0, t1 in plain["spans"]:
            metrics[f"suites.{name}.wall_s"] = t1 - t0
        info["trace_missing"] = traced["trace"]["missing"]
        info["trace_total_s"] = {k: v[1] for k, v in traced["trace"]["stats"].items()}
        return metrics, attempted, failed, gates, info
    # a call is one pass: what one `biexp verify` process costs
    calls = [scaled_span(p["ref"], p["pass_s"]) for p in passes]
    metrics = {
        "pass_s": statistics.median(calls),
        "call_us_p50": statistics.median(calls) * 1e6,
        "call_us_p99": _quantile99(calls) * 1e6,
        "calls_per_s": len(calls) / sum(calls),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "margin_max": max(_margin_max(p["rows"]) for p in passes),
    }
    info["samples"] = {"passes": len(passes),
                       "reference_samples": [len(p["ref"]) for p in passes]}
    info["pass_s_scaled"] = calls
    info["pass_s_raw"] = [p["pass_s"] for p in passes]
    return metrics, attempted, failed, gates, info


def run_eval(root: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple:
    import oracle
    import stream
    n_blocks = 20 if tiny else max(1, round(seconds * NOMINAL_BLOCKS_PER_S))
    res = _child(root, "eval", root, seed, n_blocks, int(trace))
    worst = {}
    misses = []
    probe_margin = 0.0
    for group in ("samples", "probes"):
        for kind, args, (re, im) in res[group]:
            m, err = oracle.margin(kind, args, complex(re, im))
            if m > worst.get(kind, {"margin": -1.0})["margin"]:
                worst[kind] = {"margin": m, "err": err, "args": args}
            if not m <= 1.0:
                misses.append([kind, args, err])
            if group == "probes":
                probe_margin = max(probe_margin, m)
    checked = len(res["samples"]) + len(res["probes"])
    attempted = res["calls"] + len(res["probes"])
    failed = len(res["errors"]) + len(misses)
    gates = {"no_call_raised": not res["errors"], "oracle_misses": len(misses)}
    info = {"oracle_checked": checked, "oracle_worst": worst, "oracle_tol": oracle.TOL,
            "misses": misses[:10], "errors": res["errors"][:10],
            "repeat_frac": stream.repeat_frac(), "gates": gates}
    if trace:
        metrics = _layer_metrics(res["trace"], None, res["overhead_s"])
        metrics["qspec.qbessel3.repeat_frac"] = stream.repeat_frac()
        info["trace_missing"] = res["trace"]["missing"]
        info["trace_total_s"] = {k: v[1] for k, v in res["trace"]["stats"].items()}
        return metrics, attempted, failed, gates, info
    metrics = {
        "pass_s": statistics.median(res["block_s"]),
        "call_us_p50": res["call_p50_s"] * 1e6,
        "call_us_p99": res["call_p99_s"] * 1e6,
        "calls_per_s": res["calls"] / sum(res["block_s"]),
        "peak_rss_mb": res["rss_mb"],
        "margin_max": probe_margin,
    }
    info["samples"] = {"blocks": len(res["block_s"]), "calls": res["calls"],
                       "block_size": res["block_size"]}
    info["pass_s_raw"] = statistics.median(res["raw_block_s"])
    info["window_reference_s"] = res["window_ref_s"]
    return metrics, attempted, failed, gates, info


def _layer_metrics(trace: dict, pass_s, overhead_s: float) -> dict:
    """Per-layer metrics from a tracer report; absent counts read 0."""
    stats, extra = trace["stats"], trace["extra"]
    metrics = {name: 0.0 for name, _, _ in per_layer_metrics()}
    total_self = 0.0
    for layer, spec in LAYERS.items():
        layer_self = 0.0
        for fn in spec["functions"]:
            calls, _, self_s = stats.get(f"{layer}.{fn}", (0, 0.0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.self_s"] = self_s
            layer_self += self_s
        metrics[f"layer.{layer}.self_s"] = layer_self
        total_self += layer_self
    if pass_s is not None:
        # time outside every wrapped function: suite code and unwrapped helpers
        metrics["layer.suites.self_s"] = pass_s - total_self
    for key, n in extra.items():
        if key in metrics:
            metrics[key] = n
    ibp = stats.get("quad.integrate_bessel_product", (0,))[0]
    if ibp:
        metrics["quad.integrate_bessel_product.converged_frac"] = (
            extra.get("quad.integrate_bessel_product.converged", 0) / ibp)
    metrics["trace.overhead_s"] = overhead_s
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: two passes of two small suites, or 20 blocks")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "biexp", "__init__.py")):
        print("perfbench: no biexp source at ./src/biexp; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    try:
        setup = []
        if not args.trace:
            setup = [_import_sample(root) for _ in range(IMPORT_SAMPLES)]
        if args.workload in VERIFY:
            metrics, attempted, failed, gates, info = run_verify(
                root, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        else:
            metrics, attempted, failed, gates, info = run_eval(
                root, args.seed, args.seconds, bool(args.trace), args.tiny)
        if not args.trace:
            setup += [_import_sample(root) for _ in range(IMPORT_SAMPLES)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        info.setdefault("samples", {})["setup_s"] = len(setup)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    correct = failed == 0 and all(v is True for v in gates.values() if isinstance(v, bool))
    info.update(workload=args.workload, why=why.get(args.workload), seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                failed_frac={"value": failed / attempted, "unit": "ratio"},
                provenance=_provenance(root))
    if args.trace:
        info["layer_moves"] = {layer: s["moves"] for layer, s in LAYERS.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
