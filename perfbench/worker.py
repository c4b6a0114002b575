"""One child process of the benchmark.

    python3 perfbench/worker.py import <root>
    python3 perfbench/worker.py verify <root> <trace 0|1> <suite> [<suite> ...]
    python3 perfbench/worker.py eval <root> <seed> <blocks> <trace 0|1>

Each mode imports biexp from <root>/src in this fresh process, does its work
and prints one JSON object as its last line of standard output.

Each mode also times a fixed reference workload (`reference`) close to the
measured work: before and after the import, every 50 ms during a verify pass
(from a second thread, which takes the GIL for about a millisecond), and
after every block of the eval stream, outside the timed block.  Times are
scaled to a nominal machine speed by the reference samples of their own
stretch of about a second (`speed_scale`, `scaled_span`).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import threading
import time

clock = time.perf_counter

# about the median `reference()` time on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11); times are reported as if the machine ran at the speed that
# gives this reference time
REF_NOMINAL_S = 0.9e-3
# library code slows less than the reference loop when the machine slows
# (part of its time is memory traffic): over 40 runs of all three workloads
# on that machine, of the exponents 0.8, 0.85, 0.9 and 1.0 on
# (nominal / measured), 0.85 left the least spread between runs
# (0.01-0.05 IQR/median, against 0.03-0.11 with 1.0)
SPEED_ELASTICITY = 0.85
SAMPLE_EVERY_S = 0.05
EVAL_WINDOW_BLOCKS = 50


def reference() -> float:
    """Time one fixed piece of pure-Python work.  It never releases the GIL,
    so a sampler thread times it without waiting on the measured thread."""
    t0 = clock()
    acc = 0.0
    last = {}
    for i in range(3000):
        x = i * 1e-3
        acc += math.sin(x) * x + math.sqrt(x + 1.0)
        last[i & 63] = acc
    return clock() - t0


def speed_scale(ref_samples: list) -> float:
    """Factor that takes a time measured next to these reference samples to
    the nominal machine speed."""
    return (REF_NOMINAL_S / statistics.median(ref_samples)) ** SPEED_ELASTICITY


def scaled_span(samples: list, end: float, window: float = 1.0) -> float:
    """Time from 0 to `end` at the nominal machine speed, given timed
    reference samples [(t, ref_s), ...]: each window of `window` seconds is
    scaled by the samples taken in it (by all samples, if it has fewer
    than five)."""
    overall = speed_scale([r for _, r in samples])
    total, lo = 0.0, 0.0
    while lo < end:
        hi = min(lo + window, end)
        refs = [r for t, r in samples if lo <= t < hi]
        total += (hi - lo) * (speed_scale(refs) if len(refs) >= 5 else overall)
        lo = hi
    return total


def _import_biexp(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    t0 = clock()
    import biexp
    dt = clock() - t0
    if not os.path.abspath(biexp.__file__).startswith(src + os.sep):
        raise SystemExit(f"biexp was imported from {biexp.__file__}, not from {src}")
    return biexp, dt


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_import(root: str) -> dict:
    before = [reference() for _ in range(15)]
    import_s = _import_biexp(root)[1]
    return {"import_s": import_s, "ref": before + [reference() for _ in range(15)]}


class _Sampler(threading.Thread):
    """Times `reference()` every SAMPLE_EVERY_S until stopped; each sample
    is (seconds since `start`, reference time)."""

    def __init__(self, start: float):
        super().__init__(daemon=True)
        self.t0 = start
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_EVERY_S):
            t = clock() - self.t0
            self.samples.append((t, reference()))

    def stop(self) -> list:
        self.done.set()
        self.join()
        return self.samples


def cmd_verify(root: str, trace: bool, suites: list) -> dict:
    biexp, _ = _import_biexp(root)
    tr = None
    if trace:
        from tracer import Tracer
        tr = Tracer()
        tr.install()
    rows, spans = [], []
    start = clock()
    sampler = _Sampler(start)
    sampler.start()
    for name in suites:
        t0 = clock()
        result = biexp.suites.run_suite(name)
        spans.append((name, t0 - start, clock() - start))
        for c in result.checks:
            rows.append([name, c.id, c.lhs.real, c.lhs.imag, c.rhs.real, c.rhs.imag,
                         c.abs_err, c.rel_err, c.tol, bool(c.passed)])
    out = {"pass_s": clock() - start, "spans": spans, "rows": rows,
           "ref": sampler.stop() or [(0.0, reference())], "rss_mb": _rss_mb()}
    if tr is not None:
        out["trace"] = tr.report()
    return out


def _callers(biexp) -> dict:
    sf, qs, op = biexp.specfun, biexp.qspec, biexp.orthopoly
    # attributes are looked up at call time, so installed wrappers are seen
    return {
        "bessel_j": lambda a: sf.bessel_j(a[0], a[1]),
        "dunkl_series": lambda a: sf.dunkl_kernel(a[0], a[1]),
        "dunkl_jratio": lambda a: sf.dunkl_kernel(a[0], a[1]),
        "gengeg": lambda a: op.GenGegenbauerFamily(sf.Params(a[0], a[1])).eval(a[2], a[3]),
        "qbessel3_grid": lambda a: qs.qbessel3(a[0], a[1], a[2]),
        "qbessel3_off": lambda a: qs.qbessel3(a[0], a[1], a[2]),
        "zeros": lambda a: sf.bessel_zeros(a[0], a[1]).zeros[-1],
    }


class _Stream:
    """Runs blocks of the call stream, timing each call and each block."""

    def __init__(self, biexp, seed: int, samples_per_kind: int):
        import stream
        self.calls = _callers(biexp)
        self.blocks = stream.blocks(seed)
        self.per_kind = samples_per_kind
        self.samples, self.errors = [], []
        self.taken = {}

    def run(self, n_blocks: int, keep=False, sample=False, ref=False):
        """Times n_blocks blocks; returns (per-call times, block times,
        reference times), the last timed after each block if ref."""
        durations, block_s, ref_s = [], [], []
        calls = self.calls
        for _ in range(n_blocks):
            block = next(self.blocks)
            b0 = clock()
            for kind, args in block:
                t0 = clock()
                try:
                    val = calls[kind](args)
                except Exception as exc:  # counted as a failed call
                    val = None
                    self.errors.append(f"{kind}{args}: {type(exc).__name__}: {exc}")
                dt = clock() - t0
                if keep:
                    durations.append(dt)
                if sample and val is not None and self.taken.get(kind, 0) < self.per_kind:
                    self.taken[kind] = self.taken.get(kind, 0) + 1
                    v = complex(val)
                    self.samples.append([kind, list(args), [v.real, v.imag]])
            block_s.append(clock() - b0)
            if ref:
                ref_s.append(reference())
        return durations, block_s, ref_s

    def warm(self, grid):
        for args in grid:
            self.calls["qbessel3_grid"](args)
        self.run(n_blocks=3, ref=True)


def cmd_eval(root: str, seed: int, n_blocks: int, trace: bool) -> dict:
    import stream
    biexp, _ = _import_biexp(root)
    st = _Stream(biexp, seed, 40)
    st.warm(stream.grid_points())
    out = {"block_size": stream.BLOCK_SIZE}
    if trace:
        # untraced and traced chunks alternate, so drifts in machine speed
        # fall on both sides of the overhead estimate
        from tracer import Tracer
        tr = Tracer()
        pairs = 10
        n = max(1, n_blocks // (2 * pairs))
        plain = traced = 0.0
        for _ in range(pairs):
            _, block_s, ref_s = st.run(n, ref=True)
            plain += sum(block_s) * speed_scale(ref_s)
            tr.install()
            _, block_s, ref_s = st.run(n, sample=True, ref=True)
            traced += sum(block_s) * speed_scale(ref_s)
            tr.uninstall()
        out.update(calls=2 * pairs * n * stream.BLOCK_SIZE, trace=tr.report(),
                   overhead_s=traced - plain)
    else:
        # windows of EVAL_WINDOW_BLOCKS blocks, each scaled by its own
        # reference samples
        calls, blocks, raw_blocks, refs = [], [], [], []
        done = 0
        while done < n_blocks:
            n = min(EVAL_WINDOW_BLOCKS, n_blocks - done)
            durations, block_s, ref_s = st.run(n, keep=True, sample=True, ref=True)
            scale = speed_scale(ref_s)
            calls += [d * scale for d in durations]
            blocks += [b * scale for b in block_s]
            raw_blocks += block_s
            refs.append(statistics.median(ref_s))
            done += n
        out.update(calls=len(calls), block_s=blocks, raw_block_s=raw_blocks,
                   window_ref_s=refs, call_p50_s=statistics.median(calls),
                   call_p99_s=statistics.quantiles(calls, n=100, method="inclusive")[98],
                   rss_mb=_rss_mb())
    probes = []
    for kind, args in stream.probe_set():
        v = complex(st.calls[kind](args))
        probes.append([kind, list(args), [v.real, v.imag]])
    out.update(samples=st.samples, probes=probes, errors=st.errors)
    return out


def main(argv: list) -> None:
    mode, root = argv[0], argv[1]
    if mode == "import":
        out = cmd_import(root)
    elif mode == "verify":
        out = cmd_verify(root, argv[2] == "1", argv[3:])
    elif mode == "eval":
        out = cmd_eval(root, int(argv[2]), int(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
