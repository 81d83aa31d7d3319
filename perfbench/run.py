"""Benchmark of the koszulkit exact engine.

    python3 perfbench/run.py --workload bimodule --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from anywhere; the script works in the checkout that holds it and uses the
package sources under ``src/`` (no installation, no compiled kernel needed).

One *iteration* is a set-up followed by a pass.  Set-up imports ``koszulkit``
afresh (its modules are dropped from ``sys.modules`` first) and builds the
objects the pass consumes; the pass runs the workload over all its inputs.
Iterations repeat until ``--seconds`` have elapsed, all on the same inputs,
and every pass is checked for correctness.  With ``--trace 0`` the last
stdout line reports the medians of the pass time (``wall_s``) and of the
set-up time (``setup_s``), both in seconds at the nominal host speed (see
``refloop``), and the process's peak resident memory less the probe's own
(``peak_rss_mb``); the raw wall-clock medians are printed above it.  With
``--trace 1`` untraced and traced iterations alternate; the traced ones give
the per-layer metrics (medians over traced passes, in raw seconds) and
``trace.overhead_s``, the median over pairs of a raw traced pass minus the
raw untraced pass before it.

Everything runs in this one process, with no threads and no process pool.
Generated inputs, results and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"
#: what the parent commit computed: calculus report digests, verify check counts
GOLDEN = os.path.join("perfbench", "golden.json")

sys.path[:0] = [SRC, HERE]
from layertrace import PER_LAYER, Tracer, median_layers  # noqa: E402
from refloop import Reference, nominal_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
MODULES = ("fields", "linalg", "backend", "quiver", "algebra", "koszul", "homology",
           "duality", "frobenius", "presets", "adedata", "verify", "report")


class SourceMissing(RuntimeError):
    pass


def fresh_import() -> SimpleNamespace:
    """Import koszulkit from the checkout's sources, dropping any earlier copy."""
    if not os.path.isfile(os.path.join(SRC, "koszulkit", "__init__.py")):
        raise SourceMissing(f"no koszulkit sources under {SRC}")
    for key in [k for k in sys.modules if k == "koszulkit" or k.startswith("koszulkit.")]:
        del sys.modules[key]
    kk = SimpleNamespace(**{m: importlib.import_module(f"koszulkit.{m}") for m in MODULES})
    if not os.path.abspath(kk.report.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"koszulkit imported from {kk.report.__file__}, not {SRC}")
    return kk


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def resident_mb() -> float:
    """Current resident memory of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def provenance(kk, args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_kind": kk.backend.KERNEL_KIND,
        "KOSZULKIT_PURE": os.environ.get("KOSZULKIT_PURE"),
        "KOSZULKIT_THREADS": os.environ.get("KOSZULKIT_THREADS"),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Iteration:
    """One set-up plus pass, with its timings and its checks.

    ``raw_setup_s`` and ``raw_wall_s`` are wall-clock seconds.  Given a
    ``Reference``, the probe is timed around the set-up and around and during
    the pass, and ``setup_s`` and ``wall_s`` are those times in seconds at
    the probe's nominal speed (see ``refloop``).
    """

    def __init__(self, wl, inputs, ctx, tracer=None, ref=None):
        self.tracer = tracer
        gc.collect()
        before_setup = ref.probe() if ref is not None else None
        t0 = time.perf_counter()
        kk = fresh_import()
        if tracer is not None:
            tracer.install()
        prepared, errors = {}, {}
        for inp in inputs:
            try:
                prepared[inp.label] = wl.setup(kk, inp)
            except Exception as exc:  # a failed input fails its checks; the run goes on
                errors[inp.label] = _report_error(inp, exc)
        self.raw_setup_s = time.perf_counter() - t0
        gc.collect()
        results = {}
        probes = [ref.probe()] if ref is not None else []
        sampled = []
        t1 = time.perf_counter()
        with ref.sampling(sampled) if ref is not None else contextlib.nullcontext():
            for inp in inputs:
                if inp.label in errors:
                    continue
                try:
                    results[inp.label] = wl.run(kk, inp, prepared[inp.label])
                except Exception as exc:
                    errors[inp.label] = _report_error(inp, exc)
        self.raw_wall_s = time.perf_counter() - t1 - sum(sampled)
        if ref is not None:
            self.setup_s = nominal_seconds(self.raw_setup_s, [before_setup, probes[0]])
            probes += sampled + [ref.probe()]
            self.probe_s = statistics.median(probes)
            self.wall_s = nominal_seconds(self.raw_wall_s, probes)
        self.checks = []
        for inp in inputs:
            if inp.label not in errors:
                try:
                    self.checks.extend(wl.check(kk, inp, results[inp.label], ctx))
                    continue
                except Exception as exc:
                    errors[inp.label] = _report_error(inp, exc)
            self.checks.extend((f"{inp.label}.{n}", False, errors[inp.label])
                               for n in wl.check_names(inp, ctx))
        self.failures = [f"{k}: {d}" if d else k for k, ok, d in self.checks if not ok]


def _report_error(inp, exc) -> str:
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def measure(args) -> dict:
    wl = WORKLOADS[args.workload]
    # the probe's data stays resident all run; its share is kept out of peak_rss_mb
    before = resident_mb()
    ref = Reference()
    probe_mb = resident_mb() - before
    kk = fresh_import()
    prov = provenance(kk, args)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    del kk
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh).get(wl.name)
    if args.record_golden or wl.golden_seed not in (None, args.seed):
        golden = None
    ctx = {"golden": golden, "record": {}}
    inputs = wl.inputs(args.seed, args.smoke, os.path.join(WORK, "inputs"))

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(Iteration(wl, inputs, ctx, ref=ref))
        if args.trace:
            traced.append(Iteration(wl, inputs, ctx, Tracer(len(traced))))
        if args.record_golden or time.perf_counter() - start >= args.seconds:
            break

    every = plain + traced
    attempted = sum(len(it.checks) for it in every)
    failures = [f for it in every for f in it.failures]
    if args.trace:
        layers = median_layers([it.tracer.layer_totals() for it in traced])
        layers["trace.overhead_s"] = statistics.median(
            t.raw_wall_s - p.raw_wall_s for p, t in zip(plain, traced))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        _write_spans(args, traced)
    else:
        values = {"wall_s": statistics.median(it.wall_s for it in plain),
                  "setup_s": statistics.median(it.setup_s for it in plain),
                  "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                                  - probe_mb)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced)} traced "
          f"passes, {attempted} checks", flush=True)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  raw wall-clock medians: pass {statistics.median(it.raw_wall_s for it in plain):.6g} s,"
          f" set-up {statistics.median(it.raw_setup_s for it in plain):.6g} s,"
          f" probe {statistics.median(it.probe_s for it in plain):.6g} s"
          f" (probe data {probe_mb:.3g} MB, not in peak_rss_mb)")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} checks failed)")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "failures": failures[:200],
                   "samples": {"wall_s": [it.wall_s for it in plain],
                               "setup_s": [it.setup_s for it in plain],
                               "raw_wall_s": [it.raw_wall_s for it in plain],
                               "raw_setup_s": [it.raw_setup_s for it in plain],
                               "probe_s": [it.probe_s for it in plain],
                               "traced_raw_wall_s": [it.raw_wall_s for it in traced]}},
                  fh, indent=1, sort_keys=True)
    if args.record_golden:
        _record_golden(wl, ctx["record"], failures)
    return result


def _record_golden(wl, record, failures) -> None:
    if failures:
        raise RuntimeError("refusing to record from a failing run")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden.setdefault(wl.name, {}).update(record)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record)} {wl.name} entries in {GOLDEN}")


def _write_spans(args, traced) -> None:
    """Spans of the last traced pass (one pass is megabytes on ``verify``)."""
    path = os.path.join(WORK, f"spans-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "fields": ["id", "parent", "pass", "name", "start_s", "end_s"]})[:-1])
        fh.write(',\n"spans": [\n')
        fh.write(",\n".join(json.dumps(span) for span in traced[-1].tracer.spans))
        fh.write("\n]}\n")


def run_all(args) -> dict:
    """Each workload in its own process, one after another (peak memory is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (A3, D4) for the benchmark's own tests")
    ap.add_argument("--record-golden", action="store_true",
                    help="run one pass and store its report digests (calculus) or "
                         "check counts (verify) in golden.json")
    args = ap.parse_args(argv)
    if args.record_golden and not (args.workload == "verify" or
                                   (args.workload == "calculus" and args.seed == 0)):
        ap.error("--record-golden needs --workload verify, or calculus at seed 0")
    os.chdir(ROOT)
    try:
        result = run_all(args) if args.workload == "all" else measure(args)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
