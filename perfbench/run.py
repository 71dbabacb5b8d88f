"""pointcharge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The workload's inputs come from --seed.  Rounds of the same
operations repeat until --seconds have passed (at least one round), and
every round's outputs are checked against perfbench/oracles.py.  The
last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics setup_s, run_s and peak_rss_mib; with --trace 1 the per-layer
metrics of perfbench/spans.py, for which every call into the program's
public functions is wrapped in a span.  Spans, config files and stdout
copies go to perfbench/out/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
MODULES = ("minkowski", "retarded", "regularization", "fields",
           "association", "selfenergy", "distalg", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("associate_rest", "kinematics_catalog",
                            "selfenergy_renorm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit "
                        "(a setup_s sample, started by the benchmark itself)")
    return p.parse_args(argv)


def import_program():
    """Import pointcharge from ./src, refusing any other copy."""
    if not (SRC / "pointcharge" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'pointcharge'}")
    sys.path.insert(0, str(SRC))
    import pointcharge
    if Path(pointcharge.__file__).resolve().parent != SRC / "pointcharge":
        raise SystemExit(f"error: imported {pointcharge.__file__}, not ./src")
    import importlib
    return [importlib.import_module(f"pointcharge.{m}") for m in MODULES]


def setup_sample(args):
    """Wall time from starting a fresh interpreter to the end of the
    workload's setup (import, config loading, make_family, inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed ({proc.returncode})")
    return t1 - t0


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    modules = import_program()
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed, OUT)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(modules)
    wl.setup(args.seed, OUT)
    setup_s = [] if args.trace else [setup_sample(args)
                                     for _ in range(SETUP_SAMPLES)]

    if tracer:
        tracer.mark("rounds")
    attempted = failed = 0
    fails, round_s = [], []
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        a, f, result = wl.round()
        round_s.append(time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
        fails += wl.check(result)
    fails += wl.finish(args.trace)
    for msg in dict.fromkeys(fails):
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if tracer:
        tracer.uninstall()
        stem = f"{args.workload}-seed{args.seed}"
        tracer.save(OUT / f"spans-{stem}.npz")
        layer = tracer.layer_metrics(len(round_s))
        layer["trace.run_s"] = statistics.median(round_s)
        (OUT / f"layers-{stem}.json").write_text(json.dumps(layer, indent=1))
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    print(f"{args.workload}: seed {args.seed}, {len(round_s)} round(s), "
          f"round_s {[round(t, 4) for t in round_s]}, setup samples "
          f"{[round(t, 4) for t in setup_s]}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_point"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
