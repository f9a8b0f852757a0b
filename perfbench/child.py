"""One timed sample: a fresh process that sets up and runs one fpklab job.

Run by ``run.py``; prints one JSON object as its last line of output.

    python3 perfbench/child.py --kind scenario --input IN.json --out DIR
    python3 perfbench/child.py --kind sweep --input SWEEP.json --out DIR --jobs 2 --spans SPANS.tsv.gz

``setup_s`` covers importing fpklab, parsing the input file and the setup
sequence a run starts with (grid, coefficients, equilibrium, ledger,
envelope); for a sweep the sequence runs on the base scenario.  ``wall_s``
is the job call alone: ``cli.run_scenario`` or ``cli.run_sweep``.  With
``--spans`` the job runs under the tracer and the per-layer split is
returned too.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def own_peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("scenario", "sweep"), required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import fpklab
    from fpklab import cli, diagnostics

    if args.kind == "sweep":
        spec = cli.parse_sweep(args.input)
        base = spec.base
    else:
        base = cli.parse_scenario(args.input)
    grid = fpklab.build_grid(base.grid.dim, base.grid.cells_per_axis)
    coeffs, f0 = fpklab.sample_coefficients(base.coefficients, grid)
    feq, _ = fpklab.compute_equilibrium(coeffs, tol=1e-12)
    fpklab.build_constants_ledger(
        coeffs, f0, grid, t_probe_count=cli.T_PROBE_COUNT, t_horizon=max(base.solver.t_end, 1e-6)
    )
    diagnostics.max_principle_envelope(f0, feq, coeffs)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    if args.kind == "sweep":
        cli.run_sweep(spec, args.out, force=True, jobs=args.jobs)
    else:
        cli.run_scenario(base, args.out, force=True)
    wall_s = time.perf_counter() - t1

    # A sweep's rows run in pool workers, which the children rusage covers.
    # This process's own peak is VmHWM: its RUSAGE_SELF maxrss also holds
    # the launching process's RSS, which Linux carries across exec.
    rss_kib = max(own_peak_rss_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "fpklab_file": str(Path(fpklab.__file__).resolve()),
        "fpklab_version": getattr(fpklab, "__version__", "unknown"),
        "numpy_version": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
