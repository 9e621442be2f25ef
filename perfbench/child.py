"""One benchmark repetition in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports msflow
from the checkout's ``src``, loads the workload's config with its
overrides, makes the solve call through the public API, checks the
result against the correctness gates, and prints one JSON line:
setup and solve times, peak memory, the output hash, gate failures
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (  # noqa: E402
    SWEEP_EPS, WORKLOADS, cell_steps, read_config_values, seed_overrides)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _ledger_gates(cfg, result, bounds):
    """Failures of the per-run checks on a ledger run (empty when fine)."""
    rows = result.ledger.rows
    failures = []
    if not bounds.ok:
        failures.append("check_global_bounds failed")
    if result.ledger.clamp_events != 0:
        failures.append(f"clamp_events = {result.ledger.clamp_events}")
    worst_e = max(r["energy_residual"] for r in rows)
    if not worst_e <= 100 * cfg.flow_tol:
        failures.append(f"max energy_residual {worst_e:.3e}")
    # The per-step entropy balance is an inequality: implicit Euler in
    # entropy variables loses a convexity gap (about -2e-6 per step at
    # 64^2), so only a positive slack beyond the solver tolerance fails.
    worst_s = max(r["entropy_slack"] for r in rows)
    if not worst_s <= 100 * cfg.species_tol:
        failures.append(f"max entropy_slack {worst_s:.3e}")
    return failures


def _sweep_gates(result):
    failures = []
    if not result.monotone_div:
        failures.append("divergence defect not monotone in eps")
    if not result.monotone_u:
        failures.append("distance to reference not monotone in eps")
    if not result.div_ratio >= 10.0:
        failures.append(f"div_ratio {result.div_ratio:.3g} < 10")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import msflow.config
    import msflow.driver

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    cfg_path = os.path.join(ROOT, wl.config)
    overrides = list(wl.overrides)
    if args.smoke:
        overrides += wl.smoke
    overrides += seed_overrides(read_config_values(cfg_path), args.seed)
    overrides.append(f"output.dir={args.out}")
    cfg = msflow.config.load_config(cfg_path, overrides)
    setup_s = time.monotonic() - args.spawned_at

    out = {"ok": True, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    t0 = time.perf_counter()
    try:
        if wl.kind == "sweep":
            result = msflow.driver.sweep_epsilon(cfg, SWEEP_EPS, strict=False)
            os.makedirs(cfg.out_dir, exist_ok=True)
            output = os.path.join(cfg.out_dir, "sweep.csv")
            with open(output, "w") as fh:
                fh.write(result.table())
        else:
            result = msflow.driver.run_simulation(cfg, write_outputs=True)
            bounds = result.ledger.check_global_bounds()
            output = os.path.join(cfg.out_dir, cfg.csv_name)
        run_s = time.perf_counter() - t0
    except Exception:  # a solver failure is a failed run, not a crash
        out.update(ok=False, failures=[traceback.format_exc(limit=4)])
        print(json.dumps(out))
        return 0

    try:
        failures = (_sweep_gates(result) if wl.kind == "sweep"
                    else _ledger_gates(cfg, result, bounds))
    except Exception:
        failures = [traceback.format_exc(limit=4)]
    out.update(
        ok=not failures, failures=failures, run_s=run_s,
        cell_steps=cell_steps(cfg, wl.kind),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        output=os.path.basename(output), sha256=_sha256(output))
    if tracer is not None:
        from spans import layer_metrics
        out["layers"] = layer_metrics(tracer.spans)
        out["missing"] = tracer.missing
        tracer.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
