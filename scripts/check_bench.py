#!/usr/bin/env python3
"""CI benchmark gate.

Two layers of checking over the BENCH_<EXP>.json files the bench harness
emits (cmd/benchharness -json):

1. Absolute claims — invariants of the architecture that must hold on any
   healthy runner. An experiment with no BENCH file in --cur is skipped
   (loudly); one whose file carries the harness's "failed" marker fails
   the gate without its partial metrics being read.
     * E12: incremental re-check of standing invariants is >= 5x faster
       than naive full re-evaluation on linear-40.
     * E13: after a neutral event at the edge of linear-40 with 10^4
       invariants, the index dispatches <= 10% of the population to one
       incremental pass (the dirty bucket — a count taken from that one
       pass; what it evaluates is a subset), and the exhaustive reference
       pass (RevalidateAll) takes >= 5x as long as the incremental one
       (medians). No worker-pool wall-clock floor: that measured the
       runner's core count, not the code.
     * E14: after a neutral event at the hub of star-40 with 10^4
       invariants, one incremental pass evaluates nothing (evaluated == 0,
       an exact count) although every invariant is indexed at the hub
       (bucket == subs, from the same pass): no traversal class there
       carries the headers the rule touches.
     * E15: protocol v2 batch registration of the 10^4-invariant
       population is >= 5x faster than sequential signed round-trips, and
       kill/restart recovery completes: every persisted subscription is
       restored AND re-verified (restored == subs, reverified >= restored).
     * E16: every fault-envelope row (trunk partition, with and without
       channel loss) detects the partition within the liveness contract,
       reports ZERO stale-green samples, and heals through the children's
       own rejoin backoff (>= 1 rejoin per row) within a bounded window.
     * E18: on both populations the N=4 fleet's verdict/detail/seq stream
       is byte-identical to the N=1 reference (verdicts-match == 1 on all
       four arms), and on the anchor-rooted population the N=4 fleet
       confines a single-switch pass to strictly fewer instances than the
       fleet size (dispatch reaches only the instances owning a dirty
       bucket).

2. Regression gate — when a previous run's artifacts are available (pass
   the directory as --prev), every key metric is diffed against its
   previous value and the run fails on > REGRESSION_TOLERANCE relative
   regression. Latency metrics (unit "ns") regress upwards; speedup
   metrics (unit "x") regress downwards. Tiny latencies are skipped as
   noise-dominated.

Usage: check_bench.py [--prev DIR] [--cur DIR]
"""

import argparse
import json
import sys
from pathlib import Path

REGRESSION_TOLERANCE = 0.25  # fail on >25% regression vs previous run
NOISE_FLOOR_NS = 200_000     # latencies under 200us are noise-dominated


def load_reports(directory):
    """Return ({experiment id -> {metric -> (value, unit)}},
    {experiment id -> error text of a run the harness marked failed})."""
    reports, failed = {}, {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        with open(path) as f:
            report = json.load(f)
        if report.get("failed"):
            failed[report["experiment"]] = report["failed"]
            continue
        metrics = {}
        for m in report.get("metrics", []):
            metrics[m["metric"]] = (float(m["value"]), m.get("unit", ""))
        reports[report["experiment"]] = metrics
    return reports, failed


def claims_e12(e12):
    failures = []
    speedup = e12.get("linear-40/speedup", (0.0, ""))[0]
    print(f"e12: linear-40 incremental speedup = {speedup:.1f}x (require >= 5)")
    if speedup < 5.0:
        failures.append(f"e12: linear-40 incremental speedup {speedup:.1f}x < 5x")
    return failures


def claims_e13(e13):
    failures = []
    key = "linear-40/subs=10000"
    speedup = e13.get(f"{key}/speedup", (0.0, ""))[0]
    subs = e13.get(f"{key}/subs", (0.0, ""))[0]
    bucket = e13.get(f"{key}/bucket", (float("inf"), ""))[0]
    evaluated = e13.get(f"{key}/evaluated", (float("inf"), ""))[0]
    print(f"e13: {key} one incremental pass was dispatched {bucket:.0f} and evaluated {evaluated:.0f} "
          f"of {subs:.0f} subs (require evaluated <= dispatched <= 10%)")
    print(f"e13: {key} exhaustive / incremental = {speedup:.1f}x (require >= 5)")
    if subs <= 0 or evaluated > bucket or bucket > subs * 0.10:
        failures.append(
            f"e13: {key} dispatched {bucket:.0f} / evaluated {evaluated:.0f} of {subs:.0f} subs "
            "(dirty dispatch is touching more than the affected bucket)")
    if speedup < 5.0:
        failures.append(f"e13: {key} exhaustive/incremental {speedup:.1f}x < 5x")
    return failures


def claims_e14(e14):
    failures = []
    key = "star-40/subs=10000"
    bucket = e14.get(f"{key}/bucket", (0.0, ""))[0]
    subs = e14.get(f"{key}/subs", (float("inf"), ""))[0]
    evaluated = e14.get(f"{key}/evaluated", (float("inf"), ""))[0]
    print(f"e14: {key} one incremental pass evaluated {evaluated:.0f} of a {bucket:.0f}-invariant "
          "bucket (require evaluated == 0 and bucket == subs)")
    if bucket != subs:
        failures.append(
            f"e14: {key} dirty bucket {bucket:.0f} is not the population {subs:.0f} "
            "(the hub event did not reach every invariant's index entry)")
    if evaluated != 0:
        failures.append(
            f"e14: {key} a verdict-neutral hub event evaluated {evaluated:.0f} invariants, want 0 "
            "(some traversal class at the hub claims headers no invariant carries there)")
    return failures


def claims_e15(e15):
    failures = []
    key = "linear-40/subs=10000"
    speedup = e15.get(f"{key}/batch-speedup", (0.0, ""))[0]
    subs = e15.get(f"{key}/subs", (0.0, ""))[0]
    restored = e15.get(f"{key}/restored", (0.0, ""))[0]
    reverified = e15.get(f"{key}/reverified", (-1.0, ""))[0]
    print(f"e15: {key} batch-vs-sequential registration speedup = {speedup:.1f}x (require >= 5)")
    print(f"e15: {key} restart restore: {restored:.0f}/{subs:.0f} restored, "
          f"{reverified:.0f} re-verified (require restored == subs, reverified >= restored)")
    if speedup < 5.0:
        failures.append(f"e15: {key} batch registration speedup {speedup:.1f}x < 5x")
    if subs <= 0 or restored != subs:
        failures.append(
            f"e15: {key} restart restored {restored:.0f} of {subs:.0f} subscriptions "
            "(persistence restore is incomplete)")
    if reverified < restored:
        failures.append(
            f"e15: {key} only {reverified:.0f} of {restored:.0f} restored subscriptions were "
            "re-verified after the restart")
    return failures


def claims_e16(e16):
    failures = []
    # Detection must beat 5x the lab's 400ms beat-miss contract; recovery
    # is randomized (jittered backoff under loss) but must stay inside the
    # sweep's own convergence deadline.
    DETECT_BOUND_NS = 2e9
    CONVERGE_BOUND_NS = 25e9
    for row in ("loss=0/part=1200ms", "loss=5/part=1200ms", "loss=5/part=2500ms"):
        key = f"placed4/{row}"
        detect = e16.get(f"{key}/detach-detect", (0.0, ""))[0]
        converge = e16.get(f"{key}/reattach-converge", (0.0, ""))[0]
        stale = e16.get(f"{key}/stale-green", (-1.0, ""))[0]
        rejoins = e16.get(f"{key}/rejoins", (0.0, ""))[0]
        print(f"e16: {key} detach-detect = {detect / 1e6:.0f}ms, reattach-converge = "
              f"{converge / 1e6:.0f}ms, stale-green = {stale:.0f}, rejoins = {rejoins:.0f}")
        if not 0 < detect < DETECT_BOUND_NS:
            failures.append(
                f"e16: {key} detach-detect {detect / 1e6:.0f}ms outside (0, {DETECT_BOUND_NS / 1e6:.0f}ms) "
                "(the beat-miss monitor is not detecting the partition)")
        if not 0 < converge < CONVERGE_BOUND_NS:
            failures.append(
                f"e16: {key} reattach-converge {converge / 1e6:.0f}ms outside "
                f"(0, {CONVERGE_BOUND_NS / 1e6:.0f}ms)")
        if stale != 0:
            failures.append(
                f"e16: {key} stale-green = {stale:.0f} (the verification plane reported green "
                "while partitioned switches were known-detached)")
        if rejoins < 1:
            failures.append(
                f"e16: {key} rejoins = {rejoins:.0f} (healing did not go through the child's "
                "rejoin backoff)")
    return failures


def claims_e18(e18):
    failures = []
    for key in [f"fatwan-4x6/{pop}/n={n}" for pop in ("reach", "mixed") for n in (1, 4)]:
        match = e18.get(f"{key}/verdicts-match", (-1.0, ""))[0]
        print(f"e18: {key} verdicts-match = {match:.0f} (require 1)")
        if match != 1.0:
            failures.append(
                f"e18: {key} verdicts-match = {match:.0f} (the fleet's merged verdict stream "
                "diverged from the N=1 reference engine)")
    key = "fatwan-4x6/reach/n=4"
    touched = e18.get(f"{key}/touched-per-pass", (float("inf"), ""))[0]
    print(f"e18: {key} touched/pass = {touched:.2f} of 4 instances (require < 4)")
    if touched >= 4.0:
        failures.append(
            f"e18: {key} single-switch passes touched {touched:.2f} of 4 instances "
            "(placement is not confining dispatch to owning instances)")
    return failures


CLAIMS = {
    "e12": claims_e12, "e13": claims_e13, "e14": claims_e14,
    "e15": claims_e15, "e16": claims_e16, "e18": claims_e18,
}


def check_claims(cur, failed):
    failures = [f"{exp}: the harness marked the run failed: {err}" for exp, err in sorted(failed.items())]
    for exp, claims in CLAIMS.items():
        if exp in failed:
            continue
        if exp not in cur:
            print(f"{exp}: NOT RUN (no BENCH_{exp.upper()}.json in --cur); its claims are unchecked")
            continue
        failures += claims(cur[exp])
    return failures


def check_regressions(prev, cur):
    failures = []
    compared = 0
    for exp, cur_metrics in sorted(cur.items()):
        if exp == "e16":
            # Envelope latencies are dominated by jittered backoff and
            # randomized loss timing; they are gated by the absolute
            # bounds in check_claims, not run-to-run diffs.
            print("e16: envelope metrics gated by absolute bounds; skipping regression diff")
            continue
        prev_metrics = prev.get(exp)
        if not prev_metrics:
            print(f"{exp}: no previous artifact, skipping regression diff")
            continue
        for metric, (cur_val, unit) in sorted(cur_metrics.items()):
            if metric not in prev_metrics:
                continue
            prev_val = prev_metrics[metric][0]
            if prev_val <= 0 or cur_val <= 0:
                continue
            if unit == "ns":
                if max(prev_val, cur_val) < NOISE_FLOOR_NS:
                    continue
                ratio = cur_val / prev_val
                regressed = ratio > 1.0 + REGRESSION_TOLERANCE
            elif unit == "x":
                ratio = cur_val / prev_val
                regressed = ratio < 1.0 - REGRESSION_TOLERANCE
            else:
                continue
            compared += 1
            if regressed:
                failures.append(
                    f"{exp}: {metric} regressed {prev_val:.0f} -> {cur_val:.0f} {unit} "
                    f"({(ratio - 1.0) * 100:+.0f}%)")
    print(f"regression gate: compared {compared} metrics against the previous run")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cur", default=".", help="directory with this run's BENCH_*.json")
    ap.add_argument("--prev", default="", help="directory with the previous run's BENCH_*.json")
    args = ap.parse_args()

    cur, failed = load_reports(args.cur)
    if not cur and not failed:
        print(f"no BENCH_*.json found in {args.cur}", file=sys.stderr)
        return 1

    failures = check_claims(cur, failed)
    if args.prev and Path(args.prev).is_dir():
        failures += check_regressions(load_reports(args.prev)[0], cur)
    elif args.prev:
        print(f"previous artifact dir {args.prev} absent; skipping regression diff")

    if failures:
        print("\nBENCH GATE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
