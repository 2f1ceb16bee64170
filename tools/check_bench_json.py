#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by the bench harnesses.

Run per-commit by ci.sh (and per-night by ci-nightly.sh) after the bench
gates, so a bench that silently starts emitting NaNs, drops a field, or
scrambles its load axis fails the lane even when its own --check passed.

Checks, stdlib only:
  * the file parses as JSON;
  * every number anywhere in the document is finite (no NaN/Inf — the
    emitters print raw doubles, so a NaN in a measurement would otherwise
    propagate into dashboards unnoticed);
  * per known artifact, the required fields exist with sane types;
  * axes that represent a sweep are strictly monotone (the serving bench's
    offered-load axis; the overlap bench's world-size axis per mode).

Usage: check_bench_json.py FILE [FILE...]
       check_bench_json.py --dir BUILD_DIR   # validates BUILD_DIR/BENCH_*.json
Exit 0 when every file validates; 1 otherwise. Unknown BENCH_*.json names
get the generic checks only (parse + finite + non-empty).
"""

import glob
import json
import math
import os
import sys


def fail(errors, path, message):
    errors.append(f"{path}: {message}")

def check_finite(node, where, path, errors):
    """Recursively reject NaN/Inf anywhere in the document."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            fail(errors, path, f"non-finite number at {where}: {node!r}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            check_finite(item, f"{where}[{i}]", path, errors)
    elif isinstance(node, dict):
        for key, value in node.items():
            check_finite(value, f"{where}.{key}", path, errors)

def require(obj, fields, where, path, errors):
    ok = True
    for name, kind in fields.items():
        if name not in obj:
            fail(errors, path, f"{where} is missing required field '{name}'")
            ok = False
        elif not isinstance(obj[name], kind):
            fail(errors, path,
                 f"{where}.{name} has type {type(obj[name]).__name__}, "
                 f"expected {kind}")
            ok = False
    return ok

NUM = (int, float)
LOOP_FIELDS = {"throughput_rps": NUM, "completed": int, "rejected": int,
               "mean_featurize_s": NUM, "cache_hit_rate": NUM,
               "p50_s": NUM, "p99_s": NUM}

def check_serving(doc, path, errors):
    if not isinstance(doc, dict):
        return fail(errors, path, "expected a JSON object")
    require(doc, {"seed": int, "slo": dict, "sweep": list}, "document",
            path, errors)
    for section in ("serial", "batched", "cache_cold", "cache_warm"):
        if isinstance(doc.get(section), dict):
            require(doc[section], LOOP_FIELDS, section, path, errors)
        else:
            fail(errors, path, f"missing closed-loop section '{section}'")
    if isinstance(doc.get("slo"), dict):
        require(doc["slo"], {"p99_slo_s": NUM, "pinned_load_frac": NUM},
                "slo", path, errors)
    sweep = doc.get("sweep", [])
    if not sweep:
        fail(errors, path, "sweep is empty")
    prev = None
    for i, row in enumerate(sweep):
        if not isinstance(row, dict):
            fail(errors, path, f"sweep[{i}] is not an object")
            continue
        require(row, {"offered_frac": NUM, "offered_rps": NUM,
                      "throughput_rps": NUM, "p50_s": NUM, "p99_s": NUM,
                      "reject_rate": NUM}, f"sweep[{i}]", path, errors)
        load = row.get("offered_rps")
        if isinstance(load, NUM) and not isinstance(load, bool):
            if prev is not None and load <= prev:
                fail(errors, path,
                     f"sweep load axis not strictly increasing at [{i}]: "
                     f"{load} after {prev}")
            prev = load

def check_row_list(doc, path, errors, fields, what):
    if not isinstance(doc, list) or not doc:
        return fail(errors, path, f"expected a non-empty array of {what}")
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            fail(errors, path, f"[{i}] is not an object")
            continue
        require(row, fields, f"[{i}]", path, errors)

def check_kernels(doc, path, errors):
    check_row_list(doc, path, errors,
                   {"kernel": str, "simd": str, "threads": int,
                    "ns_per_iter": NUM, "speedup_vs_1t": NUM,
                    "bitwise_match": bool}, "kernel rows")
    if not isinstance(doc, list):
        return
    # The sweep must cover the forced-scalar tier (the differential-test
    # reference) — a build where SF_SIMD=scalar stopped being exercised
    # should fail loudly, not fade out of the artifact.
    tiers = {row.get("simd") for row in doc if isinstance(row, dict)}
    if tiers and "scalar" not in tiers:
        fail(errors, path, "kernel sweep has no forced-scalar tier rows")

def check_overlap(doc, path, errors):
    check_row_list(doc, path, errors,
                   {"world_size": int, "mode": str, "mean_step_s": NUM,
                    "bitwise_match": bool}, "overlap rows")
    if not isinstance(doc, list):
        return
    # World-size axis must be monotone non-decreasing within each mode.
    prev = {}
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            continue
        mode, ws = row.get("mode"), row.get("world_size")
        if isinstance(ws, int) and mode in prev and ws < prev[mode]:
            fail(errors, path,
                 f"[{i}] world_size axis decreases for mode '{mode}'")
        if isinstance(ws, int):
            prev[mode] = ws

ELASTIC_COMMON = {"scenario": str, "seed": int, "ws_start": int,
                  "ws_end": int, "steps": int, "lockstep": bool}
# The figures each bench_elastic scenario measures. A row must carry
# exactly these on top of the common fields: a figure its scenario never
# measured would be a placeholder, not a measurement.
ELASTIC_MEASURED = {
    "steady": {"step_s": NUM},
    "kill_shrink": {"steps_lost": int, "ranks_lost": int, "pre_step_s": NUM,
                    "post_step_s": NUM, "recovery_s": NUM, "dip": NUM},
    "shrink_grow": {"post_step_s": NUM, "recovery_s": NUM},
    "chaos": {"steps_lost": int, "ranks_lost": int, "recovery_s": NUM,
              "bitwise_replay": bool},
}

def check_elastic(doc, path, errors):
    check_row_list(doc, path, errors, ELASTIC_COMMON, "elastic rows")
    if not isinstance(doc, list):
        return
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            continue
        scenario = row.get("scenario")
        measured = ELASTIC_MEASURED.get(scenario)
        if measured is None:
            fail(errors, path, f"[{i}] has unknown scenario {scenario!r}")
            continue
        where = f"[{i}] ({scenario})"
        require(row, measured, where, path, errors)
        for name in sorted(set(row) - set(ELASTIC_COMMON) - set(measured)):
            fail(errors, path,
                 f"{where} carries '{name}', which its scenario does not "
                 f"measure")

def check_chaos_matrix(doc, path, errors):
    if not isinstance(doc, dict):
        return fail(errors, path, "expected a JSON object")
    require(doc, {"base_seed": int, "seeds": int, "legs_total": int,
                  "legs_failed": int, "legs": list}, "document", path,
            errors)
    legs = doc.get("legs", [])
    check_row_list(legs, path, errors,
                   {"leg": str, "seed": int, "ok": bool}, "chaos legs")
    if isinstance(doc.get("legs_total"), int) and len(legs) != doc["legs_total"]:
        fail(errors, path,
             f"legs_total={doc['legs_total']} but {len(legs)} legs present")

def check_memplan(doc, path, errors):
    if not isinstance(doc, dict):
        return fail(errors, path, "expected a JSON object")
    require(doc, {"seed": int, "measured_steps": int, "eager": dict,
                  "planned": dict, "bitwise_match": bool, "jitter": dict},
            "document", path, errors)
    times = {"mean_step_s": NUM, "p50_s": NUM, "p99_s": NUM}
    if isinstance(doc.get("eager"), dict):
        require(doc["eager"], {**times, "allocs_per_step": int,
                               "total_allocs": int,
                               "transient_peak_bytes": int},
                "eager", path, errors)
    planned = doc.get("planned")
    if isinstance(planned, dict):
        require(planned, {**times, "steady_state_allocs": int,
                          "arena_bytes": int, "eager_peak_bytes": int,
                          "peak_envelope_bytes": int, "planned_buffers": int,
                          "escaping_buffers": int, "captures": int,
                          "clean_replays": int, "divergences": int},
                "planned", path, errors)
        # Re-assert the bench's own headline gates so a regressed emitter
        # can't ship a green-looking artifact.
        if planned.get("steady_state_allocs") != 0:
            fail(errors, path,
                 f"planned.steady_state_allocs = "
                 f"{planned.get('steady_state_allocs')!r}, expected 0")
        arena = planned.get("arena_bytes")
        envelope = planned.get("peak_envelope_bytes")
        if isinstance(arena, int) and isinstance(envelope, int) \
                and arena > envelope:
            fail(errors, path,
                 f"planned.arena_bytes {arena} exceeds "
                 f"peak_envelope_bytes {envelope}")
        if planned.get("divergences") != 0:
            fail(errors, path,
                 f"planned.divergences = {planned.get('divergences')!r} on "
                 f"a fixed-shape workload, expected 0")
    if doc.get("bitwise_match") is not True:
        fail(errors, path, "bitwise_match is not true")
    if isinstance(doc.get("jitter"), dict):
        require(doc["jitter"], {"spin_ns_per_alloc": int,
                                "eager_p99_s": NUM, "planned_p99_s": NUM},
                "jitter", path, errors)

def check_dap_real(doc, path, errors):
    if not isinstance(doc, dict):
        return fail(errors, path, "expected a JSON object")
    require(doc, {"seed": int, "measured_steps": int,
                  "hardware_threads": int, "config": dict, "baseline": dict,
                  "sweep": list}, "document", path, errors)
    if isinstance(doc.get("config"), dict):
        require(doc["config"], {"crop_len": int, "msa_rows": int,
                                "evoformer_blocks": int,
                                "gradient_checkpointing": bool},
                "config", path, errors)
    if isinstance(doc.get("baseline"), dict):
        require(doc["baseline"], {"mean_step_s": NUM, "min_step_s": NUM},
                "baseline", path, errors)
    sweep = doc.get("sweep", [])
    check_row_list(sweep, path, errors,
                   {"world_size": int, "mean_step_s": NUM, "min_step_s": NUM,
                    "bitwise_match": bool, "overlap_fraction": NUM,
                    "async_exchanges": int, "comm_bytes": int,
                    "collectives": int}, "dap sweep rows")
    prev = None
    for i, row in enumerate(sweep if isinstance(sweep, list) else []):
        if not isinstance(row, dict):
            continue
        ws = row.get("world_size")
        if isinstance(ws, int) and not isinstance(ws, bool):
            if prev is not None and ws <= prev:
                fail(errors, path,
                     f"sweep world_size axis not strictly increasing at "
                     f"[{i}]: {ws} after {prev}")
            prev = ws
        # Re-assert the bench's own unconditional gate: every leg trains
        # bitwise-equal parameters to the unsharded baseline.
        if row.get("bitwise_match") is not True:
            fail(errors, path, f"sweep[{i}].bitwise_match is not true")
        frac = row.get("overlap_fraction")
        if isinstance(frac, NUM) and not isinstance(frac, bool) \
                and not (0.0 <= frac <= 1.0):
            fail(errors, path,
                 f"sweep[{i}].overlap_fraction {frac} outside [0, 1]")

CHECKERS = {
    "BENCH_serving.json": check_serving,
    "BENCH_memplan.json": check_memplan,
    "BENCH_kernels.json": check_kernels,
    "BENCH_overlap.json": check_overlap,
    "BENCH_elastic.json": check_elastic,
    "BENCH_chaos_matrix.json": check_chaos_matrix,
    "BENCH_dap_real.json": check_dap_real,
}

def check_file(path, errors):
    before = len(errors)
    try:
        with open(path, "r", encoding="utf-8") as f:
            # parse_constant rejects the non-standard NaN/Infinity literals
            # Python's json would otherwise happily accept.
            doc = json.load(f, parse_constant=lambda c: float("nan"))
    except (OSError, ValueError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return False
    check_finite(doc, "$", path, errors)
    checker = CHECKERS.get(os.path.basename(path))
    if checker is not None:
        checker(doc, path, errors)
    elif doc in ({}, []):
        fail(errors, path, "document is empty")
    return len(errors) == before

def main(argv):
    if len(argv) >= 3 and argv[1] == "--dir":
        files = sorted(glob.glob(os.path.join(argv[2], "BENCH_*.json")))
        if not files:
            print(f"check_bench_json: no BENCH_*.json under {argv[2]}",
                  file=sys.stderr)
            return 1
    elif len(argv) >= 2:
        files = argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    for path in files:
        ok = check_file(path, errors)
        print(f"{'ok  ' if ok else 'FAIL'} {path}")
    for e in errors:
        print(f"check_bench_json: {e}", file=sys.stderr)
    return 1 if errors else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
