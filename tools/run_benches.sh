#!/bin/sh
# Runs the JSON-emitting benches and validates the BENCH_*.json trajectory
# files they produce (schema in bench/bench_common.hpp).
#
# Usage:
#   tools/run_benches.sh [bench-binary ...]
#
# With no arguments the default build tree's binaries are used.  Set
# CORBAFT_BENCH_SMOKE=1 for the reduced smoke workload (the `bench-smoke`
# CMake target and the `bench_smoke` ctest do this).  JSON files are written
# into the current working directory.
set -eu

if [ "$#" -eq 0 ]; then
  root=$(cd "$(dirname "$0")/.." && pwd)
  set -- "$root/build/bench/table1_proxy_overhead" \
         "$root/build/bench/micro_checkpoint" \
         "$root/build/bench/micro_orb" \
         "$root/build/bench/micro_events" \
         "$root/build/bench/micro_trace" \
         "$root/build/bench/micro_ckptstore"
fi

for bin in "$@"; do
  if [ ! -x "$bin" ]; then
    echo "run_benches.sh: missing bench binary $bin (build it first)" >&2
    exit 1
  fi
  echo "== $bin"
  "$bin"
done

# Schema check on the trajectory files these benches emit (other benches
# write their own BENCH_*.json with older formats; those are not validated
# here).  Each file must name its bench, carry schema_version 1, contain at
# least one row, and embed the run's metrics snapshot (schema documented in
# src/obs/metrics.hpp: a "metrics" object whose own "metrics" array carries
# counter/gauge/histogram entries).
status=0
for json in BENCH_table1.json BENCH_checkpoint.json BENCH_multiplex.json \
            BENCH_session.json BENCH_reactor.json BENCH_events.json \
            BENCH_trace.json BENCH_ckptstore.json; do
  if [ ! -e "$json" ]; then
    echo "run_benches.sh: expected $json was not produced" >&2
    status=1
    continue
  fi
  for needle in '"bench": ' '"schema_version": 1' '"rows": [' \
                '"metrics": {"schema_version": 1, "metrics": [' \
                '"kind": "counter"' '"kind": "histogram"' \
                '"bounds": [' '"buckets": ['; do
    if ! grep -qF "$needle" "$json"; then
      echo "run_benches.sh: $json lacks $needle" >&2
      status=1
    fi
  done
  if ! grep -qE '^  \{' "$json"; then
    echo "run_benches.sh: $json has no rows" >&2
    status=1
  fi
done

# The multiplex sweep also carries the flight-recorder overhead point: one
# single-client row with the recorder on and one with it forced off.
for needle in '"mode": "recorder_on"' '"mode": "recorder_off"'; do
  if [ -e BENCH_multiplex.json ] && ! grep -qF "$needle" BENCH_multiplex.json; then
    echo "run_benches.sh: BENCH_multiplex.json lacks $needle" >&2
    status=1
  fi
done

# The session sweep must carry the resume-vs-recovery comparison and the
# retransmit-buffer depth curve.
for needle in '"mode": "resume"' '"mode": "recovery"' \
              '"mode": "retransmit_buffer"'; do
  if [ -e BENCH_session.json ] && ! grep -qF "$needle" BENCH_session.json; then
    echo "run_benches.sh: BENCH_session.json lacks $needle" >&2
    status=1
  fi
done

# The connections sweep must carry the reactor rows (the only server
# receive path).
for needle in '"mode": "reactor"'; do
  if [ -e BENCH_reactor.json ] && ! grep -qF "$needle" BENCH_reactor.json; then
    echo "run_benches.sh: BENCH_reactor.json lacks $needle" >&2
    status=1
  fi
done

# The checkpoint-store sweep must carry the single-servant baseline, the
# sharded points, and all three fsync modes.
for needle in '"mode": "single"' '"mode": "sharded"' '"mode": "off"' \
              '"mode": "data"' '"mode": "full"' '"section": "shard_sweep"' \
              '"section": "fsync_modes"'; do
  if [ -e BENCH_ckptstore.json ] && ! grep -qF "$needle" BENCH_ckptstore.json; then
    echo "run_benches.sh: BENCH_ckptstore.json lacks $needle" >&2
    status=1
  fi
done

# The span-export sweep must carry the tracing-off overhead row (the bench
# binary itself asserts it is ~zero) and the sampled points.
for needle in '"mode": "off"' '"mode": "sampled"' '"sample_n": 1' \
              '"sample_n": 8'; do
  if [ -e BENCH_trace.json ] && ! grep -qF "$needle" BENCH_trace.json; then
    echo "run_benches.sh: BENCH_trace.json lacks $needle" >&2
    status=1
  fi
done

# The event-channel sweep must exercise both overflow policies.
for needle in '"mode": "drop_oldest"' '"mode": "coalesce_by_key"'; do
  if [ -e BENCH_events.json ] && ! grep -qF "$needle" BENCH_events.json; then
    echo "run_benches.sh: BENCH_events.json lacks $needle" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "bench JSON schema: ok"
exit "$status"
