#!/usr/bin/env bash
# End-to-end benchmark (bench/e2e/README.md).  Run from the repository root.
#
#   bash bench/e2e/run.sh [--seed S] [--seconds N] [--trace 0|1]
#       every workload once, one process each; exits 1 if any check failed
#   bash bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of standard output is the JSON result
#   bash bench/e2e/run.sh --collect FILE [--runs N] [--seconds N] [--trace 0|1]
#       N runs of every workload on seeds 1..N, appended to FILE as JSON lines
#   bash bench/e2e/run.sh --compare A B
#       medians, quartiles and verdicts of two collected sets
#   bash bench/e2e/run.sh --smoke
#       every workload on small inputs (also run by `dune runtest`)
#
# Detailed results and Chrome traces are written under bench/e2e/out/.
set -euo pipefail

workloads="table1_exact table1_scalable serve_mixed layout_physics"
workload="" seed=1 seconds=20 trace=0 collect="" runs=10 compare=() smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --collect) collect=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

command -v dune > /dev/null 2>&1 || eval "$(opam env 2> /dev/null)"
# Build inside this checkout only: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe 1>&2
exe=_build/default/bench/e2e/e2e.exe
mkdir -p bench/e2e/out

one() { # workload seed trace
  local base=bench/e2e/out/$1-s$2-t$3
  local extra=()
  if [ "$3" = 1 ]; then extra=(--trace-out "$base.trace.json"); fi
  "$exe" run --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
    --out "$base.json" "${extra[@]}"
}

if [ "$smoke" = 1 ]; then
  exec "$exe" smoke --spec BENCHMARK.json
elif [ ${#compare[@]} -eq 2 ]; then
  exec "$exe" compare "${compare[0]}" "${compare[1]}" --spec BENCHMARK.json
elif [ -n "$workload" ]; then
  one "$workload" "$seed" "$trace"
elif [ -n "$collect" ]; then
  for s in $(seq 1 "$runs"); do
    for w in $workloads; do
      line=$(one "$w" "$s" "$trace" | tail -n 1)
      echo "{\"workload\":\"$w\",\"seed\":$s,\"result\":$line}" >> "$collect"
    done
  done
else
  status=0
  for w in $workloads; do
    one "$w" "$seed" "$trace" || status=1
  done
  exit $status
fi
