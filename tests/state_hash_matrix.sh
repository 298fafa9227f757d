#!/usr/bin/env bash
# Prints one "config: state hash" line per seeded hadfl_run configuration.
#
# Every line is covered by a determinism contract (sim == rt == net within
# a build; fleet exact mode == run_hadfl, pinned in tests/test_fleet.cpp;
# fleet cohort mode repeats for a seed), so running this against two builds
# and diffing the output checks that a change kept every backend's seeded
# result:
#
#   tests/state_hash_matrix.sh build-parent > parent.txt
#   tests/state_hash_matrix.sh build        > change.txt
#   diff parent.txt change.txt
#
# A run that exits non-zero prints "config: FAILED (exit N)" and the script
# exits 1 after the last config. The whole matrix takes a few seconds in a
# Release build (about 1.5 s on a 4-vCPU VM).
set -uo pipefail

build=${1:?usage: $0 BUILD_DIR}
run="$build/src/tools/hadfl_run"
if [[ ! -x "$run" ]]; then
  echo "no hadfl_run under $build/src/tools" >&2
  exit 2
fi

status=0
hash_of() {  # hash_of NAME FLAGS...
  local name=$1 out code
  shift
  out=$("$run" "$@" 2>/dev/null)
  code=$?
  if [[ $code -ne 0 ]]; then
    echo "$name: FAILED (exit $code)"
    status=1
    return
  fi
  echo "$name: $(awk '/^state hash:/ {print $3}' <<<"$out")"
}

base=(--scheme=hadfl --model=mlp --epochs=10 --scale=0.05 --seed=11)
flat=(--ratio=2,2,1,1)
grouped=(--ratio=2,2,1,1,2,1 --group-size=3)
adaptive=(--ratio=2,2,1,1 --adaptive --adaptive-tune=budgets,codec
          --adaptive-warmup=1 --drift=1:3:4)

for backend in sim rt net; do
  hash_of "$backend flat" "${base[@]}" "${flat[@]}" --backend=$backend
  hash_of "$backend grouped" "${base[@]}" "${grouped[@]}" \
    --backend=$backend
  hash_of "$backend adaptive+drift int8" "${base[@]}" "${adaptive[@]}" \
    --sync-codec=int8 --backend=$backend
  hash_of "$backend adaptive+drift topk" "${base[@]}" "${adaptive[@]}" \
    --sync-codec=topk --backend=$backend
done
hash_of "rt die" "${base[@]}" --ratio=2,2,1,1 --np=4 --die=1:1:2 \
  --backend=rt

fleet=(--fleet --seed=11)
cohort=(--fleet-devices=10000 --fleet-cohort=8 --fleet-rounds=3 --epochs=64)
hash_of "fleet exact K=8" "${fleet[@]}" --fleet-devices=8 --epochs=3
hash_of "fleet cohort K=10k gaussian-quartile" "${fleet[@]}" "${cohort[@]}"
hash_of "fleet cohort K=10k top-k" "${fleet[@]}" "${cohort[@]}" \
  --policy=top-k
hash_of "fleet cohort K=10k grouped" "${fleet[@]}" "${cohort[@]}" \
  --group-size=2500
hash_of "fleet cohort K=10k momentum+churn" "${fleet[@]}" "${cohort[@]}" \
  --fleet-momentum=0.9 --fleet-churn=0.02

exit $status
