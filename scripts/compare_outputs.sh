#!/usr/bin/env bash
# Byte-identity check between two builds of this repository: runs every
# paper figure, table and ablation bench, the degradation table's chaos
# and codec modes, the simulated fleet tables and the deterministic
# examples from each build, and compares their stdout.
#
#   scripts/compare_outputs.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory (holding bench/ and
# examples/). Prints one md5 pair per output and exits 1 when any output,
# or any exit status, differs. The outputs of a differing run are kept
# for diffing; the directory is printed at the end.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$1
change=$2
for dir in "$parent" "$change"; do
  if [ ! -d "$dir/bench" ] || [ ! -d "$dir/examples" ]; then
    echo "$0: $dir is not a build directory (no bench/ or examples/)" >&2
    exit 2
  fi
done

# One output per line: a path relative to the build directory, then its
# arguments.
runs=()
for bench in fig1_concurrent_jobs fig2_concurrent_queries \
    fig2_event_driven fig3_wan_fixed_profiles fig4_wan_decisions \
    fig5_b1_convergence fig6_lan_conf21 fig7_lan_conf22 \
    fig8_profile_switching fig9_enhanced_model_based \
    table1_wan_normalized table2_model_based table3_degradation \
    ablation_averaging ablation_dither ablation_model_samples \
    ablation_phase_criterion ablation_rls linear_schemes; do
  runs+=("bench/bench_$bench")
done
runs+=("bench/bench_table3_degradation --fault-plan=burst"
       "bench/bench_table3_degradation --codec=binary"
       "bench/bench_fleet_tenancy --skip-live"
       "examples/quickstart"
       "examples/adaptive_vs_static"
       "examples/model_based_tuning"
       "examples/long_running_tracking"
       "examples/profile_capture")

out=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")
differ=0
for run in "${runs[@]}"; do
  name=$(echo "$run" | tr ' /=' '__-' | sed 's/^[a-z]*_//')
  sums=()
  for side in parent change; do
    if [ $side = parent ]; then build=$parent; else build=$change; fi
    file=$out/$name.$side.txt
    # Word splitting of $run is intended: binary, then its arguments.
    # shellcheck disable=SC2086
    "$build"/$run > "$file" 2> /dev/null
    echo "exit status $?" >> "$file"
    sums+=("$(md5sum < "$file" | cut -d' ' -f1)")
  done
  if [ "${sums[0]}" = "${sums[1]}" ]; then
    verdict=identical
    rm -f "$out/$name.parent.txt" "$out/$name.change.txt"
  else
    verdict=DIFFERENT
    differ=1
  fi
  printf '%s  %s  %-9s  %s\n' "${sums[0]}" "${sums[1]}" "$verdict" "$run"
done

if [ $differ -ne 0 ]; then
  echo "outputs differ; both sides of each differing run are in $out"
  exit 1
fi
rmdir "$out"
echo "all ${#runs[@]} outputs identical"
