#!/usr/bin/env bash
# Lists every global text symbol of libaiwc that no shipped or bench
# binary keeps, and fails if one of them is not in the allowlist.
#
#   scripts/unreached_symbols.sh <build-dir> <perfbench-build-dir>
#
# Both trees must be built without inlining and with section garbage
# collection, so a function survives in a binary exactly when the binary
# reaches it:
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug
#          "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
#          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
#   cmake -S . -B build-gc "${flags[@]}"
#   cmake --build build-gc --target aiwc-trace <examples> <benches>
#   cmake -S perfbench -B perfbench-gc "${flags[@]}"
#   cmake --build perfbench-gc
#
# The binaries are aiwc-trace, the ten examples and perfbench (the
# shipped ones) and the six bench/ programs. The allowlist
# (scripts/unreached_symbols.allow) names, one demangled signature a
# line, the functions only tests reach that stay because a test uses
# them as the oracle or harness of a kept path.
#
# Exit status: 0 when every unreached symbol is allowed, 1 when one is
# not (each is printed), 2 on a usage error or a missing binary.

set -euo pipefail
export LC_ALL=C

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <build-dir> <perfbench-build-dir>" >&2
    exit 2
fi
build=$1
perfbench=$2
allow="$(dirname "$0")/unreached_symbols.allow"

examples=(quickstart capacity_planning colocation_advisor_demo user_report
          telemetry_explorer workflow_trace real_data_import stream_ingest
          svc_demo scenario_sweep)
benches=(bench_figures bench_dataset_scale bench_stream_ingest
         bench_opportunity_ablation bench_parallel_scaling
         bench_scenario_sweep)

lib="$build/src/libaiwc.a"
binaries=("$build/tools/aiwc-trace/aiwc-trace" "$perfbench/perfbench")
for name in "${examples[@]}"; do binaries+=("$build/examples/$name"); done
for name in "${benches[@]}"; do binaries+=("$build/bench/$name"); done

for file in "$lib" "$allow" "${binaries[@]}"; do
    if [[ ! -f $file ]]; then
        echo "unreached_symbols: missing $file" >&2
        exit 2
    fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names: a constructor's complete-object and base-object
# variants are two symbols of one function, which a binary may keep
# only one of.
nm --defined-only "$lib" 2>/dev/null |
    awk '$2 == "T" { print $3 }' | c++filt | sort -u >"$work/lib"
for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk '{ print $3 }'
done | c++filt | sort -u >"$work/kept"

comm -23 "$work/lib" "$work/kept" >"$work/unreached"
{ grep -v '^[[:space:]]*\(#\|$\)' "$allow" || true; } | sort -u >"$work/allow"
comm -23 "$work/unreached" "$work/allow" >"$work/new"

total=$(wc -l <"$work/lib")
unreached=$(wc -l <"$work/unreached")
echo "unreached_symbols: $unreached of $total libaiwc text symbols" \
     "reached by no binary"
if [[ -s $work/new ]]; then
    echo "unreached_symbols: not in $allow:" >&2
    sed 's/^/  /' "$work/new" >&2
    exit 1
fi
# An allowlist entry that a binary now reaches, or that no longer
# exists, is stale; report it so the list only ever names live oracles.
comm -13 "$work/unreached" "$work/allow" | sed 's/^/stale allowlist entry: /'
exit 0
