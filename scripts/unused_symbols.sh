#!/usr/bin/env bash
# List the saiyan:: functions that libsaiyan.a defines but that no
# non-test binary keeps: saiyand, saiyand-control, the figure drivers,
# the examples, the fuzz replays and gwbench.
#
# Everything is built unoptimized with one section per function and
# linked with --gc-sections, so a binary keeps exactly the functions it
# can reach. Not a gate: test seams (simd::set_isa, obs::reset_for_test,
# the complex correlator's test-only models, ...) are listed by design.
#
# Usage: scripts/unused_symbols.sh [build-dir]   (default: build-unused)
#        JOBS=N sets the build parallelism (default 2).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build-unused}
jobs=${JOBS:-2}
flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
       -DSAIYAN_BUILD_TESTS=OFF -DSAIYAN_BUILD_MICROBENCH=OFF)

cmake -S "$root" -B "$out/main" "${flags[@]}" >/dev/null
cmake --build "$out/main" -j "$jobs" >/dev/null
cmake -S "$root/gwbench" -B "$out/gwbench" "${flags[@]}" >/dev/null
cmake --build "$out/gwbench" -j "$jobs" --target gwbench >/dev/null

# Mangled names of the functions (global, weak or file-local) in the
# saiyan namespace that an object or binary defines.
saiyan_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN(K)?6saiyan/ {print $3}' | sort -u
}

binaries=$(find "$out/main" -maxdepth 1 -type f -perm -u+x)
comm -23 <(saiyan_functions "$out/main/libsaiyan.a") \
         <(saiyan_functions $binaries "$out/gwbench/gwbench") |
  c++filt | sed "s/, 18446744073709551615ul//g" | sort
