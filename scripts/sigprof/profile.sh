#!/usr/bin/env bash
# Samples one command with the SIGPROF sampler and prints self time per
# symbol for each process it ran (docs/PROFILING.md).
#
# Usage:
#   scripts/sigprof/profile.sh <command> [args...]
#
# The sampler is built into build-sigprof/, and the samples go there as
# build-sigprof/samples.<pid>. Run the program itself, not a launcher
# (run.py, a shell script): every process that loads the sampler is
# sampled, and each one's report is printed.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/../../build-sigprof"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/libsigprof.so" "$here/sampler.c"
rm -f "$out"/samples.*
status=0
SIGPROF_OUT="$out/samples" LD_PRELOAD="$out/libsigprof.so" "$@" || status=$?
for f in "$out"/samples.*; do
  echo "== $f"
  python3 "$here/report.py" "$f"
done
exit "$status"
