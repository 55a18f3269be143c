#!/usr/bin/env sh
# Prints the deterministic behaviour of a build in a fixed order, so a
# refactor's "same behaviour" check is one diff of two outputs:
#
#   tools/same_behaviour.sh build > after.txt
#   tools/same_behaviour.sh ../parent/build > before.txt
#   diff before.txt after.txt
#
# BUILD_DIR must hold built tools/ntcheck and tools/ntbench. The output is:
#   - ntcheck --no-shrink for the CI bands (64 seeds each, 4 jobs): fuzz 1+,
#     restart 1000+, fuzz 10000+, bullshark 2000+, shards 3100+ and
#     narwhal-hs 5000+;
#   - ntcheck over the regression corpus;
#   - ntcheck --bug NAME --seeds 64 --no-shrink for every seeded mutation,
#     one run per name in ntcheck's usage line (the kSeededBugRows table);
#   - ntbench --csv rows for all six systems at n=4 with 0 and 1 fault
#     (10 simulated seconds);
#   - ntbench --csv rows for Bullshark with 4 execution lanes and Tusk with
#     2 workers on dedicated machines.
# Every section ends with the command's exit status, so a new failure shows
# in the diff too. Takes about ten seconds on a 4-core machine.
#
# The mutation names come from each build's own usage line, so a build from
# before the table (which spelled Bullshark's mutation
# skip_bullshark_support_votes on the command line) runs its own spelling;
# against such a build, that one section header differs by the name alone.
set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)" || exit 2
# The corpus is read from this checkout; paths are printed relative to it so
# two builds' outputs differ only where their behaviour does.
cd "$(dirname "$0")/.." || exit 2
ntcheck="$build/tools/ntcheck"
ntbench="$build/tools/ntbench"
for bin in "$ntcheck" "$ntbench"; do
  if [ ! -x "$bin" ]; then
    echo "$0: $bin is not built" >&2
    exit 2
  fi
done

run() {
  bin="$1"
  shift
  echo "== $(basename "$bin") $*"
  "$bin" "$@"
  echo "== exit $?"
}

run "$ntcheck" --seeds 64 --start 1 --jobs 4 --no-shrink
run "$ntcheck" --seeds 64 --start 1000 --jobs 4 --no-shrink
run "$ntcheck" --seeds 64 --start 10000 --jobs 4 --no-shrink
run "$ntcheck" --seeds 64 --start 2000 --system bullshark --jobs 4 --no-shrink
run "$ntcheck" --seeds 64 --start 3100 --shards 4 --jobs 4 --no-shrink
run "$ntcheck" --seeds 64 --start 5000 --system narwhal-hs --jobs 4 --no-shrink
run "$ntcheck" --corpus tests/seeds/regressions.txt
for bug in $("$ntcheck" --help | sed -n 's/.*\[--bug \([^]]*\)\].*/\1/p' | tr '|' ' '); do
  run "$ntcheck" --bug "$bug" --seeds 64 --no-shrink
done

for system in baseline-hs batched-hs narwhal-hs tusk dag-rider bullshark; do
  for faults in 0 1; do
    run "$ntbench" --system "$system" --nodes 4 --faults "$faults" --duration 10 --csv
  done
done
run "$ntbench" --system bullshark --nodes 4 --shards 4 --duration 10 --csv
run "$ntbench" --system tusk --nodes 4 --workers 2 --dedicated --duration 10 --csv
