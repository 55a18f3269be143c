#!/usr/bin/env sh
# Build ntlint (if needed) and lint the tree. Any extra arguments are passed
# straight to the tool, e.g.:
#   tools/run_lint.sh                  # lint src/, summary only
#   tools/run_lint.sh --verbose        # also echo suppressed findings
#   tools/run_lint.sh --strict-allows  # stale allow annotations fail (CI mode)
#   tools/run_lint.sh src/narwhal      # lint one subtree
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake --preset default -S "$repo" > /dev/null
fi
cmake --build "$build" --target ntlint -j "$(nproc)" > /dev/null

paths=""
flags=""
for arg in "$@"; do
  case "$arg" in
    -*) flags="$flags $arg" ;;
    *) paths="$paths $repo/$arg" ;;
  esac
done
if [ -z "$paths" ]; then
  paths="$repo/src"
fi

# shellcheck disable=SC2086  # word splitting is intended for the arg lists
exec "$build/tools/ntlint" $flags $paths
