#!/usr/bin/env bash
# Byte-compares what every bench and example writes in two build trees.
#
# Usage: tools/cmp_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Runs every executable directly under bench/ and examples/ of both trees
# with no arguments, each in its own scratch directory that is also its
# working directory and its GRADS_BENCH_OUTPUT_DIR. The scratch path is
# replaced by <out> in stdout, stderr and every written file; then the exit
# code, stdout, stderr and every written file are compared with cmp. Prints
# one DIFF line per difference and exits 1 if there is any, 0 otherwise.
# A refactor that must leave every output byte-identical runs it against a
# build of its parent commit (configured the same way).
#
# The work directory is deleted only when every output matched. Otherwise
# (a DIFF, or a run cut short) it is kept and its path is the last line
# printed. Each binary's normalised results are in
# <work>/{parent,change}/{bench,examples}/<name>/: exit, stdout, stderr and
# out/ (the files it wrote).

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
keep=1  # cleared once every output has matched
trap 'if [[ $keep -eq 1 ]]; then echo "$work"; else rm -rf "$work"; fi' EXIT

# bench/NAME and examples/NAME for each executable in build tree $1.
binaries() {
  local dir
  for dir in bench examples; do
    [[ -d "$1/$dir" ]] || continue
    find "$1/$dir" -maxdepth 1 -type f -perm -u+x -printf "$dir/%f\n"
  done
}

# Runs build tree $1's binary $2 into $3/{out/,stdout,stderr,exit}, then
# normalises the output-dir path in all of them.
run() {
  local out="$3/out"
  mkdir -p "$out"
  local code=0
  (cd "$out" && GRADS_BENCH_OUTPUT_DIR="$out" "$1/$2" \
     > "$3/stdout" 2> "$3/stderr") || code=$?
  echo "$code" > "$3/exit"
  local pattern
  pattern=$(printf '%s' "$out" | sed 's/[][\.*^$#]/\\&/g')
  find "$3" -type f -exec sed -i "s#$pattern#<out>#g" {} +
}

status=0
diff_found() {
  echo "DIFF: $*"
  status=1
}

binary_count=0
file_count=0
while read -r bin; do
  if [[ ! -x "$parent/$bin" ]]; then
    diff_found "$bin: only in $change"
    continue
  fi
  if [[ ! -x "$change/$bin" ]]; then
    diff_found "$bin: only in $parent"
    continue
  fi
  a="$work/parent/$bin"
  b="$work/change/$bin"
  run "$parent" "$bin" "$a"
  run "$change" "$bin" "$b"
  binary_count=$((binary_count + 1))
  for f in exit stdout stderr; do
    cmp -s "$a/$f" "$b/$f" || diff_found "$bin: $f differs"
  done
  while read -r f; do
    file_count=$((file_count + 1))
    if [[ ! -f "$a/out/$f" || ! -f "$b/out/$f" ]]; then
      diff_found "$bin: $f written by one tree only"
    elif ! cmp -s "$a/out/$f" "$b/out/$f"; then
      diff_found "$bin: $f differs"
    fi
  done < <( (cd "$a/out" && find . -type f -printf '%P\n'; \
             cd "$b/out" && find . -type f -printf '%P\n') | sort -u)
done < <( (binaries "$parent"; binaries "$change") | sort -u)

echo "compared $binary_count binaries and $file_count written files"
[[ $status -ne 0 ]] || keep=0
exit "$status"
