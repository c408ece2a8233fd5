#!/usr/bin/env bash
# Linker census of src/: lists the library functions that no executable
# of the tree reaches, and fails unless tools/dead_code_allow.txt names
# exactly those.
#
#   tools/dead_code.sh [BUILD_DIR]        (default: build-dead-code)
#
# The tree is built at -O0 with -ffunction-sections and BUILD_TESTING=OFF,
# and every executable (benches, examples, tools, autra_e2e) is linked with
# --gc-sections, so a function survives in a binary only if something the
# binary runs calls it. A function counts when a src/ object defines it as
# a strong text symbol, and it is reached when any executable still holds
# it; constructor and destructor variants count once, under their
# demangled name.
#
# The script exits 1 when a function is unreached but not allowlisted, or
# when an allowlist line names a function that is no longer unreached
# (reached again, or deleted): the list then needs its line removed. Each
# allowlist line is a demangled name, then " # " and why it stays.
#
# What the census cannot see: inline functions (weak symbols, defined in
# headers) and virtual members (every vtable entry of a constructed class
# is kept). Those need a grep for callers; that is how an unused virtual
# clone() on the kernels and rate schedules was found.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-dead-code}
allow="$root/tools/dead_code_allow.txt"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections -DBUILD_TESTING=OFF \
  > /dev/null
cmake --build "$build" -j "$(nproc)" > /dev/null

# Demangled names, with the two spellings that make them unreadable
# shortened the same way on both sides of the comparison.
names() {
  c++filt | sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
    -e 's/, 18446744073709551615ul>/>/g' | LC_ALL=C sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find "$build/src" -name '*.o' -exec nm --defined-only -P {} + |
  awk '$2 == "T" { print $1 }' | names > "$tmp/defined"
find "$build" -path '*/CMakeFiles' -prune -o -type f -perm -u+x -print |
  while read -r exe; do
    [ "$(head -c 4 "$exe" | od -An -c | tr -d ' ')" = '177ELF' ] || continue
    nm --defined-only -P "$exe" | awk '$2 ~ /^[Tt]$/ { print $1 }'
  done | names > "$tmp/linked"
LC_ALL=C comm -23 "$tmp/defined" "$tmp/linked" > "$tmp/unreached"

sed -e '/^#/d' -e '/^$/d' "$allow" > "$tmp/lines"
if grep -v ' # .' "$tmp/lines" > "$tmp/bare"; then
  echo "dead_code: allowlist lines without a reason:"
  sed 's/^/  /' "$tmp/bare"
  exit 1
fi
sed 's/ # .*//' "$tmp/lines" | LC_ALL=C sort > "$tmp/allowed"

status=0
LC_ALL=C comm -23 "$tmp/unreached" "$tmp/allowed" > "$tmp/new"
LC_ALL=C comm -13 "$tmp/unreached" "$tmp/allowed" > "$tmp/stale"
if [ -s "$tmp/new" ]; then
  echo "dead_code: reached by no executable and not allowlisted" \
    "(delete them, or allowlist them with a reason):"
  sed 's/^/  /' "$tmp/new"
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "dead_code: allowlisted but no longer unreached" \
    "(reached or deleted; drop the lines):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
echo "dead_code: $(wc -l < "$tmp/unreached") of $(wc -l < "$tmp/defined")" \
  "src/ functions reach no executable; $(wc -l < "$tmp/allowed") allowlisted"
exit "$status"
