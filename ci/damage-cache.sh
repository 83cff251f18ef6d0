#!/usr/bin/env bash
# Damages every stored entry of a result-cache directory and leaves the
# temp files a killed store would, so a rerun must quarantine each entry
# and sweep the litter. The damage takes three kinds in turn: truncated
# to half its length (a torn write), a garbage first line (a rotten
# header) and a leading byte that is not UTF-8 (bit rot). Prints the
# number of entries it damaged.
#
#   ci/damage-cache.sh /tmp/mn-damage-cache
set -euo pipefail
dir=${1:?usage: ci/damage-cache.sh DIR}
# Prepends the bytes `printf` renders from $1 to $entry.
prepend() {
  local damage
  damage=$(mktemp "$entry.XXXXXX")
  { printf "$1"; cat "$entry"; } > "$damage"
  mv "$damage" "$entry"
}
damaged=0
for entry in "$dir"/*.mnres; do
  [ -e "$entry" ] || continue
  case $((damaged % 3)) in
    0) truncate -s $(($(stat -c %s "$entry") / 2)) "$entry" ;;
    1) prepend 'mncampaign-cache v0-rotten\n' ;;
    2) prepend '\377' ;;
  esac
  damaged=$((damaged + 1))
done
for i in 0 1 2; do
  printf 'torn half-written cache entry' > "$dir/.stale$i.$$.tmp"
done
echo "$damaged"
