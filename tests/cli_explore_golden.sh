#!/bin/sh
# `pfi_campaign --explore=24 --seed 7` (batch 16) must rediscover every
# digest in tests/golden/search_gmp_omission.digests, and the top u64 seed
# must reach the report exactly.
#   usage: cli_explore_golden.sh EXAMPLES_DIR SOURCE_DIR
bin=$1
src=$2
tmp=${TMPDIR:-/tmp}/pfi_cli_explore.$$
mkdir -p "$tmp" || exit 1
trap 'rm -rf "$tmp"' EXIT
"$bin/pfi_campaign" "$src/scripts/campaign_gmp_omission.spec" \
  --explore=24 --seed 7 --quiet --out "$tmp/report.json" \
  --corpus-out "$tmp/corpus.jsonl"
rc=$?
if [ "$rc" -gt 1 ]; then
  echo "FAIL: explore exited $rc"
  exit 1
fi
status=0
for digest in $(grep -v '^#' "$src/tests/golden/search_gmp_omission.digests"); do
  if ! grep -q "\"digest\":\"$digest\"" "$tmp/corpus.jsonl"; then
    echo "FAIL: golden digest lost: $digest"
    status=1
  fi
done
"$bin/pfi_campaign" "$src/scripts/campaign_gmp_omission.spec" \
  --explore=1 --seed 18446744073709551615 --quiet --out "$tmp/top.json"
if ! grep -q '"seed":18446744073709551615,' "$tmp/top.json"; then
  echo "FAIL: --seed 18446744073709551615 did not reach the report"
  status=1
fi
exit $status
