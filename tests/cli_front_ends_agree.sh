#!/bin/sh
# Every front end must plan, resume and report through the same pipeline:
#  - `pfi_conform --json` records equal `pfi_campaign --suite` records over a
#    directory holding only that timeline, even when the timeline's `name`
#    header differs from its file stem, and `--vendor V` equals
#    `--filter tcp/V/`;
#  - a `--submit --resume` report from a one-worker `pfi_fabricd` equals a
#    local `--resume` report over the same journal, except for the host
#    fields summary.jobs and summary.wall_ms;
#  - a submitted script cell fills its report slot even when the client
#    cannot read the script the daemon runs (their cell keys differ).
#   usage: cli_front_ends_agree.sh EXAMPLES_DIR SOURCE_DIR
bin=$(cd "$1" && pwd) || exit 1
src=$(cd "$2" && pwd) || exit 1
tmp=${TMPDIR:-/tmp}/pfi_cli_agree.$$
mkdir -p "$tmp/suite" || exit 1
daemon=
cleanup() {
  if [ -n "$daemon" ]; then
    kill -TERM "$daemon" 2>/dev/null
    wait "$daemon" 2>/dev/null
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM
status=0
fail() {
  echo "FAIL: $*"
  status=1
}

# --- conformance: one timeline, two front ends --------------------------------
pdt=$tmp/suite/t1_retransmission.pdt
sed 's/^name .*/name renamed/' "$src/suites/tcp/t1_retransmission.pdt" > "$pdt"
grep -q '^name renamed$' "$pdt" || fail "could not rename the timeline"
# $1: pfi_conform --json output; $2: pfi_campaign --suite report. The report
# writes its runs array as the raw records joined by commas.
same_records() {
  [ -s "$1" ] || return 1
  grep -qF -- "\"runs\":[$(paste -sd, "$1")]" "$2"
}
"$bin/pfi_conform" --json "$pdt" > "$tmp/conform.jsonl"
"$bin/pfi_campaign" --suite "$tmp/suite" --quiet --out "$tmp/suite.json"
same_records "$tmp/conform.jsonl" "$tmp/suite.json" ||
  fail "pfi_conform --json records differ from pfi_campaign --suite"
"$bin/pfi_conform" --json --vendor solaris "$pdt" > "$tmp/conform1.jsonl"
"$bin/pfi_campaign" --suite "$tmp/suite" --filter tcp/solaris/ --quiet \
  --out "$tmp/suite1.json"
same_records "$tmp/conform1.jsonl" "$tmp/suite1.json" ||
  fail "pfi_conform --vendor solaris differs from --filter tcp/solaris/"

# --- resume: the daemon's client against a local run ---------------------------
# The daemon runs in scripts/, where the resilience spec's ../scripts/*.tcl
# paths resolve; the clients run elsewhere.
sock=$tmp/fabricd.sock
(cd "$src/scripts" && exec "$bin/pfi_fabricd" --listen "unix:$sock" \
  --workers 1 --quiet) &
daemon=$!
i=0
while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$sock" ] || fail "pfi_fabricd did not listen on $sock"
spec=$src/scripts/campaign_gmp_omission.spec
for round in 1 2; do
  "$bin/pfi_campaign" "$spec" --filter gmp-mc --resume --journal "$tmp/J" \
    --submit "unix:$sock" --quiet --out "$tmp/submit$round.json"
  submit_rc=$?
done
"$bin/pfi_campaign" "$spec" --filter gmp-mc --resume --journal "$tmp/J" \
  --quiet --out "$tmp/local.json"
local_rc=$?
[ "$submit_rc" -eq "$local_rc" ] ||
  fail "--submit --resume exited $submit_rc, local --resume $local_rc"
sed 's/"jobs":[0-9]*,"wall_ms":[^,]*,//' "$tmp/local.json" > "$tmp/local.cmp"
cmp -s "$tmp/submit2.json" "$tmp/local.cmp" ||
  fail "--submit --resume report differs from the local --resume report"
grep -q '"cells":34,' "$tmp/submit2.json" || fail "resumed report: cells != 34"
grep -q '"resumed":34,' "$tmp/submit2.json" ||
  fail "resumed report: resumed != 34"
runs=$(grep -o '{"index":' "$tmp/submit2.json" | wc -l)
[ "$runs" -eq 34 ] || fail "resumed report holds $runs runs, want 34"

# --- a script cell the client cannot read --------------------------------------
mkdir -p "$tmp/elsewhere"
(cd "$tmp/elsewhere" &&
  "$bin/pfi_campaign" "$src/scripts/campaign_resilience.spec" \
    --filter log_everything --submit "unix:$sock" --quiet \
    --out "$tmp/script.json")
grep -q '"cells":1,"runs":\[{"index":0,"id":"gmp/log_everything/s1000","verdict":"pass"' \
  "$tmp/script.json" || fail "the daemon's script record missed its slot"
exit $status
