#!/bin/sh
# Every front end must plan, resume and report through the same pipeline:
#  - `pfi_conform --json` records equal `pfi_campaign --suite` records over a
#    directory holding only that timeline, even when the timeline's `name`
#    header differs from its file stem, and `--vendor V` equals
#    `--filter tcp/V/`;
#  - a `--submit` report from a one-worker `pfi_fabricd` equals the local
#    report, except for the host fields summary.jobs and summary.wall_ms,
#    for `--resume` over the same journal, `--lint=strict --minimize`,
#    `--explore` (corpus included) and `--suite` runs;
#  - `--journal J` run twice each way leaves byte-equal journals;
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

# --- the daemon's client against a local run -----------------------------------
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
# $1, $2: reports that must agree outside the host fields.
same_report() {
  for f in "$1" "$2"; do
    sed 's/"jobs":[0-9]*,"wall_ms":[^,]*,//' "$f" > "$f.cmp" 2>/dev/null
  done
  [ -s "$1.cmp" ] && cmp -s "$1.cmp" "$2.cmp"
}
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
same_report "$tmp/submit2.json" "$tmp/local.json" ||
  fail "--submit --resume report differs from the local --resume report"
grep -q '"cells":34,' "$tmp/submit2.json" || fail "resumed report: cells != 34"
grep -q '"resumed":34,' "$tmp/submit2.json" ||
  fail "resumed report: resumed != 34"
runs=$(grep -o '{"index":' "$tmp/submit2.json" | wc -l)
[ "$runs" -eq 34 ] || fail "resumed report holds $runs runs, want 34"

# Lint and minimisation happen where the report is built, on the client.
for way in local submit; do
  set -- --quiet
  [ "$way" = submit ] && set -- --submit "unix:$sock" --quiet
  "$bin/pfi_campaign" "$spec" --filter gmp-mc --lint=strict --minimize \
    --max-minimize 1 "$@" --out "$tmp/min-$way.json"
  "$bin/pfi_campaign" "$spec" --filter gmp-mc --journal "$tmp/J-$way" "$@" \
    --out /dev/null
  "$bin/pfi_campaign" "$spec" --filter gmp-mc --journal "$tmp/J-$way" "$@" \
    --out /dev/null
  "$bin/pfi_campaign" "$spec" --explore=12 --seed 7 \
    --corpus-out "$tmp/corpus-$way.jsonl" "$@" --out "$tmp/explore-$way.json"
  "$bin/pfi_campaign" --suite "$src/suites/tcp" --filter solaris "$@" \
    --out "$tmp/suite-$way.json"
done
same_report "$tmp/min-submit.json" "$tmp/min-local.json" ||
  fail "--submit --lint=strict --minimize report differs from the local one"
grep -q '"minimized":\[{' "$tmp/min-submit.json" ||
  fail "--submit --minimize report has no minimized entry"
[ -s "$tmp/J-local" ] && cmp -s "$tmp/J-submit" "$tmp/J-local" ||
  fail "--journal J twice: the --submit journal differs from the local one"
same_report "$tmp/explore-submit.json" "$tmp/explore-local.json" ||
  fail "--submit --explore report differs from the local one"
[ -s "$tmp/corpus-local.jsonl" ] &&
  cmp -s "$tmp/corpus-submit.jsonl" "$tmp/corpus-local.jsonl" ||
  fail "--submit --explore corpus differs from the local one"
same_report "$tmp/suite-submit.json" "$tmp/suite-local.json" ||
  fail "--suite --submit report differs from the local --suite report"

# --- a script cell the client cannot read --------------------------------------
mkdir -p "$tmp/elsewhere"
(cd "$tmp/elsewhere" &&
  "$bin/pfi_campaign" "$src/scripts/campaign_resilience.spec" \
    --filter log_everything --submit "unix:$sock" --quiet \
    --out "$tmp/script.json")
grep -q '"cells":1,"runs":\[{"index":0,"id":"gmp/log_everything/s1000","verdict":"pass"' \
  "$tmp/script.json" || fail "the daemon's script record missed its slot"
exit $status
