#!/bin/sh
# Every malformed command line below must exit 2 with a message naming the
# flag or the vendor, never run with a misread value or abort.
#   usage: cli_malformed.sh EXAMPLES_DIR SOURCE_DIR
bin=$1
src=$2
spec=$src/scripts/campaign_gmp_omission.spec
tmp=${TMPDIR:-/tmp}/pfi_cli_malformed.$$
mkdir -p "$tmp" || exit 1
trap 'rm -rf "$tmp"' EXIT
printf 'name typo\nprotocol tcp\ntypes tcp-data\nvendors solarsi sunos\n' \
  > "$tmp/typo.spec"
status=0
expect2() {
  want=$1
  shift
  "$@" > "$tmp/out" 2> "$tmp/err"
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "$want" "$tmp/err"; then
    echo "FAIL (exit $rc, want 2 naming '$want'): $*"
    cat "$tmp/err"
    status=1
  fi
}
expect2 --max-events "$bin/pfi_campaign" "$spec" --max-events 10k --list
expect2 --jobs "$bin/pfi_campaign" "$spec" --jobs abc --list
expect2 --jobs "$bin/pfi_campaign" "$spec" --list --jobs
expect2 --explore "$bin/pfi_campaign" "$spec" --explore=abc
expect2 --seed "$bin/pfi_campaign" "$spec" --explore=4 --seed 18446744073709551616
# Local-execution flags do not travel with --submit: each is refused by
# name before any connection is tried (the address below does not exist).
for flag in "--jobs 2" --isolate "--retries 1" "--workers 2" \
    "--listen 127.0.0.1:0" "--heartbeat-ms 100" "--dead-after-ms 100" \
    "--reconnect-grace-ms 100" "--workers-flap 1" --workers-kill-one \
    "--flight-out $tmp/flight.jsonl"; do
  # shellcheck disable=SC2086  # split "--flag value" into two words
  expect2 "${flag%% *}" "$bin/pfi_campaign" "$spec" --submit unix:/nonexistent $flag
done
expect2 --max-workers "$bin/pfi_campaign" "$spec" --max-workers 2 --list
expect2 solarsi "$bin/pfi_campaign" "$tmp/typo.spec" --list
expect2 --node "$bin/pfi_run" --protocol gmp --node 9
expect2 --node "$bin/pfi_run" --protocol gmp --node abc
expect2 --protocol "$bin/pfi_run" --protocol gpm
expect2 --bogus "$bin/pfi_run" --bogus
expect2 solarsi "$bin/pfi_conform" "$src/suites/tcp/t1_retransmission.pdt" --vendor solarsi
expect2 solarsi "$bin/tcp_probing" solarsi
expect2 --jobs "$bin/pfi_worker" --connect unix:/nonexistent --jobs 2x
expect2 --heartbeat-ms "$bin/pfi_fabricd" --listen unix:/nonexistent --heartbeat-ms 1.5
exit $status
