#!/bin/sh
# CLI-hardening contract for bench/fleet_campaign: every malformed
# invocation must exit 2 and print a usage synopsis to stderr, and a
# valid invocation must not trip the whitelist. Run by CTest as
#   sh fleet_campaign_cli_test.sh <path-to-fleet_campaign>
set -u

bin="${1:?usage: fleet_campaign_cli_test.sh <fleet_campaign-binary>}"
failures=0
# Extra NAME=value words for `env`, set by the environment rows below.
run_env=

expect_usage_error() {
    desc="$1"
    shift
    err=$(env $run_env "$bin" "$@" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL [$desc]: exit $code, want 2" >&2
        failures=$((failures + 1))
        return
    fi
    case "$err" in
      *"usage: fleet_campaign"*) ;;
      *)
        echo "FAIL [$desc]: no usage synopsis on stderr" >&2
        failures=$((failures + 1))
        return
        ;;
    esac
    echo "ok [$desc]"
}

expect_usage_error "--years 0"          --years 0
expect_usage_error "--years -3"         --years -3
expect_usage_error "--years junk"       --years junk
expect_usage_error "--fleet 0"          --fleet 0
expect_usage_error "--seed abc"         --seed abc
expect_usage_error "unknown flag"       --bogus-flag
expect_usage_error "missing value"      --fleet
expect_usage_error "missing ckpt value" --checkpoint-every
expect_usage_error "bad ckpt cadence"   --checkpoint-every 0
# Values that parse but would wrap once narrowed to int/uint32_t, and
# worker counts that used to be ignored. The tiny fleet keeps a
# regression (a run that starts instead of refusing) fast.
expect_usage_error "--workers junk"     --fleet 4 --workers junk
expect_usage_error "--workers 0"        --fleet 4 --workers 0
expect_usage_error "--years overflow"   --fleet 4 --years 6000000
expect_usage_error "--years past long"  --fleet 4 --years 99999999999999999999
expect_usage_error "--shards past u32"  --fleet 4 --shards 4294967297
expect_usage_error "--shards too many"  --fleet 4 --shards 65
expect_usage_error "ckpt past int"      --fleet 4 --checkpoint-every 2147483648
# PENTIMENTO_WORKERS, the fallback for --workers, parses just as
# strictly: trailing junk, zero and values past INT_MAX must refuse
# before any worker thread is spawned.
for value in junk 4x 0 2147483648; do
    run_env="PENTIMENTO_WORKERS=$value"
    expect_usage_error "$run_env" --fleet 4
done
run_env=

# A valid (tiny) invocation must pass the whitelist and succeed.
if ! "$bin" --fleet 4 --years 1 --seed 7 >/dev/null 2>&1; then
    echo "FAIL [valid invocation]: nonzero exit" >&2
    failures=$((failures + 1))
else
    echo "ok [valid invocation]"
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract failure(s)" >&2
    exit 1
fi
echo "fleet_campaign CLI contract: all cases pass"
