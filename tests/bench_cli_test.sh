#!/bin/sh
# CLI contract of the figure and ablation benches: an unknown flag or
# a flag missing its value must exit 2 with a usage line on stderr,
# before any work starts, and a valid invocation must still run. Run
# by CTest as
#   sh bench_cli_test.sh <fig6_experiment1_lab> <ablation_route_length> \
#       <ablation_bram_scrub>
set -u

fig6="${1:?usage: bench_cli_test.sh <fig6> <route_length> <bram_scrub>}"
route_length="${2:?usage: bench_cli_test.sh <fig6> <route_length> <bram_scrub>}"
bram_scrub="${3:?usage: bench_cli_test.sh <fig6> <route_length> <bram_scrub>}"
failures=0

expect_usage_error() {
    desc="$1"
    bin="$2"
    shift 2
    err=$("$bin" "$@" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL [$desc]: exit $code, want 2" >&2
        failures=$((failures + 1))
        return
    fi
    case "$err" in
      *"usage: $(basename "$bin")"*) ;;
      *)
        echo "FAIL [$desc]: no usage line on stderr" >&2
        failures=$((failures + 1))
        return
        ;;
    esac
    echo "ok [$desc]"
}

expect_usage_error "fig6 unknown flag"         "$fig6" --bogus-flag
expect_usage_error "fig6 trailing --csv"       "$fig6" --csv
expect_usage_error "fig6 typoed --worker"      "$fig6" --worker 4
expect_usage_error "route_length unknown flag" "$route_length" --bogus-flag
expect_usage_error "route_length stray value"  "$route_length" --workers 2 3
expect_usage_error "bram_scrub unknown flag"   "$bram_scrub" --bogus-flag
expect_usage_error "bram_scrub --workers"      "$bram_scrub" --workers 2

# A valid invocation must pass the whitelist, run and write its CSV.
csv="${TMPDIR:-/tmp}/bench_cli_test.$$.csv"
if ! "$route_length" --workers 2 --csv "$csv" >/dev/null 2>&1 ||
    [ ! -s "$csv" ]; then
    echo "FAIL [valid invocation]: nonzero exit or no CSV" >&2
    failures=$((failures + 1))
else
    echo "ok [valid invocation]"
fi
rm -f "$csv"

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract failure(s)" >&2
    exit 1
fi
echo "bench CLI contract: all cases pass"
