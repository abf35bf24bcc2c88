#!/bin/sh
# Perf-regression smoke: re-runs the bench suite into a scratch file and
# fails when
#   - us_per_plan regressed more than 25% against the committed
#     BENCH_3.json (wall-clock; assumes CI hardware comparable to the
#     baseline machine — the deterministic checks below catch real solver
#     regressions even when the hardware is not; node counts are recorded
#     in BENCH_3.json but not gated, since fewer nodes is not a faster
#     solve),
#   - the admitted count drifted from BENCH_2.json, or repair became
#     slower than (or kept fewer admissions than) a cold full re-solve
#     (both enforced inside bench.sh itself),
#   - the admission service's throughput (svc_subs_per_sec
#     pre-saturation, saturated_svc_subs_per_sec saturated) fell more than
#     25% below the committed BENCH_4.json — wall-clock like us_per_plan.
#     The service/serialized ratios are printed but not gated: a ratio
#     falls when single solves get cheaper, which is no service regression
#     (deleting the MILP root-cut layer took the saturated ratio from 1.9x
#     to 1.0x with the service's own throughput unchanged). bench.sh
#     itself fails when the pre-saturation admitted set matches the
#     serialized baseline in fewer than half of the passes,
#   - the sparse-engine large-model solve shrank its compiled model (the
#     batch-union closure must stay in the ~9k-var size class), regressed
#     its wall clock more than 25% vs the committed BENCH_5.json, or grew
#     its memory per solve more than 50% (admitted-set equality vs the
#     serialized baseline and the hard 1 GiB memory ceiling are enforced
#     inside bench.sh).
#
# Usage: scripts/perfcheck.sh
set -eu

cd "$(dirname "$0")/.."

committed_us=$(sed -n 's/.*"us_per_plan": \([0-9.]*\).*/\1/p' BENCH_3.json)
[ -n "$committed_us" ] || { echo "FAIL: no us_per_plan in BENCH_3.json" >&2; exit 1; }
committed_svc=$(sed -n 's/.*"svc_subs_per_sec": \([0-9.]*\).*/\1/p' BENCH_4.json 2>/dev/null)
committed_sat_svc=$(sed -n 's/.*"saturated_svc_subs_per_sec": \([0-9.]*\).*/\1/p' BENCH_4.json 2>/dev/null)
[ -n "$committed_svc" ] || { echo "FAIL: no committed BENCH_4.json (or no svc_subs_per_sec in it)" >&2; exit 1; }
[ -n "$committed_sat_svc" ] || { echo "FAIL: no saturated_svc_subs_per_sec in BENCH_4.json" >&2; exit 1; }
committed_vars=$(sed -n 's/.*"model_vars": \([0-9.]*\).*/\1/p' BENCH_5.json 2>/dev/null)
committed_joint_us=$(sed -n 's/.*"us_per_joint_plan": \([0-9.]*\).*/\1/p' BENCH_5.json 2>/dev/null)
committed_bytes=$(sed -n 's/.*"bytes_per_solve": \([0-9.]*\).*/\1/p' BENCH_5.json 2>/dev/null)
[ -n "$committed_vars" ] || { echo "FAIL: no committed BENCH_5.json (or no model_vars in it)" >&2; exit 1; }
[ -n "$committed_joint_us" ] || { echo "FAIL: no us_per_joint_plan in BENCH_5.json" >&2; exit 1; }
[ -n "$committed_bytes" ] || { echo "FAIL: no bytes_per_solve in BENCH_5.json" >&2; exit 1; }

tmp="$(mktemp)"
tmp4="$(mktemp)"
tmp5="$(mktemp)"
trap 'rm -f "$tmp" "$tmp4" "$tmp5"' EXIT
sh scripts/bench.sh "$tmp" "$tmp4" "$tmp5"

fresh_us=$(sed -n 's/.*"us_per_plan": \([0-9.]*\).*/\1/p' "$tmp")
[ -n "$fresh_us" ] || { echo "FAIL: bench run produced no us_per_plan" >&2; exit 1; }

fresh_svc=$(sed -n 's/.*"svc_subs_per_sec": \([0-9.]*\).*/\1/p' "$tmp4")
fresh_sat_svc=$(sed -n 's/.*"saturated_svc_subs_per_sec": \([0-9.]*\).*/\1/p' "$tmp4")
fresh_speedup=$(sed -n 's/.*"svc_speedup_vs_serial": \([0-9.]*\).*/\1/p' "$tmp4")
fresh_sat_speedup=$(sed -n 's/.*"saturated_svc_speedup_vs_serial": \([0-9.]*\).*/\1/p' "$tmp4")
[ -n "$fresh_svc" ] || { echo "FAIL: bench run produced no svc_subs_per_sec" >&2; exit 1; }
[ -n "$fresh_sat_svc" ] || { echo "FAIL: bench run produced no saturated_svc_subs_per_sec" >&2; exit 1; }

fresh_vars=$(sed -n 's/.*"model_vars": \([0-9.]*\).*/\1/p' "$tmp5")
fresh_joint_us=$(sed -n 's/.*"us_per_joint_plan": \([0-9.]*\).*/\1/p' "$tmp5")
fresh_bytes=$(sed -n 's/.*"bytes_per_solve": \([0-9.]*\).*/\1/p' "$tmp5")
[ -n "$fresh_vars" ] || { echo "FAIL: bench run produced no BENCH_5 model_vars" >&2; exit 1; }

awk -v fu="$fresh_us" -v cu="$committed_us" \
	-v fs="$fresh_svc" -v cs="$committed_svc" -v fss="$fresh_sat_svc" -v css="$committed_sat_svc" \
	-v sp="$fresh_speedup" -v ssp="$fresh_sat_speedup" \
	-v fv="$fresh_vars" -v cv="$committed_vars" \
	-v fju="$fresh_joint_us" -v cju="$committed_joint_us" \
	-v fb="$fresh_bytes" -v cb="$committed_bytes" 'BEGIN {
	printf "us_per_plan: fresh %s vs committed %s (limit %.0f)\n", fu, cu, cu * 1.25
	printf "service subs/sec: pre-saturation fresh %s vs committed %s (floor %.1f), saturated fresh %s vs committed %s (floor %.1f)\n", fs, cs, cs * 0.75, fss, css, css * 0.75
	printf "service vs serialized (not gated): %sx pre-saturation, %sx saturated\n", sp, ssp
	printf "large model: %s vars (committed %s), %s us/joint-plan (limit %.0f), %s B/solve (limit %.0f)\n", fv, cv, fju, cju * 1.25, fb, cb * 1.5
	fail = 0
	if (fu + 0 > cu * 1.25) {
		print "FAIL: us_per_plan regressed more than 25% vs BENCH_3.json" > "/dev/stderr"
		fail = 1
	}
	if (fs + 0 < cs * 0.75) {
		print "FAIL: service pre-saturation throughput fell more than 25% below BENCH_4.json" > "/dev/stderr"
		fail = 1
	}
	if (fss + 0 < css * 0.75) {
		print "FAIL: saturated service throughput fell more than 25% below BENCH_4.json" > "/dev/stderr"
		fail = 1
	}
	if (fv + 0 < cv * 0.95) {
		print "FAIL: large-model variable count shrank vs BENCH_5.json (batch union no longer whole?)" > "/dev/stderr"
		fail = 1
	}
	if (fju + 0 > cju * 1.25) {
		print "FAIL: large-model joint solve regressed more than 25% vs BENCH_5.json" > "/dev/stderr"
		fail = 1
	}
	if (fb + 0 > cb * 1.5) {
		print "FAIL: large-model memory per solve grew more than 50% vs BENCH_5.json" > "/dev/stderr"
		fail = 1
	}
	exit fail
}'
echo "perf check passed"
