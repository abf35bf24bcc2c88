#!/bin/sh
# Runs the benchmark suite and records the perf trajectory in BENCH_3.json,
# BENCH_4.json and BENCH_5.json.
#
# The headline series is BenchmarkAblationBaseline's us-per-plan (average
# wall-clock per planning call on the compact §V workload), compared against
# BENCH_2.json — the tree-reduction solver of the previous rework — and the
# original pre-rework seed solver. BENCH_3 adds the churn-repair subsystem:
# BenchmarkChurnRepair times the delta-MILP Repair after a failure of the
# busiest host against a remove-and-resubmit fallback and a cold full
# re-solve of the entire workload on the degraded system. BENCH_4 adds the
# concurrent admission service: BenchmarkServiceThroughput pushes the Fig-4
# workload through a plan.Service with 64 concurrent submitters against a
# serialized one-at-a-time baseline, on the pre-saturation prefix (averaged
# over repeated passes, since one pass is a fraction of a second) and on
# the full saturated workload. BENCH_5 adds the sparse revised-simplex
# engine: BenchmarkLPLargeModel (internal/core) solves an entire workload
# as ONE joint batch model with the closure cap lifted — the ~9k-variable
# batch-union size class that forced the dense engine into tractability
# splits — and compares its admitted set against the serialized
# one-at-a-time baseline. It calls the solve step directly: Submit closes
# this batch on its greedy seed and would build no model at all.
#
# The script FAILS if
#   - the admitted count differs from BENCH_2.json (every perf change must
#     preserve the planner's admission decisions exactly),
#   - the repair path is not faster than the cold full re-solve,
#   - repair keeps fewer admissions than the cold full re-solve,
#   - the service's pre-saturation admitted set matched the serialized
#     baseline's in fewer than half of the passes. Not in every pass: the
#     planner's admission is order-dependent at this scale whether or not
#     the service is in the path (40 queries submitted one at a time in a
#     random order end one or two short of workload order in about a third
#     of the orders), so a single mismatch says nothing about the service,
#     while a service that lost admissions would mismatch every time. The
#     service/serialized throughput ratios are recorded but not gated
#     here: a ratio falls when the serialized baseline gets faster, which
#     is not a service regression. scripts/perfcheck.sh gates the
#     service's own throughput against the committed BENCH_4.json instead,
#   - the joint large-model solve admits a different query set than the
#     serialized baseline, compiles fewer than 8000 variables (the model
#     must actually be in the size class the gate is about), or allocates
#     more than 1 GiB per solve (dense-tableau territory), or
#   - a prior BENCH_N.json this script gates against is missing or
#     malformed (loud nonzero exit, never a silent skip).
#
# The micro benchmarks run at -benchtime=30x so arena/pool warm-up (first
# iteration building the solver arenas) does not dominate allocs/op.
#
# Usage: scripts/bench.sh [bench3-output.json] [bench4-output.json] [bench5-output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_3.json}"
out4="${2:-BENCH_4.json}"
out5="${3:-BENCH_5.json}"
base="BENCH_2.json"

# Measured on the seed (pre-rework) solver with the same benchmark.
pre_us_per_plan=70634

# A baseline this script gates against must exist and parse; a missing or
# malformed file means the gate would silently compare against nothing.
[ -f "$base" ] || { echo "FAIL: baseline $base is missing" >&2; exit 1; }
base_us=$(sed -n 's/.*"us_per_plan": \([0-9.]*\).*/\1/p' "$base")
base_admitted=$(sed -n 's/.*"admitted": \([0-9.]*\).*/\1/p' "$base")
[ -n "$base_us" ] || { echo "FAIL: baseline $base is malformed: no us_per_plan" >&2; exit 1; }
[ -n "$base_admitted" ] || { echo "FAIL: baseline $base is malformed: no admitted" >&2; exit 1; }

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run=NONE -bench='BenchmarkAblationBaseline' -benchtime=3x -count=1 . | tee "$tmp"
go test -run=NONE -bench='BenchmarkChurnRepair' -benchtime=3x -count=1 . | tee -a "$tmp"
go test -run=NONE -bench='BenchmarkLPResolve|BenchmarkMILPNode' -benchtime=30x -count=1 . | tee -a "$tmp"
go test -run=NONE -bench='BenchmarkServiceThroughput' -benchtime=3x -count=1 . | tee -a "$tmp"
go test -run=NONE -bench='BenchmarkLPLargeModel' -benchtime=3x -count=1 ./internal/core/ | tee -a "$tmp"

awk -v pre="$pre_us_per_plan" -v base_us="$base_us" -v base_admitted="$base_admitted" \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function val(name,    i) {
	for (i = 1; i <= NF; i++)
		if ($(i + 1) == name)
			return $i
	return ""
}
/^BenchmarkAblationBaseline/ {
	us = val("us-per-plan"); adm = val("admitted")
	nodes_solve = val("nodes/solve")
}
/^BenchmarkChurnRepair/ {
	repair_us = val("repair-us"); resubmit_us = val("resubmit-us")
	cold_us = val("cold-resolve-us")
	repair_adm = val("repair-admitted"); cold_adm = val("cold-admitted")
	repair_mig = val("repair-migrated"); resubmit_mig = val("resubmit-migrated")
}
/^BenchmarkLPResolve/ {
	lp_ns = $3; lp_allocs = val("allocs/op")
}
/^BenchmarkMILPNode/ {
	node_ns = $3; node_allocs = val("allocs/op"); nodes = val("nodes-per-solve")
}
END {
	if (adm != base_admitted) {
		printf "FAIL: admitted count %s differs from BENCH_2 (%s)\n", adm, base_admitted > "/dev/stderr"
		exit 1
	}
	if (repair_us + 0 >= cold_us + 0) {
		printf "FAIL: repair (%s us) is not faster than a cold full re-solve (%s us)\n", repair_us, cold_us > "/dev/stderr"
		exit 1
	}
	if (repair_adm + 0 < cold_adm + 0) {
		printf "FAIL: repair kept %s admissions, cold full re-solve keeps %s\n", repair_adm, cold_adm > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"benchmark\": \"BenchmarkAblationBaseline\",\n"
	printf "  \"pre_pr_us_per_plan\": %s,\n", base_us
	printf "  \"seed_us_per_plan\": %s,\n", pre
	printf "  \"us_per_plan\": %s,\n", us
	printf "  \"speedup_vs_pre_pr\": %.2f,\n", base_us / us
	printf "  \"speedup_vs_seed\": %.2f,\n", pre / us
	printf "  \"admitted\": %s,\n", adm
	printf "  \"planner_nodes_per_solve\": %s,\n", nodes_solve
	printf "  \"repair_us\": %s,\n", repair_us
	printf "  \"repair_resubmit_us\": %s,\n", resubmit_us
	printf "  \"repair_cold_resolve_us\": %s,\n", cold_us
	printf "  \"repair_speedup_vs_cold\": %.2f,\n", cold_us / repair_us
	printf "  \"repair_admitted\": %s,\n", repair_adm
	printf "  \"repair_cold_admitted\": %s,\n", cold_adm
	printf "  \"repair_migrated\": %s,\n", repair_mig
	printf "  \"repair_resubmit_migrated\": %s,\n", resubmit_mig
	printf "  \"lp_resolve_ns_per_op\": %s,\n", lp_ns
	printf "  \"lp_resolve_allocs_per_op\": %s,\n", lp_allocs
	printf "  \"milp_node_ns_per_op\": %s,\n", node_ns
	printf "  \"milp_node_allocs_per_op\": %s,\n", node_allocs
	printf "  \"milp_nodes_per_solve\": %s\n", nodes
	printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"
cat "$out"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function val(name,    i) {
	for (i = 1; i <= NF; i++)
		if ($(i + 1) == name)
			return $i
	return ""
}
/^BenchmarkServiceThroughput/ {
	svc_sps = val("svc-subs-per-sec"); serial_sps = val("serial-subs-per-sec")
	svc_adm = val("svc-admitted"); serial_adm = val("serial-admitted")
	set_equal = val("set-equal")
	sat_svc_sps = val("sat-svc-subs-per-sec"); sat_serial_sps = val("sat-serial-subs-per-sec")
	sat_svc_adm = val("sat-svc-admitted"); sat_serial_adm = val("sat-serial-admitted")
}
END {
	if (set_equal + 0 < 0.5) {
		printf "FAIL: the service matched the serialized pre-saturation admitted set in under half of the passes (%s)\n", set_equal > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"benchmark\": \"BenchmarkServiceThroughput\",\n"
	printf "  \"svc_subs_per_sec\": %s,\n", svc_sps
	printf "  \"serial_subs_per_sec\": %s,\n", serial_sps
	printf "  \"svc_speedup_vs_serial\": %.2f,\n", svc_sps / serial_sps
	printf "  \"svc_admitted\": %s,\n", svc_adm
	printf "  \"serial_admitted\": %s,\n", serial_adm
	printf "  \"admitted_set_equal\": %s,\n", set_equal
	printf "  \"saturated_svc_subs_per_sec\": %s,\n", sat_svc_sps
	printf "  \"saturated_serial_subs_per_sec\": %s,\n", sat_serial_sps
	printf "  \"saturated_svc_speedup_vs_serial\": %.2f,\n", sat_svc_sps / sat_serial_sps
	printf "  \"saturated_svc_admitted\": %s,\n", sat_svc_adm
	printf "  \"saturated_serial_admitted\": %s\n", sat_serial_adm
	printf "}\n"
}' "$tmp" > "$out4"

echo "wrote $out4"
cat "$out4"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function val(name,    i) {
	for (i = 1; i <= NF; i++)
		if ($(i + 1) == name)
			return $i
	return ""
}
/^BenchmarkLPLargeModel/ {
	ns = $3
	vars = val("model-vars"); joint_adm = val("joint-admitted")
	serial_adm = val("serial-admitted"); set_equal = val("set-equal")
	bytes = val("B/op"); allocs = val("allocs/op")
}
END {
	if (vars == "") {
		printf "FAIL: BenchmarkLPLargeModel produced no output\n" > "/dev/stderr"
		exit 1
	}
	if (set_equal + 0 != 1) {
		printf "FAIL: joint large-model solve admitted a different query set than the serialized baseline\n" > "/dev/stderr"
		exit 1
	}
	if (vars + 0 < 8000) {
		printf "FAIL: large model compiled only %s variables (< 8000: not the size class this gate is about)\n", vars > "/dev/stderr"
		exit 1
	}
	if (bytes + 0 > 1073741824) {
		printf "FAIL: large-model solve allocated %s B/op (> 1 GiB: dense-tableau territory)\n", bytes > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"benchmark\": \"BenchmarkLPLargeModel\",\n"
	printf "  \"model_vars\": %s,\n", vars
	printf "  \"us_per_joint_plan\": %.0f,\n", ns / 1000
	printf "  \"joint_admitted\": %s,\n", joint_adm
	printf "  \"serial_admitted\": %s,\n", serial_adm
	printf "  \"admitted_set_equal\": %s,\n", set_equal
	printf "  \"bytes_per_solve\": %s,\n", bytes
	printf "  \"allocs_per_solve\": %s\n", allocs
	printf "}\n"
}' "$tmp" > "$out5"

echo "wrote $out5"
cat "$out5"
