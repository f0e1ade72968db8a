package main

// metricDef names one reported metric and its unit. Units starting with
// "sim-" are simulated-clock (or simulated-event) quantities: outputs of
// an unvalidated model, exactly repeatable for a given seed. Every other
// unit is measured on the host clock or counts host-side work.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported with -trace 0; BENCHMARK.json lists the
// same names and units.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"alloc_kb_per_job", "KiB"},
	{"heap_peak_mb", "MiB"},
	{"sim_speedup_geo", "sim-x"},
	{"sim_speedup_min", "sim-x"},
	{"sim_coverage", "sim-ratio"},
	{"sim_stall_frac", "sim-ratio"},
	{"sim_hint_overhead", "sim-ratio"},
	{"pass_ratio", "ratio"},
}

// hostLayers are the layers the CPU profile's samples fold into.
var hostLayers = []string{"lang", "compiler", "exec", "core", "ir", "vm", "rt", "disk", "stripefs", "sim", "nas", "obs", "bench", "runtime", "other"}

var fig3Apps = []string{"BUK", "CGM", "EMBAR", "FFT", "MGRID", "APPLU", "APPSP", "APPBT"}

// perLayerMetrics are reported with -trace 1.
var perLayerMetrics = func() []metricDef {
	ms := []metricDef{
		{"lang.parse_ms", "ms"},
		{"compiler.compile_ms", "ms"},
		{"compiler.prefetch_refs", "count"},
		{"compiler.release_refs", "count"},
		{"exec.assemble_ms", "ms"},
		{"exec.loops_bytecode", "count"},
		{"exec.loops_pagerun", "count"},
		{"exec.loops_oracle", "count"},
		{"exec.call_sites", "count"},
		{"core.run_ms", "ms"},
		{"core.plan_hits", "count"},
		{"core.plan_misses", "count"},
		{"vm.user_s", "sim-s"},
		{"vm.sys_fault_s", "sim-s"},
		{"vm.sys_prefetch_s", "sim-s"},
		{"vm.idle_s", "sim-s"},
		{"vm.faults_non_prefetched", "sim-count"},
		{"vm.faults_late", "sim-count"},
		{"vm.prefetch_issued", "sim-count"},
		{"vm.prefetch_dropped", "sim-count"},
		{"vm.prefetch_unneeded", "sim-count"},
		{"vm.writebacks", "sim-count"},
		{"vm.reclaims", "sim-count"},
		{"rt.inserted_pages", "sim-count"},
		{"rt.filter_ratio", "sim-ratio"},
		{"rt.issued_calls", "sim-count"},
		{"disk.requests", "sim-count"},
		{"disk.busy_s", "sim-s"},
		{"disk.util_mean", "sim-ratio"},
		{"disk.retries", "sim-count"},
		{"stripefs.requeued", "sim-count"},
		{"sim.events", "sim-count"},
		{"sim.host_ns_per_event", "ns"},
		{"nas.check_ms", "ms"},
		{"host.frontend_pct", "%"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range hostLayers {
		ms = append(ms, metricDef{"host." + l + "_pct", "%"})
	}
	for _, app := range fig3Apps {
		ms = append(ms, metricDef{"sim.speedup." + app, "sim-x"}, metricDef{"sim.coverage." + app, "sim-ratio"})
	}
	return ms
}()
