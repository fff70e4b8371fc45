package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDecl is one metric the benchmark promises to emit. BENCHMARK.json
// declares the same names and units; bench_test.go keeps the two in step.
type metricDecl struct {
	name, unit string
}

// endToEndMetrics are what a user of the served archive sees. Every one is
// emitted by every workload's untraced run.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"commit_p50_ms", "ms"},
	{"retrieve_p50_ms", "ms"},
	{"retrieve_all_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"shard_reads_per_retrieve", "count"},
	{"commit_wire_amp", "B/B"},
	{"retrieve_wire_amp", "B/B"},
	{"space_amp", "B/B"},
	{"reopen_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayerMetrics are single-layer rows: ledger rows measured in isolation,
// traced rows from the spans, and counts. Every one is emitted by every
// workload's traced run.
var perLayerMetrics = []metricDecl{
	{"gf.muladd_gb_per_s", "GB/s"},
	{"erasure.encode_4k_us", "us"},
	{"erasure.decode_full_4k_us", "us"},
	{"erasure.decode_sparse_4k_us", "us"},
	{"erasure.encode_200k_us", "us"},
	{"erasure.decode_full_200k_us", "us"},
	{"erasure.decode_sparse_200k_us", "us"},
	{"delta.compute_us", "us"},
	{"store.mem_putbatch_us", "us"},
	{"store.mem_getbatch_us", "us"},
	{"store.disk_putbatch_us", "us"},
	{"store.disk_getbatch_us", "us"},
	{"store.node_busy_ms_per_op", "ms"},
	{"store.node_calls_per_op", "count"},
	{"transport.node_rpc_us", "us"},
	{"transport.node_rpcs_per_op", "count"},
	{"transport.node_link_ms_per_op", "ms"},
	{"transport.gw_hop_ms_per_op", "ms"},
	{"core.commit_us", "us"},
	{"core.retrieve_us", "us"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.sparse_read_share", "ratio"},
	{"core.shard_writes_per_commit", "count"},
	{"core.compactions_per_1k_commits", "count"},
	{"gateway.commit_us", "us"},
	{"gateway.retrieve_us", "us"},
	{"gateway.self_ms_per_op", "ms"},
	{"gateway.manifest_bytes", "B"},
	{"gateway.commit_p50_last_over_first", "ratio"},
	{"gateway.busy", "count"},
	{"gateway.conflicts", "count"},
	{"secclient.roundtrip_us", "us"},
	{"secclient.latest_p50_ms", "ms"},
	{"secclient.log_p50_ms", "ms"},
	{"secclient.compact_p50_ms", "ms"},
	{"secclient.commit_p95_ms", "ms"},
	{"secclient.retrieve_p95_ms", "ms"},
	{"tax.core_over_erasure", "ratio"},
	{"tax.gateway_over_core", "ratio"},
	{"tax.secclient_over_gateway", "ratio"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.trace_overhead_pct", "%"},
}

// report collects one run's metrics in emission order.
type report struct {
	rows      []reportRow
	attempted int
	failed    int
}

type reportRow struct {
	name, unit, note string
	value            float64
}

func (r *report) add(name, unit string, value float64, note string) {
	r.rows = append(r.rows, reportRow{name: name, unit: unit, value: value, note: note})
}

// value is the named row's value, 0 if there is none.
func (r *report) value(name string) float64 {
	for _, row := range r.rows {
		if row.name == name {
			return row.value
		}
	}
	return 0
}

// check says which declared metrics the report lacks or has beyond them.
func (r *report) check(decls []metricDecl) error {
	have := map[string]string{}
	for _, row := range r.rows {
		if _, dup := have[row.name]; dup {
			return fmt.Errorf("metric %s emitted twice", row.name)
		}
		have[row.name] = row.unit
	}
	for _, d := range decls {
		unit, ok := have[d.name]
		if !ok {
			return fmt.Errorf("metric %s declared but not emitted", d.name)
		}
		if unit != d.unit {
			return fmt.Errorf("metric %s emitted in %s, declared in %s", d.name, unit, d.unit)
		}
		delete(have, d.name)
	}
	for name := range have {
		return fmt.Errorf("metric %s emitted but not declared", name)
	}
	return nil
}

// print writes every metric by name with its unit, one per line, then the
// one-line JSON result the driver reads.
func (r *report) print(w io.Writer, correct bool) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, row := range r.rows {
		fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", row.name, row.value, row.unit, row.note)
		result.Metrics[row.name] = jsonMetric{row.value, row.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
