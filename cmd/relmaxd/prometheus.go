package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// wantsPrometheus selects the exposition format for /metrics: an explicit
// ?format=prometheus always wins, and content negotiation honors scrapers
// whose Accept header asks for text/plain (the Prometheus exposition
// content type) without mentioning JSON first. The default stays JSON —
// existing dashboards and the smoke test parse it with jq.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if !strings.Contains(accept, "text/plain") {
		return false
	}
	// "text/plain, application/json" style headers pick whichever comes
	// first; a lone application/json (or */*) already returned false above.
	jsonIdx := strings.Index(accept, "application/json")
	return jsonIdx == -1 || strings.Index(accept, "text/plain") < jsonIdx
}

// promWriter accumulates Prometheus text exposition. The text format
// requires every sample of a metric family to form one group under its
// TYPE line, so samples are buffered per family and written family by
// family, in the order each family was first sampled — whatever order the
// callers' per-dataset or per-backend loops sample them in.
type promWriter struct {
	order []string
	fams  map[string]*strings.Builder
}

func (p *promWriter) sample(name, typ string, labels map[string]string, value float64) {
	b := p.fams[name]
	if b == nil {
		if p.fams == nil {
			p.fams = make(map[string]*strings.Builder)
		}
		b = &strings.Builder{}
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		p.fams[name] = b
		p.order = append(p.order, name)
	}
	b.WriteString(name)
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf(`%s="%s"`, k, escapeLabel(labels[k]))
		}
		b.WriteString("{" + strings.Join(parts, ",") + "}")
	}
	// %g keeps integers integral and floats compact; Prometheus parses both.
	fmt.Fprintf(b, " %g\n", value)
}

// write serves the buffered families as a text exposition.
func (p *promWriter) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	for _, name := range p.order {
		_, _ = io.WriteString(w, p.fams[name].String())
	}
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// writePrometheus renders the /metrics payload in Prometheus text
// exposition format. Label sets iterate in sorted order so consecutive
// scrapes of identical state are byte-identical.
func writePrometheus(w http.ResponseWriter, m metricsResponse) {
	p := &promWriter{}

	p.sample("relmaxd_uptime_seconds", "gauge", nil, m.UptimeS)
	p.sample("relmaxd_requests_total", "counter", nil, float64(m.Requests.Total))
	for _, k := range sortedKeys(m.Requests.PerEndpoint) {
		p.sample("relmaxd_endpoint_requests_total", "counter",
			map[string]string{"endpoint": k}, float64(m.Requests.PerEndpoint[k]))
	}
	for _, k := range sortedKeys(m.Requests.PerStatus) {
		p.sample("relmaxd_status_requests_total", "counter",
			map[string]string{"class": k}, float64(m.Requests.PerStatus[k]))
	}
	p.sample("relmaxd_qps_lifetime", "gauge", nil, m.QPS.Lifetime)
	p.sample("relmaxd_qps_last_60s", "gauge", nil, m.QPS.Last60S)
	p.sample("relmaxd_latency_window_samples", "gauge", nil, float64(m.LatencyMS.Window))
	if m.LatencyMS.Window > 0 {
		p.sample("relmaxd_latency_ms", "gauge", map[string]string{"quantile": "0.5"}, m.LatencyMS.P50)
		p.sample("relmaxd_latency_ms", "gauge", map[string]string{"quantile": "0.9"}, m.LatencyMS.P90)
		p.sample("relmaxd_latency_ms", "gauge", map[string]string{"quantile": "0.99"}, m.LatencyMS.P99)
		p.sample("relmaxd_latency_ms_max", "gauge", nil, m.LatencyMS.Max)
	}

	p.sample("relmaxd_jobs_queued", "gauge", nil, float64(m.Jobs.Queued))
	p.sample("relmaxd_jobs_running", "gauge", nil, float64(m.Jobs.Running))
	p.sample("relmaxd_jobs_submitted_total", "counter", nil, float64(m.Jobs.Submitted))
	p.sample("relmaxd_jobs_completed_total", "counter", nil, float64(m.Jobs.Completed))
	p.sample("relmaxd_jobs_cancelled_total", "counter", nil, float64(m.Jobs.Cancelled))
	p.sample("relmaxd_jobs_failed_total", "counter", nil, float64(m.Jobs.Failed))
	p.sample("relmaxd_jobs_rejected_total", "counter", nil, float64(m.Jobs.Rejected))
	p.sample("relmaxd_cache_hits_total", "counter", nil, float64(m.Cache.Hits))
	p.sample("relmaxd_cache_misses_total", "counter", nil, float64(m.Cache.Misses))
	p.sample("relmaxd_cache_invalidated_total", "counter", nil, float64(m.Cache.Invalidated))
	p.sample("relmaxd_cache_warmed_total", "counter", nil, float64(m.Cache.Warmed))
	p.sample("relmaxd_cache_entries", "gauge", nil, float64(m.Cache.Len))
	p.sample("relmaxd_cache_capacity", "gauge", nil, float64(m.Cache.Cap))
	p.sample("relmaxd_anytime_estimates_total", "counter", nil, float64(m.Anytime.Estimates))
	p.sample("relmaxd_anytime_samples_used_total", "counter", nil, float64(m.Anytime.SamplesUsed))
	p.sample("relmaxd_anytime_samples_saved_total", "counter", nil, float64(m.Anytime.SamplesSaved))
	p.sample("relmaxd_precision_sheds_total", "counter", nil, float64(m.Anytime.PrecisionSheds))

	for _, name := range sortedKeys(m.Datasets) {
		dm := m.Datasets[name]
		ls := map[string]string{"dataset": name}
		p.sample("relmaxd_dataset_epoch", "gauge", ls, float64(dm.Epoch))
		p.sample("relmaxd_dataset_nodes", "gauge", ls, float64(dm.N))
		p.sample("relmaxd_dataset_edges", "gauge", ls, float64(dm.M))
		p.sample("relmaxd_dataset_requests_total", "counter", ls, float64(dm.Requests))
		p.sample("relmaxd_dataset_qps_last_60s", "gauge", ls, dm.QPS60S)
		p.sample("relmaxd_dataset_jobs_queued", "gauge", ls, float64(dm.Jobs.Queued))
		p.sample("relmaxd_dataset_jobs_running", "gauge", ls, float64(dm.Jobs.Running))
		p.sample("relmaxd_dataset_jobs_submitted_total", "counter", ls, float64(dm.Jobs.Submitted))
		p.sample("relmaxd_dataset_jobs_completed_total", "counter", ls, float64(dm.Jobs.Completed))
		p.sample("relmaxd_dataset_jobs_cancelled_total", "counter", ls, float64(dm.Jobs.Cancelled))
		p.sample("relmaxd_dataset_jobs_failed_total", "counter", ls, float64(dm.Jobs.Failed))
		p.sample("relmaxd_dataset_jobs_rejected_total", "counter", ls, float64(dm.Jobs.Rejected))
		p.sample("relmaxd_dataset_mutation_batches_total", "counter", ls, float64(dm.Mutations.Applies))
		p.sample("relmaxd_dataset_mutations_applied_total", "counter", ls, float64(dm.Mutations.Applied))
		p.sample("relmaxd_dataset_replicated_batches_total", "counter", ls, float64(dm.Mutations.ReplicatedApplies))
		p.sample("relmaxd_dataset_replicated_mutations_total", "counter", ls, float64(dm.Mutations.ReplicatedApplied))
		p.sample("relmaxd_dataset_delta_commits_total", "counter", ls, float64(dm.Mutations.DeltaCommits))
		p.sample("relmaxd_dataset_compactions_total", "counter", ls, float64(dm.Mutations.Compactions))
		p.sample("relmaxd_dataset_chain_depth", "gauge", ls, float64(dm.Mutations.ChainDepth))
		p.sample("relmaxd_dataset_cache_hits_total", "counter", ls, float64(dm.Cache.Hits))
		p.sample("relmaxd_dataset_cache_misses_total", "counter", ls, float64(dm.Cache.Misses))
		p.sample("relmaxd_dataset_cache_invalidated_total", "counter", ls, float64(dm.Cache.Invalidated))
		p.sample("relmaxd_dataset_cache_warmed_total", "counter", ls, float64(dm.Cache.Warmed))
		p.sample("relmaxd_dataset_cache_entries", "gauge", ls, float64(dm.Cache.Len))
		p.sample("relmaxd_dataset_anytime_estimates_total", "counter", ls, float64(dm.Anytime.Estimates))
		p.sample("relmaxd_dataset_anytime_samples_used_total", "counter", ls, float64(dm.Anytime.SamplesUsed))
		p.sample("relmaxd_dataset_anytime_samples_saved_total", "counter", ls, float64(dm.Anytime.SamplesSaved))
	}

	if m.Replication != nil {
		p.sample("relmaxd_role", "gauge", map[string]string{"role": m.Replication.Role}, 1)
		for _, name := range sortedKeys(m.Replication.Feeds) {
			fm := m.Replication.Feeds[name]
			ls := map[string]string{"dataset": name}
			p.sample("relmaxd_replication_feed_epoch", "gauge", ls, float64(fm.Epoch))
			p.sample("relmaxd_replication_feed_subscribers", "gauge", ls, float64(fm.Subscribers))
			p.sample("relmaxd_replication_feed_drops_total", "counter", ls, float64(fm.Drops))
		}
		for _, name := range sortedKeys(m.Replication.Followers) {
			fm := m.Replication.Followers[name]
			ls := map[string]string{"dataset": name}
			p.sample("relmaxd_replication_last_applied_epoch", "gauge", ls, float64(fm.LastAppliedEpoch))
			p.sample("relmaxd_replication_primary_epoch", "gauge", ls, float64(fm.PrimaryEpoch))
			p.sample("relmaxd_replication_lag", "gauge", ls, float64(fm.Lag))
			p.sample("relmaxd_replication_reconnects_total", "counter", ls, float64(fm.Reconnects))
			p.sample("relmaxd_replication_bootstraps_total", "counter", ls, float64(fm.Bootstraps))
			p.sample("relmaxd_replication_batches_applied_total", "counter", ls, float64(fm.BatchesApplied))
		}
	}

	p.write(w)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
