package main

import "time"

// layers lists every per-layer metric a traced run prints, in order. A
// traced run reports all of them; a layer its workload does not call
// reads 0.
var layers = []struct{ name, unit string }{
	{"gen.ms", "ms"},
	{"dimacs.parse_ms", "ms"},
	{"dimacs.mb_per_s", "MB/s"},
	{"simplify.ms", "ms"},
	{"simplify.eliminated_vars", "count"},
	{"simplify.removed_clauses", "count"},
	{"core.ingest_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.conflicts", "count"},
	{"core.decisions", "count"},
	{"core.propagations", "count"},
	{"core.restarts", "count"},
	{"core.props_per_s", "1/s"},
	{"core.conflicts_per_s", "1/s"},
	{"core.learnt", "count"},
	{"core.deleted", "count"},
	{"core.arena_gcs", "count"},
	{"core.peak_live_clauses", "count"},
	{"core.top_clause_share", "ratio"},
	{"core.bin_prop_share", "ratio"},
	{"hard.search_share", "ratio"},
	{"large.simplify_share", "ratio"},
	{"snapshot.capture_ms", "ms"},
	{"pool.get_us", "us"},
	{"pool.put_us", "us"},
	{"pool.hit_ratio", "ratio"},
	{"pool.dropped", "count"},
	{"assume.solve_us", "us"},
	{"assume.unsat_share", "ratio"},
	{"assume.failed_len", "count"},
	{"groups.add_us", "us"},
	{"groups.release_us", "us"},
	{"groups.core_us", "us"},
	{"bmc.frame_us", "us"},
	{"bmc.depth_solve_ms", "ms"},
	{"bmc.queries", "count"},
	{"server.upload_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.requeued_share", "ratio"},
	{"server.proof_kb", "KB"},
	{"drup.check_ms", "ms"},
	{"portfolio.conflicts", "count"},
	{"portfolio.wasted_share", "ratio"},
	{"portfolio.shared", "count"},
	{"portfolio.imported", "count"},
	{"cube.split_ms", "ms"},
	{"cube.cubes", "count"},
	{"cube.refuted", "count"},
	{"cube.solved", "count"},
	{"cube.steals", "count"},
	{"cube.conflicts", "count"},
	{"cube.shared", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
}

// Span names. Each wraps one call into the layer it is named after.
const (
	spanGen            = "gen"
	spanParse          = "dimacs.parse"
	spanSimplify       = "simplify"
	spanIngest         = "core.ingest"
	spanSearch         = "core.search"
	spanCapture        = "snapshot.capture"
	spanPoolGet        = "pool.get"
	spanPoolPut        = "pool.put"
	spanAssume         = "assume.solve"
	spanGroupAdd       = "groups.add"
	spanGroupRelease   = "groups.release"
	spanGroupCore      = "groups.core"
	spanFrame          = "bmc.frame"
	spanDepthSolve     = "bmc.depth_solve"
	spanUpload         = "server.upload"
	spanRequest        = "server.request"
	spanQueue          = "server.queue"
	spanServerSolve    = "server.solve"
	spanCheckDRUP      = "drup.check"
	spanPortfolio      = "portfolio.solve"
	spanCubeSplit      = "cube.split"
	spanCubeSolve      = "cube.solve"
	spanVerify         = "verify"
	spanOneshot        = "oneshot.instance"
	spanQuery          = "incremental.query"
	spanBMC            = "bmc.circuit"
	spanParallelSolves = "parallel.instance"
)

// layerMetrics derives the per-layer metrics from one region's span times
// and boundary counts. Span times are per region (one pass, or the set-up);
// per-call figures are means over the region's calls.
func layerMetrics(lt map[string]layerTime, counts map[string]float64) map[string]float64 {
	m := map[string]float64{}
	total := func(name string) time.Duration { return lt[name].Total }
	mean := func(name string) time.Duration {
		if l := lt[name]; l.Calls > 0 {
			return l.Total / time.Duration(l.Calls)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if _, ok := lt[spanGen]; ok {
		m["gen.ms"] = ms(total(spanGen))
	}
	if _, ok := lt[spanCapture]; ok {
		m["snapshot.capture_ms"] = ms(mean(spanCapture))
	}
	if _, ok := lt[spanUpload]; ok {
		m["server.upload_ms"] = ms(mean(spanUpload))
	}
	if counts == nil {
		return m
	}
	for name, v := range counts {
		m[name] = v
	}

	m["dimacs.parse_ms"] = ms(total(spanParse))
	m["dimacs.mb_per_s"] = ratio(counts["dimacs.bytes"]/1e6, total(spanParse).Seconds())
	m["simplify.ms"] = ms(total(spanSimplify))
	m["core.ingest_ms"] = ms(total(spanIngest))
	search := lt[spanSearch].Self
	m["core.search_ms"] = ms(search)
	m["core.props_per_s"] = ratio(counts["core.propagations"], search.Seconds())
	m["core.conflicts_per_s"] = ratio(counts["core.conflicts"], search.Seconds())
	m["core.top_clause_share"] = ratio(counts["core.top_decisions"], counts["core.top_decisions"]+counts["core.global_decisions"])
	m["core.bin_prop_share"] = ratio(counts["core.bin_propagations"], counts["core.propagations"])

	m["pool.get_us"] = us(mean(spanPoolGet))
	m["pool.put_us"] = us(mean(spanPoolPut))
	m["pool.hit_ratio"] = ratio(counts["pool.hits"], counts["pool.hits"]+counts["pool.misses"])
	m["assume.solve_us"] = us(mean(spanAssume))
	m["assume.unsat_share"] = ratio(counts["assume.unsat"], counts["assume.queries"])
	m["assume.failed_len"] = ratio(counts["assume.failed_lits"], counts["assume.unsat"])
	m["groups.add_us"] = us(mean(spanGroupAdd))
	m["groups.release_us"] = us(mean(spanGroupRelease))
	m["groups.core_us"] = us(mean(spanGroupCore))
	m["bmc.frame_us"] = us(mean(spanFrame))
	m["bmc.depth_solve_ms"] = ms(mean(spanDepthSolve))

	m["server.queue_ms"] = ms(mean(spanQueue))
	m["server.solve_ms"] = ms(mean(spanServerSolve))
	if l := lt[spanRequest]; l.Calls > 0 {
		m["server.overhead_ms"] = ms(l.Self / time.Duration(l.Calls))
	}
	m["server.requeued_share"] = ratio(counts["server.requeued"], counts["server.requests"])
	m["server.proof_kb"] = ratio(counts["server.proof_bytes"]/1024, counts["server.proofs"])
	m["drup.check_ms"] = ms(mean(spanCheckDRUP))

	m["portfolio.wasted_share"] = ratio(counts["portfolio.loser_conflicts"], counts["portfolio.conflicts"])
	m["cube.split_ms"] = ms(total(spanCubeSplit))
	return m
}
