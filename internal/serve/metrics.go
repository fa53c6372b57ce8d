package serve

import (
	"sync/atomic"

	"pabst/internal/obs"
)

// metrics are the service's lifetime counters. Everything is atomic so
// gauges sample without the service lock.
type metrics struct {
	submitted   atomic.Int64
	rejected    atomic.Int64
	started     atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	canceled    atomic.Int64
	requeued    atomic.Int64
	recovered   atomic.Int64
	panics      atomic.Int64
	journalErrs atomic.Int64
	latencyNS   atomic.Int64 // summed submit→complete latency
}

// Registry builds an obs registry over the service's live state: job
// counters, queue/worker gauges, cumulative submit-to-complete latency,
// and the result cache's hits (jobs answered without a machine). The REST layer
// renders it at /metrics.
func (s *Service) Registry() *obs.Registry {
	r := obs.NewRegistry()
	counter := func(name string, c *atomic.Int64) {
		r.Register(name, func() float64 { return float64(c.Load()) })
	}
	counter("pabst_serve_jobs_submitted_total", &s.m.submitted)
	counter("pabst_serve_jobs_rejected_total", &s.m.rejected)
	counter("pabst_serve_attempts_started_total", &s.m.started)
	counter("pabst_serve_jobs_completed_total", &s.m.completed)
	counter("pabst_serve_jobs_failed_total", &s.m.failed)
	counter("pabst_serve_jobs_canceled_total", &s.m.canceled)
	counter("pabst_serve_jobs_requeued_total", &s.m.requeued)
	counter("pabst_serve_jobs_recovered_total", &s.m.recovered)
	counter("pabst_serve_job_panics_total", &s.m.panics)
	counter("pabst_serve_journal_errors_total", &s.m.journalErrs)
	r.Register("pabst_serve_submit_to_complete_seconds_sum", func() float64 {
		return float64(s.m.latencyNS.Load()) / 1e9
	})
	r.Register("pabst_serve_queue_depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	r.Register("pabst_serve_inflight", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	r.Register("pabst_serve_workers_live", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.liveWorkers)
	})
	r.Register("pabst_serve_draining", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	r.Register("pabst_result_cache_hits_total", func() float64 {
		return float64(s.cfg.Exec.Results.Hits())
	})
	return r
}
