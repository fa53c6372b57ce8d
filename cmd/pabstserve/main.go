// Command pabstserve runs the PABST sweep service: a long-running,
// fault-tolerant job system over the same exp.RunSpec unit of work the
// sweep CLI executes. Jobs are submitted and observed over REST:
//
//	POST /jobs      {"spec":{"bench":"streams","scale":"quick","params":{"slack":64}}}
//	GET  /jobs      all jobs            GET /jobs/{id}   one job
//	POST /drain     graceful drain      GET  /metrics    Prometheus text
//	GET  /healthz   liveness            GET  /readyz     readiness
//
// The queue is bounded (429 when full), retryable failures back off
// exponentially, panicking simulations fail only their own job, wedged
// workers are detected by heartbeat and replaced, and every accepted
// job is journaled: SIGTERM/SIGINT triggers a graceful drain in which
// in-flight jobs finish or checkpoint-and-requeue, and a restart over
// the same -dir recovers exactly the unfinished work. Re-execution is
// idempotent — a spec's fingerprint pins its bit-identical result.
//
// Usage:
//
//	pabstserve [-addr :8321] [-dir .pabstserve] [-queue n] [-jobs n]
//	           [-attempts n] [-smoke [-out f.json]]
//
// -smoke runs a self-contained end-to-end exercise (submit a batch over
// HTTP, wait, drain, verify the journal emptied) and writes a
// BENCH_serve.json receipt instead of serving forever.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pabst/internal/exp"
	"pabst/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "HTTP listen address")
	dir := flag.String("dir", ".pabstserve", "state directory (journal, partial checkpoints, warm store)")
	queue := flag.Int("queue", 64, "bounded queue depth (submissions beyond it get 429)")
	jobs := flag.Int("jobs", 2, "concurrent job executors")
	attempts := flag.Int("attempts", 3, "attempts per job before it fails")
	smoke := flag.Bool("smoke", false, "run the end-to-end smoke exercise and exit")
	out := flag.String("out", "BENCH_serve.json", "smoke receipt path")
	flag.Parse()

	cfg := serve.Config{
		Dir:         *dir,
		QueueDepth:  *queue,
		Workers:     *jobs,
		MaxAttempts: *attempts,
	}
	if *smoke {
		if err := runSmoke(cfg, *out); err != nil {
			fmt.Fprintf(os.Stderr, "pabstserve: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "pabstserve: %v\n", err)
		os.Exit(1)
	}
}

// run serves until SIGTERM/SIGINT, then drains gracefully.
func run(cfg serve.Config, addr string) error {
	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	svc.Start()
	srv := &http.Server{Addr: addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("pabstserve: listening on %s, state in %s\n", addr, cfg.Dir)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("pabstserve: draining (in-flight jobs finish or checkpoint-and-requeue)")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		return err
	}
	srv.Shutdown(dctx)
	fmt.Println("pabstserve: drained; queued work is journaled and recovers on restart")
	return svc.Close()
}

// smokeReport is the BENCH_serve.json document.
type smokeReport struct {
	Jobs                int     `json:"jobs"`
	Specs               int     `json:"specs"`
	WallSeconds         float64 `json:"wall_seconds"`
	SubmitToCompleteAvg float64 `json:"submit_to_complete_seconds_avg"`
	DrainSeconds        float64 `json:"drain_seconds"`
	JournalRecsAfter    int     `json:"journal_records_after_drain"`
	FingerprintsAgree   bool    `json:"fingerprints_agree"`
}

// runSmoke exercises the whole control plane over real HTTP with a
// sub-second scale: submit a batch, watch it complete, drain, and
// verify the journal compacted to empty. Duplicate specs must report
// identical result fingerprints — the determinism contract observed
// through the service.
func runSmoke(cfg serve.Config, out string) error {
	start := time.Now()
	dir, err := os.MkdirTemp("", "pabstserve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	cfg.Workers = 2
	cfg.Exec.Scales = map[string]exp.Scale{
		"smoke": {Name: "smoke", Warmup: 10_000, Measure: 15_000, Epoch: 2000, Window: 2000},
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	specs := []exp.RunSpec{
		{Bench: exp.BenchStreams, Scale: "smoke"},
		{Bench: exp.BenchStreams, Scale: "smoke", Params: map[string]uint64{"slack": 64}},
		{Bench: exp.BenchChaser, Scale: "smoke"},
	}
	const perSpec = 2
	for i := 0; i < perSpec; i++ {
		for _, spec := range specs {
			body, _ := json.Marshal(map[string]any{"spec": spec})
			resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("submit returned %s", resp.Status)
			}
		}
	}
	total := len(specs) * perSpec

	// Poll the REST surface until every job lands.
	deadline := time.Now().Add(5 * time.Minute)
	var views []serve.JobView
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke timed out with jobs %v", svc.Counts())
		}
		resp, err := http.Get(base + "/jobs")
		if err != nil {
			return err
		}
		views = views[:0]
		err = json.NewDecoder(resp.Body).Decode(&views)
		resp.Body.Close()
		if err != nil {
			return err
		}
		done := 0
		for _, v := range views {
			switch v.State {
			case serve.StateDone:
				done++
			case serve.StateFailed, serve.StateCanceled:
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
		}
		if done == total {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Duplicate specs must agree bit-for-bit.
	rep := smokeReport{Jobs: total, Specs: len(specs), FingerprintsAgree: true}
	bySpec := make(map[string]string)
	var latency time.Duration
	for _, v := range views {
		if prev, ok := bySpec[v.SpecFingerprint]; ok && prev != v.Result.Fingerprint {
			rep.FingerprintsAgree = false
		}
		bySpec[v.SpecFingerprint] = v.Result.Fingerprint
		if v.FinishedAt != nil {
			latency += v.FinishedAt.Sub(v.SubmittedAt)
		}
	}
	rep.SubmitToCompleteAvg = latency.Seconds() / float64(total)
	if !rep.FingerprintsAgree {
		return fmt.Errorf("duplicate specs produced different result fingerprints")
	}

	// Drain over HTTP; with nothing pending the journal compacts empty.
	dstart := time.Now()
	resp, err := http.Post(base+"/drain", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain returned %s", resp.Status)
	}
	rep.DrainSeconds = time.Since(dstart).Seconds()
	raw, err := os.ReadFile(dir + "/journal.jsonl")
	if err != nil {
		return err
	}
	rep.JournalRecsAfter = bytes.Count(raw, []byte("\n"))
	if rep.JournalRecsAfter != 0 {
		return fmt.Errorf("journal holds %d records after a clean drain", rep.JournalRecsAfter)
	}
	rep.WallSeconds = time.Since(start).Seconds()

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pabstserve smoke: %d jobs over HTTP in %.2fs (avg submit-to-complete %.2fs, drain %.3fs), journal empty — wrote %s\n",
		rep.Jobs, rep.WallSeconds, rep.SubmitToCompleteAvg, rep.DrainSeconds, out)
	return nil
}
