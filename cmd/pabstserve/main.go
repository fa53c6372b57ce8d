// Command pabstserve runs the PABST sweep service: a long-running,
// fault-tolerant job system over the same exp.RunSpec unit of work
// pabstsim executes. Jobs are submitted and observed over REST:
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
// in-flight jobs finish or are requeued, and a restart over the same
// -dir recovers exactly the unfinished work and reruns it, warmup
// included. Re-execution is idempotent — a spec's fingerprint pins its
// bit-identical result — so a spec the running process has already
// completed is answered from its in-memory result cache.
//
// Usage:
//
//	pabstserve [-addr :8321] [-dir .pabstserve] [-queue n] [-jobs n]
//	           [-attempts n]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pabst/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a stalled connection cannot be held forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8321", "HTTP listen address")
	dir := flag.String("dir", ".pabstserve", "state directory (the job journal)")
	queue := flag.Int("queue", 64, "bounded queue depth (submissions beyond it get 429)")
	jobs := flag.Int("jobs", 2, "concurrent job executors")
	attempts := flag.Int("attempts", 3, "attempts per job before it fails")
	flag.Parse()

	cfg := serve.Config{
		Dir:         *dir,
		QueueDepth:  *queue,
		Workers:     *jobs,
		MaxAttempts: *attempts,
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
	srv := &http.Server{Addr: addr, Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
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
	fmt.Println("pabstserve: draining (in-flight jobs finish or are requeued)")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		return err
	}
	srv.Shutdown(dctx)
	fmt.Println("pabstserve: drained; queued work is journaled and recovers on restart")
	return svc.Close()
}
