// Command pabstserve runs the PABST sweep service: a long-running,
// fault-tolerant job system over the same exp.RunSpec unit of work
// pabstsim executes. Jobs are submitted and observed over REST:
//
//	POST /jobs      {"spec":{"bench":"streams","scale":"quick","params":{"slack":64}}}
//	GET  /jobs      all jobs            GET /jobs/{id}   one job
//	POST /drain     graceful drain      GET  /metrics    Prometheus text
//	GET  /healthz   liveness            GET  /readyz     readiness
//
// The queue is bounded (429 when full), a job runs once and its first
// outcome is final (a run does no I/O, so a failure would repeat),
// panicking simulations fail only their own job, a run stops only
// through its context (its deadline, a drain or a shutdown), and every
// accepted job is journaled: SIGTERM/SIGINT triggers a graceful drain
// in which in-flight jobs finish or are requeued, and a restart over
// the same -dir recovers exactly the unfinished work and reruns it,
// warmup included. Re-execution is idempotent — a spec's fingerprint
// pins its bit-identical result — so a spec the running process has
// already completed is answered from its in-memory result cache.
//
// Usage:
//
//	pabstserve [-addr :8321] [-dir .pabstserve] [-queue n] [-jobs n]
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

// options are pabstserve's flags.
type options struct {
	addr, dir   string
	queue, jobs int
}

// register defines every flag on fs, landing in o.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", ":8321", "HTTP listen address")
	fs.StringVar(&o.dir, "dir", ".pabstserve", "state directory (the job journal)")
	fs.IntVar(&o.queue, "queue", 64, "bounded queue depth (submissions beyond it get 429)")
	fs.IntVar(&o.jobs, "jobs", 2, "concurrent job executors")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	cfg := serve.Config{Dir: o.dir, QueueDepth: o.queue, Workers: o.jobs}
	if err := run(cfg, o.addr); err != nil {
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
