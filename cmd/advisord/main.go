// Command advisord serves the layout advisor as a long-running multi-tenant
// HTTP daemon: clients upload a problem document per tenant, then request
// layout recommendations, failure repairs and simulated journaled migrations
// over a REST-ish API. See internal/server and the "Advisor as a service"
// section of README.md for the API and DESIGN.md for the service contract.
//
// Usage:
//
//	advisord -addr :8080 [-data DIR] [-solver-workers N] [-queue N]
//	         [-budget 30s] [-full-calibration]
//	         [-v | -log-level L] [-metrics-out f] [-listen addr] ...
//
// Endpoints:
//
//	PUT    /v1/tenants/{id}            upload/replace the problem document
//	GET    /v1/tenants/{id}            tenant state summary
//	DELETE /v1/tenants/{id}            remove the tenant (and its journal)
//	POST   /v1/tenants/{id}/workloads  replace the workload set
//	POST   /v1/tenants/{id}/trace      fit workloads from a JSONL block trace
//	POST   /v1/tenants/{id}/advise     recommend a layout (cached per state)
//	POST   /v1/tenants/{id}/repair     replan around failed targets
//	POST   /v1/tenants/{id}/migrate    start a journaled simulated migration
//	GET    /v1/tenants/{id}/migration  migration progress
//	GET    /healthz                    liveness
//	GET    /metrics, /metrics.json, /series, /debug/pprof/
//
// With -data the daemon persists problem documents and migration journals;
// a restart restores every tenant and resumes in-flight migrations
// exactly-once from their write-ahead journals. Without -data everything is
// in-memory and migration endpoints return 503.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener drains
// in-flight requests, running migrations stop at a journal record boundary
// (to be resumed on the next start), and metrics files are flushed.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dblayout/internal/obs"
	"dblayout/internal/server"
)

func run() error {
	addr := flag.String("addr", ":8080", "HTTP listen address for the advisor API")
	dataDir := flag.String("data", "", "directory for tenant documents and migration journals (empty = in-memory, no migrations)")
	workers := flag.Int("solver-workers", 0, "max concurrent solver-bound requests (0 = GOMAXPROCS/2)")
	queue := flag.Int("queue", 0, "max requests waiting for a solver slot beyond the pool (0 = 4x workers)")
	budget := flag.Duration("budget", 30*time.Second, "default and maximum per-request solve budget")
	fullCal := flag.Bool("full-calibration", false, "calibrate built-in device models on the full grid (minutes per device type; default uses the fast grid)")
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()

	// The daemon owns SIGINT/SIGTERM from the start, so a signal that
	// arrives while tenants are restored, or right after the listening
	// line, still takes the graceful path below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	sess, err := cli.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "advisord: closing observability outputs:", cerr)
		}
	}()

	reg := sess.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	srv, err := server.New(server.Options{
		DataDir:         *dataDir,
		Workers:         *workers,
		QueueDepth:      *queue,
		SolveBudget:     *budget,
		FastCalibration: !*fullCal,
		Logger:          sess.Logger,
		Registry:        reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := obs.NewServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("advisord listening on %s\n", ln.Addr())

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "advisord: %v, shutting down\n", got)
		signal.Stop(sig)
		if err := obs.Shutdown(httpSrv, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "advisord: draining listener:", err)
		}
		srv.Close()
		return nil
	case err := <-errc:
		return err
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "advisord:", err)
		os.Exit(1)
	}
}
