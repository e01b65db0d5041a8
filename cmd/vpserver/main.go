// Command vpserver serves the experiment registry over HTTP: every
// scenario.Spec becomes a job on a bounded worker pool, every result
// is memoized in a content-addressed cache keyed by the canonical spec
// hash, and repeated requests — any of the 1,046 registry scenarios
// (68 plus 978 cache-benchmark cases), or any spec a client posts —
// are answered from the cache at lookup speed. The API is documented
// in docs/SERVER.md; the architecture in DESIGN.md §13.
//
// Usage:
//
//	vpserver [-addr :8344] [-workers N] [-trial-jobs N] [-cache-dir DIR]
//	         [-queue N] [-client-inflight N] [-max-wait D] [-drain D]
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, queued
// and running jobs finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vpsec/internal/server"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0: all cores)")
	trialJobs := flag.Int("trial-jobs", 1, "per-job trial concurrency (0: all cores; results identical at every value)")
	cacheDir := flag.String("cache-dir", "", "persist results under this directory (empty: in-memory cache only)")
	queue := flag.Int("queue", 0, "max queued jobs (0: 256)")
	clientInflight := flag.Int("client-inflight", 0, "max in-flight jobs per client (0: 64)")
	maxWait := flag.Duration("max-wait", 60*time.Second, "cap on synchronous wait=true requests")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget before running jobs are cancelled")
	flag.Parse()

	cfg := server.Config{
		Workers:        *workers,
		TrialJobs:      *trialJobs,
		QueueDepth:     *queue,
		ClientInFlight: *clientInflight,
		MaxWait:        *maxWait,
	}
	if *cacheDir != "" {
		disk, err := server.NewDiskStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = server.NewTieredStore(disk)
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("vpserver listening on %s (cache: %s)", *addr, cacheLabel(*cacheDir))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: draining (budget %s)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("drain: %v", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		log.Print("drain budget exceeded; running jobs cancelled")
	}
	log.Print("vpserver stopped")
}

// cacheLabel renders the cache configuration for the startup line.
func cacheLabel(dir string) string {
	if dir == "" {
		return "memory"
	}
	return fmt.Sprintf("memory + disk at %s", dir)
}
