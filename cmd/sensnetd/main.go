// Command sensnetd is the topology-as-a-service daemon: it holds built
// SENS/HNG network snapshots in memory and serves route, stretch,
// coverage and lifetime queries over HTTP/JSON. Each route or stretch
// query is one measurement on its snapshot.
//
// Usage:
//
//	sensnetd -addr :8080 -preload kind:udg,side:25,lambda:16,seed:42
//	sensnetd -workers 16
//	sensnetd -preload kind:hng,side:20,baseradius:1 -check
//
// The -check flag builds the preload snapshot, prints its summary and
// exits without serving — a dry run for specs and scripts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon CLI against explicit streams and returns the
// process exit code — the testable core of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensnetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		preload = fs.String("preload", "", "snapshot spec to build and activate at startup, e.g. kind:udg,side:25,lambda:16,seed:42")
		workers = fs.Int("workers", 8, "bounded worker pool size (queries beyond it get 429)")
		check   = fs.Bool("check", false, "build the -preload snapshot, print its summary and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sensnetd: "+format+"\n", args...)
		return 1
	}

	if *check && *preload == "" {
		return fail("-check needs a -preload spec to build")
	}

	srv := serve.New(serve.Config{Workers: *workers})

	if *preload != "" {
		spec, err := parsePreload(*preload)
		if err != nil {
			return fail("%v", err)
		}
		snap, err := serve.Build(spec)
		if err != nil {
			return fail("preload build: %v", err)
		}
		live, _ := srv.Store().Add(snap, true, false)
		if err := emitInfo(stdout, live.Info); err != nil {
			return fail("encode: %v", err)
		}
		if *check {
			return 0
		}
	}

	httpSrv := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "sensnetd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		return fail("serve: %v", err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail("shutdown: %v", err)
	}
	fmt.Fprintln(stdout, "sensnetd: drained, exiting")
	return 0
}

// Connection timeouts of the daemon's HTTP server. A client must send its
// request headers within readHeaderTimeout and its whole request within
// readTimeout, and an idle keep-alive connection is closed after
// idleTimeout, so a slow or silent client cannot hold a connection forever.
// There is no write timeout: snapshot builds run on the request goroutine
// and may legitimately take longer than any fixed bound.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for handler on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parsePreload parses the -preload spec "key:value,..." into a BuildSpec.
// Keys mirror the POST /snapshots JSON fields (lower-case).
func parsePreload(spec string) (serve.BuildSpec, error) {
	var sp serve.BuildSpec
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return sp, fmt.Errorf("bad -preload entry %q (want key:value)", part)
		}
		var err error
		switch key {
		case "kind":
			sp.Kind = val
		case "mode":
			sp.Mode = val
		case "seed":
			sp.Seed, err = strconv.ParseUint(val, 10, 64)
		case "stream":
			sp.Stream, err = strconv.ParseUint(val, 10, 64)
		case "side":
			sp.Side, err = strconv.ParseFloat(val, 64)
		case "lambda":
			sp.Lambda, err = strconv.ParseFloat(val, 64)
		case "genside":
			sp.GenSide, err = strconv.ParseFloat(val, 64)
		case "p":
			sp.P, err = strconv.ParseFloat(val, 64)
		case "maxchildren":
			sp.MaxChildren, err = strconv.Atoi(val)
		case "baseradius":
			sp.BaseRadius, err = strconv.ParseFloat(val, 64)
		case "slabcap":
			sp.SlabCap, err = strconv.Atoi(val)
		default:
			return sp, fmt.Errorf("unknown -preload key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("bad -preload value for %q: %q", key, val)
		}
	}
	return sp, nil
}

// emitInfo prints one snapshot's summary as indented JSON.
func emitInfo(w io.Writer, info serve.SnapshotInfo) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
}
