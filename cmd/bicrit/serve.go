package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bicriteria"
)

// serveCmd runs one scenario file as a live scheduler service. The bound
// address is sent on bound when non-nil (tests use -addr with port 0);
// a value on stop drains the service like SIGINT does.
func serveCmd(args []string, out io.Writer, bound chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("bicrit serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address of the HTTP API")
	debugAddr := fs.String("debug-addr", "", "optional listen address of the pprof endpoints (kept off the API port)")
	logLevel := fs.String("log-level", "", "emit structured logs at this level (debug, info, warn, error); silent when empty")
	logJSON := fs.Bool("log-json", false, "structured logs as JSON instead of logfmt-style text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bicrit serve [-addr :8080] [-debug-addr :6060] scenario.json")
	}
	logger, err := bicriteria.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	scn, err := bicriteria.LoadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg, err := bicriteria.ScenarioServeConfig(scn)
	if err != nil {
		return err
	}
	cfg.Logger = logger
	server, err := bicriteria.NewServeServer(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if bound != nil {
		bound <- ln.Addr().String()
	}
	httpSrv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			httpSrv.Close()
			return err
		}
		debugSrv := &http.Server{Handler: bicriteria.ServeDebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		defer debugSrv.Close()
		go func() { debugSrv.Serve(dln) }()
		fmt.Fprintf(out, "pprof on %s/debug/pprof/\n", dln.Addr())
	}
	name := scn.Name
	if name == "" {
		name = fs.Arg(0)
	}
	fmt.Fprintf(out, "bicrit serve: scenario %q listening on %s (%d clusters)\n",
		name, ln.Addr(), len(cfg.Grid.Clusters))
	if restored := server.CountersSnapshot().Restored; restored > 0 {
		fmt.Fprintf(out, "restored %d jobs from snapshot %s\n", restored, cfg.SnapshotPath)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case <-sig:
	case <-stop:
	}

	fmt.Fprintln(out, "draining...")
	rep, err := server.Drain()
	if err != nil {
		httpSrv.Close()
		return err
	}
	bicriteria.WriteServeFinalReport(out, rep)
	return httpSrv.Close()
}
