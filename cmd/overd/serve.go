package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"overd/internal/serve"
)

// runJobService runs the multi-tenant job service (-serve):
// it binds addr, serves internal/serve's HTTP API, and blocks until ctx is
// cancelled — then drains gracefully, refusing new work while queued and
// running jobs finish. ready (may be nil) is told the bound address once the
// listener is up, which makes ":0" usable in tests.
func runJobService(ctx context.Context, addr string, cfg serve.Config, ready func(bound string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-serve %s: %v", addr, err)
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	s.Start()
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}
	select {
	case err := <-served:
		// The listener failed out from under us; still drain admitted work.
		drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(drain)
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return err
	}
	return s.Shutdown(drain)
}
