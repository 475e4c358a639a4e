package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"overd/internal/serve"
)

// TestRunJobServiceGracefulShutdown: the daemon serves jobs, and cancelling
// its context (the SIGINT/SIGTERM path in main) drains and returns nil.
func TestRunJobServiceGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boundc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- runJobService(ctx, "127.0.0.1:0", serve.Config{Workers: 1},
			func(bound string) { boundc <- bound })
	}()
	var base string
	select {
	case b := <-boundc:
		base = "http://" + b
	case err := <-errc:
		t.Fatalf("service exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("service never became ready")
	}

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"case":"airfoil","nodes":4,"steps":1,"scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(20 * time.Second)
	for v.Status != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", v.ID, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(base + "/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	cancel() // what SIGINT/SIGTERM does in main
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("service did not shut down after cancel")
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

// TestRunJobServiceBadAddr surfaces bind failures as errors, not hangs.
func TestRunJobServiceBadAddr(t *testing.T) {
	err := runJobService(context.Background(), "256.0.0.1:99999", serve.Config{}, nil)
	if err == nil {
		t.Fatal("expected bind error")
	}
	if !strings.Contains(err.Error(), "-serve") {
		t.Errorf("bind error %q does not name the flag", err)
	}
}
