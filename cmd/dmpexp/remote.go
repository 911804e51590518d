package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"dmp/internal/exp"
	"dmp/internal/serve"
)

// runRemote sends the experiment request to a dmpserve daemon instead
// of simulating locally, printing the returned tables in requested
// order so stdout is byte-identical to a local run. The daemon's
// result-cache delta replaces the local cache summary on stderr
// (adding the store-hit count a local run cannot have). Returns the
// process exit code.
func runRemote(base string, ids []string, opts exp.Options) int {
	start := time.Now()
	body, err := json.Marshal(serve.ExperimentsRequest{
		IDs:        ids,
		Benchmarks: opts.Benchmarks,
		Scale:      opts.Scale,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: remote: %v\n", err)
		return 1
	}
	url := strings.TrimSuffix(base, "/") + "/v1/experiments?wait=1"
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: remote: %v\n", err)
		return 1
	}
	req.Header.Set("Content-Type", "application/json")
	host, _ := os.Hostname()
	req.Header.Set("X-DMP-Client", "dmpexp@"+host)
	// Experiments can run for minutes; rely on the server, not a client
	// timeout, to bound the wait.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: remote: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		fmt.Fprintf(os.Stderr, "dmpexp: remote: server overloaded, retry after %ss\n",
			resp.Header.Get("Retry-After"))
		return 1
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "dmpexp: remote: %s: %s\n", resp.Status, strings.TrimSpace(string(msg)))
		return 1
	}
	var st serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: remote: decode response: %v\n", err)
		return 1
	}

	failed := 0
	for _, tb := range st.Tables {
		if tb.Error != "" {
			failed++
			fmt.Fprintf(os.Stderr, "dmpexp: %s: %s\n", tb.ID, tb.Error)
			continue
		}
		fmt.Print(tb.Text)
		fmt.Println()
	}
	var reused, storeHits, simulated uint64
	if st.Counts != nil {
		reused, storeHits, simulated = st.Counts.Reused, st.Counts.StoreHits, st.Counts.Simulated
	}
	fmt.Fprintf(os.Stderr, "total %.1fs; result cache: %d simulations, %d store hits, %d reused\n",
		time.Since(start).Seconds(), simulated, storeHits, reused)
	if failed > 0 || st.State != "done" {
		if st.State != "done" && failed == 0 {
			fmt.Fprintf(os.Stderr, "dmpexp: remote: run %s: %s\n", st.State, st.Error)
		}
		return 1
	}
	return 0
}
