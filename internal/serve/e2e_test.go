package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

// e2eGridConfig is the federation used on both sides of the equivalence
// check: the live service and the offline replay.
func e2eGridConfig() grid.Config {
	return grid.Config{
		Clusters: []grid.ClusterSpec{{M: 16}, {M: 8}, {M: 8}},
		Routing:  grid.LeastBacklog(),
	}
}

// postJSON posts a JSON body and decodes the response.
func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("cannot decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("cannot decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndServiceMatchesOfflineReplay is the acceptance test of the
// serve layer: a live server on an ephemeral port takes a concurrent
// burst from many goroutines, drains, and the final report must equal an
// offline grid replay of the identical submission stream (same jobs, same
// release stamps). Run under -race in CI.
func TestEndToEndServiceMatchesOfflineReplay(t *testing.T) {
	s, err := NewServer(Config{
		Grid: e2eGridConfig(),
		// A minute of wall clock is ~a year of virtual time: submissions
		// spread out over a wide virtual horizon, so batching is realistic.
		Speedup:         500_000,
		RefreshInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Generate a moldable workload and split it over N concurrent
	// submitters, some posting bulk chunks, some single jobs.
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 16, N: 96, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 8
	var (
		mu        sync.Mutex
		releases  = make(map[int]float64)
		tasksByID = make(map[int]moldable.Task)
	)
	for _, task := range inst.Tasks {
		tasksByID[task.ID] = task
	}
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var chunk []JobSpec
			for i := w; i < len(inst.Tasks); i += submitters {
				task := inst.Tasks[i]
				spec := JobSpec{ID: task.ID, Name: task.Name, Weight: task.Weight, Times: task.Times}
				if w%2 == 0 {
					chunk = append(chunk, spec)
					continue
				}
				var resp submitResponse
				code, _ := postJSON(t, client, ts.URL+"/jobs", spec, &resp)
				if code != http.StatusAccepted || len(resp.Accepted) != 1 {
					t.Errorf("single submit of job %d: code %d, resp %+v", task.ID, code, resp)
					return
				}
				mu.Lock()
				releases[resp.Accepted[0].ID] = resp.Accepted[0].Release
				mu.Unlock()
			}
			if len(chunk) > 0 {
				var resp submitResponse
				code, _ := postJSON(t, client, ts.URL+"/jobs", map[string]any{"jobs": chunk}, &resp)
				if code != http.StatusAccepted || len(resp.Accepted) != len(chunk) {
					t.Errorf("bulk submit of %d jobs: code %d, resp %+v", len(chunk), code, resp)
					return
				}
				mu.Lock()
				for _, acc := range resp.Accepted {
					releases[acc.ID] = acc.Release
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(releases) != len(inst.Tasks) {
		t.Fatalf("accepted %d of %d jobs", len(releases), len(inst.Tasks))
	}

	// Live observability answers while the server runs.
	var health healthResponse
	if code := getJSON(t, client, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if health.Status != "ok" || health.Jobs != len(inst.Tasks) {
		t.Fatalf("healthz = %+v, want ok with %d jobs", health, len(inst.Tasks))
	}
	anyID := inst.Tasks[0].ID
	var status JobStatus
	if code := getJSON(t, client, fmt.Sprintf("%s/jobs/%d", ts.URL, anyID), &status); code != http.StatusOK {
		t.Fatalf("job status returned %d", code)
	}
	if status.ID != anyID {
		t.Fatalf("job status %+v, want ID %d", status, anyID)
	}
	if code := getJSON(t, client, ts.URL+"/jobs/999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", code)
	}

	// Drain over HTTP and decode the final report.
	var final FinalReport
	if code, _ := postJSON(t, client, ts.URL+"/drain", map[string]any{}, &final); code != http.StatusOK {
		t.Fatalf("drain returned %d", code)
	}
	if final.Jobs != len(inst.Tasks) {
		t.Fatalf("final report covers %d jobs, want %d", final.Jobs, len(inst.Tasks))
	}

	// The offline replay of the identical stream: same tasks, the release
	// stamps the server handed back at submission time.
	var jobs []cluster.Job
	for id, release := range releases {
		jobs = append(jobs, cluster.Job{Task: tasksByID[id], Release: release})
	}
	offline, err := grid.New(e2eGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := offline.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if final.Metrics.Jobs != offRep.Metrics.Jobs {
		t.Fatalf("job counts differ: serve %d, offline %d", final.Metrics.Jobs, offRep.Metrics.Jobs)
	}
	if math.Abs(final.Metrics.Makespan-offRep.Metrics.Makespan) > 1e-6*math.Max(1, offRep.Metrics.Makespan) {
		t.Fatalf("makespan differs: serve %g, offline %g", final.Metrics.Makespan, offRep.Metrics.Makespan)
	}
	if math.Abs(final.Metrics.WeightedCompletion-offRep.Metrics.WeightedCompletion) > 1e-6*math.Max(1, offRep.Metrics.WeightedCompletion) {
		t.Fatalf("weighted completion differs: serve %g, offline %g",
			final.Metrics.WeightedCompletion, offRep.Metrics.WeightedCompletion)
	}
	if !reflect.DeepEqual(final.Metrics, offRep.Metrics) {
		t.Fatalf("full metrics differ:\nserve   %+v\noffline %+v", final.Metrics, offRep.Metrics)
	}

	// After the drain: /metrics shows a drained service whose histograms
	// cover every completed job, and the front door answers 503.
	var met metricsResponse
	if code := getJSON(t, client, ts.URL+"/metrics", &met); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if met.State != "drained" {
		t.Fatalf("metrics state %q, want drained", met.State)
	}
	if met.JobStates["done"] != len(inst.Tasks) {
		t.Fatalf("job states %v, want all %d done", met.JobStates, len(inst.Tasks))
	}
	if met.StretchHistogram.Count != len(inst.Tasks) || met.WaitHistogram.Count != len(inst.Tasks) {
		t.Fatalf("histograms cover %d / %d jobs, want %d each",
			met.StretchHistogram.Count, met.WaitHistogram.Count, len(inst.Tasks))
	}
	var resp submitResponse
	code, _ := postJSON(t, client, ts.URL+"/jobs", JobSpec{ID: 424242, Times: []float64{1}}, &resp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain returned %d, want 503", code)
	}
}

// TestHTTPRateLimitReturns429 pins the wire behaviour of the token
// bucket: 429 with a Retry-After header.
func TestHTTPRateLimitReturns429(t *testing.T) {
	s, err := NewServer(Config{
		Grid:            e2eGridConfig(),
		SubmitRate:      0.5, // one token every 2s: the second post must fail
		SubmitBurst:     1,
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var resp submitResponse
	code, _ := postJSON(t, client, ts.URL+"/jobs", JobSpec{ID: 1, Times: []float64{5}}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	code, hdr := postJSON(t, client, ts.URL+"/jobs", JobSpec{ID: 2, Times: []float64{5}}, &resp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit returned %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" || resp.RetryAfterSeconds <= 0 {
		t.Fatalf("429 came without a Retry-After hint: header %q, body %+v", hdr.Get("Retry-After"), resp)
	}
	// The header is clamped to >= 1: a sub-second computed backoff must
	// never surface as "Retry-After: 0".
	if retry, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || retry < 1 {
		t.Fatalf("Retry-After header %q is not an integer >= 1 (err %v)", hdr.Get("Retry-After"), err)
	}
	if resp.Error == "" {
		t.Fatal("429 came without an error message")
	}
}

// TestHTTPBadRequests pins the validation surface of POST /jobs.
func TestHTTPBadRequests(t *testing.T) {
	s, err := NewServer(Config{Grid: e2eGridConfig(), RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for name, body := range map[string]string{
		"garbage":          "{nope",
		"empty":            "",
		"no times":         `{"id": 1, "times": []}`,
		"duplicate in req": `[{"id": 1, "times": [5]}, {"id": 1, "times": [4]}]`,
		"empty array":      `[]`,
	} {
		resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: returned %d, want 400", name, resp.StatusCode)
		}
	}

	// A duplicate against the registry is a conflict, not a bad request.
	var resp submitResponse
	if code, _ := postJSON(t, client, ts.URL+"/jobs", JobSpec{ID: 9, Times: []float64{5}}, &resp); code != http.StatusAccepted {
		t.Fatalf("setup submit returned %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/jobs", JobSpec{ID: 9, Times: []float64{5}}, &resp); code != http.StatusConflict {
		t.Fatalf("registry duplicate returned %d, want 409", code)
	}
}
