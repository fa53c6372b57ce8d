package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pabst/internal/config"
	"pabst/internal/exp"
)

// call drives one request through the handler and returns the status
// and the response body.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// submitBody renders a spec the way REST clients (and bench/) do.
func submitBody(t testing.TB, spec exp.RunSpec) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// journalRecords counts the records in a service directory's journal.
func journalRecords(t testing.TB, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(raw, []byte("\n"))
}

// TestHTTPRoundTrip drives the whole REST surface against a stub
// runner: admission and its status codes, job views, duplicate specs
// agreeing on their result fingerprint, readiness across a drain,
// metrics, and the journal compacting to empty after a clean drain.
func TestHTTPRoundTrip(t *testing.T) {
	release := make(chan struct{})
	gated := func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		select {
		case <-release:
			return okRunner(ctx, spec, ex)
		case <-ctx.Done():
			return exp.RunResult{}, ctx.Err()
		}
	}
	cfg := testConfig(t, gated)
	cfg.QueueDepth = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	h := s.Handler()

	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := call(h, "GET", path, nil); code != http.StatusOK {
			t.Fatalf("GET %s = %d before drain", path, code)
		}
	}
	for name, body := range map[string][]byte{
		"malformed":     []byte(`{"spec":`),
		"unknown bench": submitBody(t, exp.RunSpec{Bench: "nope", Scale: "tiny"}),
		"unknown scale": submitBody(t, exp.RunSpec{Bench: exp.BenchStreams, Scale: "galactic"}),
	} {
		if code, resp := call(h, "POST", "/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: POST /jobs = %d %s, want 400", name, code, resp)
		}
	}

	// Two copies of three specs: the two workers hold one job each behind
	// the gate, QueueDepth more wait, and the next submission bounces.
	specs := []exp.RunSpec{
		tinySpec(),
		{Bench: exp.BenchStreams, Scale: "tiny", Params: map[string]uint64{"slack": 64}},
		{Bench: exp.BenchChaser, Scale: "tiny", Policy: "pabst+dpq"},
	}
	var ids []string
	for i := 0; i < 2*len(specs); i++ {
		spec := specs[i%len(specs)]
		code, resp := call(h, "POST", "/jobs", submitBody(t, spec))
		var v JobView
		if err := json.Unmarshal(resp, &v); err != nil || code != http.StatusAccepted {
			t.Fatalf("submit %d = %d %s (%v), want 202 + JobView", i, code, resp, err)
		}
		if v.ID == "" || v.SpecFingerprint != spec.Fingerprint() {
			t.Fatalf("submit %d returned view %+v", i, v)
		}
		ids = append(ids, v.ID)
		if i < cfg.Workers {
			mustState(t, s, v.ID, StateRunning)
		}
	}
	if code, resp := call(h, "POST", "/jobs", submitBody(t, tinySpec())); code != http.StatusTooManyRequests {
		t.Fatalf("submit past QueueDepth = %d %s, want 429", code, resp)
	}
	if code, _ := call(h, "GET", "/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}

	close(release)
	for _, id := range ids {
		mustState(t, s, id, StateDone)
	}
	code, resp := call(h, "GET", "/jobs", nil)
	var views []JobView
	if err := json.Unmarshal(resp, &views); err != nil || code != http.StatusOK || len(views) != len(ids) {
		t.Fatalf("GET /jobs = %d, %d views (%v), want %d", code, len(views), err, len(ids))
	}
	bySpec := map[string]string{}
	for _, v := range views {
		if v.Result == nil || v.Result.Fingerprint == "" {
			t.Fatalf("job %s done without a result fingerprint", v.ID)
		}
		if prev, ok := bySpec[v.SpecFingerprint]; ok && prev != v.Result.Fingerprint {
			t.Errorf("duplicate specs disagree: %s vs %s", prev, v.Result.Fingerprint)
		}
		bySpec[v.SpecFingerprint] = v.Result.Fingerprint
	}
	if len(bySpec) != len(specs) {
		t.Errorf("%d distinct spec fingerprints, want %d", len(bySpec), len(specs))
	}
	code, resp = call(h, "GET", "/jobs/"+ids[0], nil)
	var one JobView
	if err := json.Unmarshal(resp, &one); err != nil || code != http.StatusOK || one.ID != ids[0] || one.State != StateDone {
		t.Fatalf("GET /jobs/%s = %d %s", ids[0], code, resp)
	}
	if code, resp := call(h, "GET", "/metrics", nil); code != http.StatusOK ||
		!strings.Contains(string(resp), "pabst_serve_jobs_completed_total 6") {
		t.Errorf("GET /metrics = %d:\n%s", code, resp)
	}

	if code, resp := call(h, "POST", "/drain", nil); code != http.StatusOK {
		t.Fatalf("POST /drain = %d %s", code, resp)
	}
	if code, _ := call(h, "GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz = %d after drain, want 503", code)
	}
	if code, _ := call(h, "POST", "/jobs", submitBody(t, tinySpec())); code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain = %d, want 503", code)
	}
	if n := journalRecords(t, cfg.Dir); n != 0 {
		t.Errorf("journal holds %d records after a clean drain", n)
	}
}

// TestFaultMustBePreset pins the trust boundary on RunSpec.Fault: a fault
// plan is named by preset and never by path, for a REST client, a journal
// record and Exec.Resolve alike. The path here holds a valid plan, so
// a resolution that read it would accept the job; Resolve refuses it
// before any file is opened.
func TestFaultMustBePreset(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	byPath := exp.RunSpec{Bench: exp.BenchStreams, Scale: "quick", Fault: plan}
	if _, _, err := (exp.Exec{}).Resolve(byPath); !errors.Is(err, config.ErrInvalid) || !strings.Contains(err.Error(), "sat-partition") {
		t.Fatalf("Resolve of a path-valued fault = %v, want config.ErrInvalid naming the presets", err)
	}
	byPath.Scale = "tiny"
	ran := make(chan exp.RunSpec, 1)
	cfg := testConfig(t, func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		ran <- spec
		return okRunner(ctx, spec, ex)
	})

	// A journal a previous incarnation (or anyone else) left behind.
	jl, err := openJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(rec{Op: opSubmit, ID: "j-000003", Spec: &byPath}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	h := s.Handler()

	v, err := s.Get("j-000003")
	if err != nil || v.State != StateFailed || !strings.Contains(v.Error, "unknown preset") {
		t.Fatalf("recovered path-valued fault = %+v, %v; want a failed job", v, err)
	}
	code, resp := call(h, "POST", "/jobs", submitBody(t, byPath))
	if code != http.StatusBadRequest || !strings.Contains(string(resp), "unknown preset") {
		t.Fatalf("POST /jobs with a path-valued fault = %d %s, want 400", code, resp)
	}
	code, resp = call(h, "POST", "/jobs", submitBody(t, exp.RunSpec{Bench: exp.BenchStreams, Scale: "tiny", Fault: "sat-drop"}))
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs with a preset fault = %d %s, want 202", code, resp)
	}
	if spec := <-ran; spec.Fault != "sat-drop" {
		t.Fatalf("runner saw %+v; the path-valued jobs must never reach it", spec)
	}

	big := append([]byte(`{"spec":{"bench":"`), bytes.Repeat([]byte("x"), 2<<20)...)
	if code, _ := call(h, "POST", "/jobs", append(big, `","scale":"tiny"}}`...)); code != http.StatusBadRequest {
		t.Fatalf("2 MiB body = %d, want 400", code)
	}
}

// hostileBodies are REST bodies whose params name a machine that cannot
// build. The first used to validate, get journaled, and kill the
// process in the DRAM controller's allocator (a fatal out-of-memory, not
// a panic invoke could recover) — again on every restart, since the
// journal replayed it. The second silently ran closed-page under a
// second fingerprint. The last names a parameter this build no longer
// has, which a journal written by an older build may still hold.
var hostileBodies = []string{
	`{"spec":{"bench":"streams","scale":"tiny","params":{"queue":8589934592}}}`,
	`{"spec":{"bench":"streams","scale":"tiny","params":{"page":7}}}`,
	`{"spec":{"bench":"streams","scale":"tiny","params":{"bankq":2}}}`,
	`{"spec":{"bench":"streams","scale":"tiny","params":{"noc":1},"fault":"noc-storm"}}`,
}

// TestHostileParamsRejected pins the trust boundary on RunSpec.Params:
// admission answers 400 with config.ErrInvalid and journals
// nothing, and a journal that already holds such a submit record
// recovers to a failed job — recovery resolves the spec as admission
// does, before any runner sizes a single queue.
func TestHostileParamsRejected(t *testing.T) {
	cfg := testConfig(t, nil) // nil: ExpRunner, the path a real job takes
	jl, err := openJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []exp.RunSpec
	for i, body := range hostileBodies {
		var req submitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, req.Spec)
		if err := jl.append(rec{Op: opSubmit, ID: fmt.Sprintf("j-%06d", i), Spec: &req.Spec}); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	for i := range hostileBodies {
		id := fmt.Sprintf("j-%06d", i)
		mustState(t, s, id, StateFailed)
		if v, _ := s.Get(id); v.Requeues != 0 || !strings.Contains(v.Error, config.ErrInvalid.Error()) {
			t.Errorf("recovered %s = %+v; want one invalid-configuration failure", hostileBodies[i], v)
		}
	}

	h := s.Handler()
	before := journalRecords(t, cfg.Dir)
	for i, body := range hostileBodies {
		code, resp := call(h, "POST", "/jobs", []byte(body))
		if code != http.StatusBadRequest || !strings.Contains(string(resp), config.ErrInvalid.Error()) {
			t.Errorf("POST /jobs %s = %d %s, want 400 invalid configuration", body, code, resp)
		}
		_, err := s.Submit(specs[i], SubmitOptions{})
		if !errors.Is(err, config.ErrInvalid) {
			t.Errorf("Submit(%+v) = %v, want config.ErrInvalid", specs[i], err)
		}
	}
	if n := journalRecords(t, cfg.Dir) - before; n != 0 {
		t.Errorf("rejected bodies left %d journal records", n)
	}
}

// strictBodies are REST bodies a lenient decoder would admit as some
// other request: a misspelled field (here "parms") silently ran the
// default slack under the default fingerprint. The last names the
// attempt budget a job no longer has.
var strictBodies = []string{
	`{"spec":{"bench":"streams","scale":"tiny","parms":{"slack":64}}}`,
	`{"spec":{"bench":"streams","scale":"tiny"},"options":{"max_attempts":1}}`,
	`{"spec":{"bench":"streams","scale":"tiny","params":{"slack":64}}}{"spec":{"bench":"chaser","scale":"tiny"}}`,
	`{"spec":{"bench":"streams","scale":"tiny"}} trailing`,
	`{"spec":{"bench":"streams","scale":"tiny"},"opts":{"max_attempts":2}}`,
}

// TestSubmitRefusesUnknownFields pins the trust boundary on the body's
// shape: an unknown field or data after the request object answers 400
// and journals nothing, while trailing whitespace is still a request.
func TestSubmitRefusesUnknownFields(t *testing.T) {
	cfg := testConfig(t, okRunner)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, body := range strictBodies {
		before := journalRecords(t, cfg.Dir)
		code, resp := call(h, "POST", "/jobs", []byte(body))
		if code != http.StatusBadRequest || !strings.Contains(string(resp), "bad request body") {
			t.Errorf("POST /jobs %s = %d %s, want 400 bad request body", body, code, resp)
		}
		if n := journalRecords(t, cfg.Dir) - before; n != 0 {
			t.Errorf("POST /jobs %s left %d journal records", body, n)
		}
	}
	if code, resp := call(h, "POST", "/jobs", []byte(`{"spec":{"bench":"streams","scale":"tiny"}}`+"\n")); code != http.StatusAccepted {
		t.Errorf("POST /jobs with a trailing newline = %d %s, want 202", code, resp)
	}
}

// FuzzSubmitBody: arbitrary bytes into POST /jobs never panic, answer
// with one of the documented statuses, and are accepted only as a spec
// that resolves at its scale, with exactly one journal record behind it.
func FuzzSubmitBody(f *testing.F) {
	// The bodies bench/'s sweep workload posts, one per bench and policy.
	for _, spec := range []exp.RunSpec{
		{Bench: exp.BenchStreams, Scale: "tiny", Params: map[string]uint64{"scalef": 128}, Policy: "pabst+pabst"},
		{Bench: exp.BenchChaser, Scale: "tiny", Params: map[string]uint64{"burst": 8}, Policy: "bankreg+pabst"},
		{Bench: exp.BenchWStreams, Scale: "tiny", Params: map[string]uint64{"slack": 64}, Policy: "pabst+dpq", Load: 12},
	} {
		f.Add(submitBody(f, spec))
	}
	f.Add([]byte(`{"spec":{"bench":"streams","scale":"quick","fault":"/etc/hostname"}}`))
	f.Add([]byte(`{"spec":{"bench":"streams","scale":"tiny","fault":"sat-drop"},"opts":{"deadline_ms":50}}`))
	f.Add([]byte(`{"spec":`))
	for _, body := range hostileBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(strictBodies[0]))
	// A preset whose heartbeat lag is valid at the paper's epoch and not
	// under quick's, and a fault named by a path that exists.
	f.Add([]byte(`{"spec":{"bench":"streams","scale":"quick","fault":"sat-delay"}}`))
	f.Add([]byte(`{"spec":{"bench":"streams","scale":"quick","fault":"go.mod"}}`))
	// One service for the whole run, never started: an accepted job stays
	// queued, so all it leaves behind is its submit record. (A service per
	// input costs three fsyncs an input, which starves the mutator.)
	cfg := testConfig(f, okRunner)
	cfg.QueueDepth = 1 << 30
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := journalRecords(t, cfg.Dir)
		code, resp := call(h, "POST", "/jobs", body)
		records := journalRecords(t, cfg.Dir) - before
		switch code {
		case http.StatusAccepted:
			var v JobView
			if err := json.Unmarshal(resp, &v); err != nil {
				t.Fatalf("202 without a JobView: %s", resp)
			}
			if _, _, err := cfg.Exec.Resolve(v.Spec); err != nil {
				t.Fatalf("accepted %+v, which does not resolve at its scale: %v", v.Spec, err)
			}
			if records != 1 {
				t.Fatalf("accepted job has %d journal records, want 1", records)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if records != 0 {
				t.Fatalf("status %d left %d journal records", code, records)
			}
		default:
			t.Fatalf("POST /jobs = %d %s", code, resp)
		}
	})
}

// TestSubmitJournalFailureIs500: a journal the service cannot append to
// is the server's fault, not the client's: POST /jobs answers 500 and
// admits nothing.
func TestSubmitJournalFailureIs500(t *testing.T) {
	s, err := New(testConfig(t, okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	if err := s.journal.f.Close(); err != nil {
		t.Fatal(err)
	}
	code, resp := call(h, "POST", "/jobs", submitBody(t, tinySpec()))
	if code != http.StatusInternalServerError {
		t.Fatalf("POST /jobs with a closed journal = %d %s, want 500", code, resp)
	}
	if n, m := len(s.List()), s.m.submitted.Load(); n != 0 || m != 0 {
		t.Fatalf("failed journal append admitted %d jobs (%d counted)", n, m)
	}
}

// TestResultCacheAnswersResubmission: through the real simulator, two
// workers and the service's one result cache, a resubmitted spec ends
// done after one run with the first run's result fingerprint, keeps
// its submit and done journal records, builds no machine (every run a
// cache hit, nothing new stored), and shows on /metrics as a cache hit.
func TestResultCacheAnswersResubmission(t *testing.T) {
	var runs atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec exp.RunSpec, ex exp.Exec) (exp.RunResult, error) {
		runs.Add(1)
		return ExpRunner(ctx, spec, ex)
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	h := s.Handler()
	specs := []exp.RunSpec{tinySpec(), {Bench: exp.BenchChaser, Scale: "tiny", Policy: "pabst+dpq"}}
	submit := func(copies int) []JobView {
		var ids []string
		for i := 0; i < copies; i++ {
			for _, spec := range specs {
				v, err := s.Submit(spec, SubmitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, v.ID)
			}
		}
		views := make([]JobView, len(ids))
		for i, id := range ids {
			mustState(t, s, id, StateDone)
			views[i], _ = s.Get(id)
		}
		return views
	}

	firstRun := map[string]string{} // spec fingerprint -> result fingerprint
	for _, v := range submit(1) {
		firstRun[v.SpecFingerprint] = v.Result.Fingerprint
	}
	again := submit(2)
	if n := s.cfg.Exec.Results.Len(); n != len(specs) {
		t.Fatalf("resubmissions left %d results in the cache, want the first round's %d", n, len(specs))
	}
	for _, v := range again {
		if v.Requeues != 0 || v.StartedAt == nil || v.FinishedAt == nil {
			t.Fatalf("cached job %s: requeues %d, started %v, finished %v",
				v.ID, v.Requeues, v.StartedAt, v.FinishedAt)
		}
		if want := firstRun[v.SpecFingerprint]; v.Result == nil || v.Result.Fingerprint != want {
			t.Fatalf("cached job %s answered %+v, want result fingerprint %s", v.ID, v.Result, want)
		}
	}
	if n := runs.Load(); n != int64(len(specs)+len(again)) {
		t.Fatalf("runner called %d times, want once per job (%d)", n, len(specs)+len(again))
	}
	if hits := s.cfg.Exec.Results.Hits(); hits != uint64(len(again)) {
		t.Fatalf("result cache counted %d hits, want %d", hits, len(again))
	}
	if n := journalRecords(t, cfg.Dir); n != 2*(len(specs)+len(again)) {
		t.Fatalf("journal holds %d records, want a submit and a done per job (%d)", n, 2*(len(specs)+len(again)))
	}
	if code, resp := call(h, "GET", "/metrics", nil); code != http.StatusOK ||
		!strings.Contains(string(resp), fmt.Sprintf("pabst_result_cache_hits_total %d", len(again))) {
		t.Errorf("GET /metrics = %d:\n%s", code, resp)
	}
}
