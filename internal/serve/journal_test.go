package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	want := []rec{
		{Op: opSubmit, ID: "j-000000", Spec: &spec, DeadlineMS: 50},
		{Op: opSubmit, ID: "j-000001", Spec: &spec},
		{Op: opDone, ID: "j-000000", ResultFP: "abc", ShareHi: 0.7},
	}
	for _, r := range want {
		if err := jl.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].ID != want[i].ID ||
			got[i].DeadlineMS != want[i].DeadlineMS || got[i].ResultFP != want[i].ResultFP {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Spec == nil || got[0].Spec.Bench != spec.Bench {
		t.Fatalf("spec did not survive the round trip: %+v", got[0].Spec)
	}
}

// TestJournalTornTail pins crash tolerance: a half-written final line
// (the signature of dying mid-append) is dropped; every complete record
// before it survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	if err := jl.append(rec{Op: opSubmit, ID: "j-000000", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(rec{Op: opSubmit, ID: "j-000001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","id":"j-00`) // torn mid-crash
	f.Close()

	got, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].ID != "j-000001" {
		t.Fatalf("torn-tail load = %+v, want the 2 complete records", got)
	}
}

func TestJournalMissingFile(t *testing.T) {
	got, err := loadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || got != nil {
		t.Fatalf("missing journal = %v, %v; want empty, nil", got, err)
	}
}

// TestJournalRewrite pins compaction: the file is atomically replaced
// with just the given records and stays appendable.
func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	for i := 0; i < 5; i++ {
		if err := jl.append(rec{Op: opSubmit, ID: "j-old", Spec: &spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.rewrite([]rec{{Op: opSubmit, ID: "j-live", Spec: &spec}}); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(rec{Op: opDone, ID: "j-live", ResultFP: "abc"}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	got, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "j-live" || got[1].Op != opDone {
		t.Fatalf("post-rewrite journal = %+v", got)
	}

	// An empty rewrite empties the file.
	jl2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl2.rewrite(nil); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	fi, _ := os.Stat(path)
	if fi.Size() != 0 {
		t.Fatalf("empty rewrite left %d bytes", fi.Size())
	}
}

// TestRecoverIgnoresUnknownOps pins compatibility in both directions:
// records with unknown ops are skipped, not fatal, and so is a requeue
// record written by the build that still kept mid-measure checkpoints.
func TestRecoverIgnoresUnknownOps(t *testing.T) {
	cfg := testConfig(t, okRunner)
	path := filepath.Join(cfg.Dir, "journal.jsonl")
	spec := tinySpec()
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.append(rec{Op: opSubmit, ID: "j-000007", Spec: &spec})
	jl.append(rec{Op: "vibe-check", ID: "j-000007"})
	jl.f.WriteString(`{"op":"requeue","id":"j-000007","attempt":1,"partial":"/etc/hostname"}` + "\n")
	jl.close()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, err := s.Get("j-000007")
	if err != nil || v.State != StateQueued {
		t.Fatalf("recovered job = %+v, %v", v, err)
	}
	// New ids continue past recovered ones.
	nv, err := s.Submit(tinySpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID != "j-000008" {
		t.Fatalf("next id %s, want j-000008", nv.ID)
	}
}

// olderJournal is a journal in the format of the build that still
// retried jobs: a submit carries its attempt budget, a requeue record
// its attempt count, and a fail record its failure class. j-000000 is
// live with a deadline, j-000001 failed, j-000002 is done.
const olderJournal = `{"op":"submit","id":"j-000000","spec":{"bench":"streams","scale":"tiny"},"max_attempts":3,"deadline_ms":50}
{"op":"requeue","id":"j-000000","attempt":1}
{"op":"submit","id":"j-000001","spec":{"bench":"chaser","scale":"tiny"},"max_attempts":2}
{"op":"requeue","id":"j-000001","attempt":1}
{"op":"fail","id":"j-000001","err":"attempt 2/2: never works","class":"retryable"}
{"op":"submit","id":"j-000002","spec":{"bench":"streams","scale":"tiny"}}
{"op":"done","id":"j-000002","result_fp":"abc","share_hi":0.7}
`

// TestRecoverOlderJournal: a journal an older build wrote recovers the
// live jobs that build would have recovered, with their deadlines, and
// compacts to this build's format.
func TestRecoverOlderJournal(t *testing.T) {
	cfg := testConfig(t, okRunner)
	path := filepath.Join(cfg.Dir, "journal.jsonl")
	if err := os.WriteFile(path, []byte(olderJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]JobState{"j-000000": StateQueued, "j-000001": StateFailed, "j-000002": StateDone}
	for id, st := range want {
		if v, err := s.Get(id); err != nil || v.State != st {
			t.Errorf("recovered %s = %+v, %v; want %s", id, v, err, st)
		}
	}
	if v, _ := s.Get("j-000001"); v.Error != "attempt 2/2: never works" {
		t.Errorf("failed job's error %q", v.Error)
	}
	if n := s.m.recovered.Load(); n != 1 {
		t.Errorf("recovered %d live jobs, want 1", n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r rec
	if err := json.Unmarshal(bytes.TrimSpace(raw), &r); err != nil || r.Op != opSubmit || r.ID != "j-000000" || r.DeadlineMS != 50 {
		t.Fatalf("compacted journal = %s (%v), want j-000000's submit record with its deadline", raw, err)
	}
	if bytes.Contains(raw, []byte("max_attempts")) {
		t.Fatalf("compacted journal still carries the attempt budget: %s", raw)
	}
}

// journalSeeds are journals a restart may meet: clean, torn mid-crash,
// hostile (a path for a fault plan or a job id, an oversized queue, a
// parameter this build does not have, a plan that does not fit its
// scale's epoch), garbage, and an older build's format.
func journalSeeds(t testing.TB) [][]byte {
	spec := tinySpec()
	var clean []byte
	for _, r := range []rec{
		{Op: opSubmit, ID: "j-000000", Spec: &spec, DeadlineMS: 50},
		{Op: opSubmit, ID: "j-000001", Spec: &spec},
		{Op: opDone, ID: "j-000001", ResultFP: "abc", ShareHi: 0.7},
	} {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(append(clean, line...), '\n')
	}
	return [][]byte{
		clean,
		append(clean[:len(clean):len(clean)], `{"op":"done","id":"j-00`...), // torn mid-crash
		[]byte(`{"op":"submit","id":"j-000003","spec":{"bench":"streams","scale":"tiny","fault":"/etc/hostname"}}` + "\n"),
		[]byte(`{"op":"submit","id":"../../x","spec":{"bench":"streams","scale":"tiny"}}` + "\n" +
			`{"op":"requeue","id":"../../x","partial":"/etc/hostname"}` + "\n" + `{"op":"fail","id":"../../x"}` + "\n"),
		[]byte(`{"op":"submit","id":"j-000004","spec":{"bench":"streams","scale":"tiny","params":{"queue":1099511627776}}}` + "\n"),
		[]byte(`{"op":"submit","id":"j-000005","spec":{"bench":"streams","scale":"tiny","params":{"bankq":2}}}` + "\n"), // a parameter this build does not have
		[]byte("\n\n{}\nnot json\n"),
		[]byte(olderJournal),
		[]byte(`{"op":"submit","id":"j-000006","spec":{"bench":"streams","scale":"quick","fault":"sat-delay"}}` + "\n"),
	}
}

// FuzzLoadJournal feeds arbitrary bytes, torn tails included, through
// the restart path as functions of bytes: decodeJournal, then
// Service.recover into a service with no journal file. Nothing panics,
// no more jobs come back than there are records, and whatever a journal
// claims, a recovered job waits in the queue only with a spec that
// resolves at its scale. The seeds run as ordinary tests;
// TestRecoverLeavesOnlyTheJournal runs them through New and Close.
func FuzzLoadJournal(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	cfg := testConfig(f, okRunner)
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := decodeJournal(bytes.NewReader(raw))
		if err != nil {
			return // a line past the scanner's 1 MiB bound: New refuses to start
		}
		// A closed journal: the replay's fail records are counted, not
		// written (New compacts them away in any case).
		s := &Service{cfg: cfg, jobs: make(map[string]*job), journal: &journal{}}
		s.recover(recs)
		if len(s.jobs) > len(recs) {
			t.Errorf("%d records recovered to %d jobs", len(recs), len(s.jobs))
		}
		for _, j := range s.queue {
			if _, _, err := cfg.Exec.Resolve(j.spec); err != nil {
				t.Errorf("recovered job %q is queued with a spec that does not resolve: %v", j.id, err)
			}
		}
	})
}

// TestRecoverLeavesOnlyTheJournal: over every journalSeeds journal, a
// whole service lifetime (New replays and compacts, Close compacts)
// starts, and leaves exactly the journal in the state directory.
func TestRecoverLeavesOnlyTheJournal(t *testing.T) {
	for i, raw := range journalSeeds(t) {
		cfg := testConfig(t, okRunner)
		if err := os.WriteFile(filepath.Join(cfg.Dir, "journal.jsonl"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: New: %v", i, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(cfg.Dir)
		if err != nil || len(entries) != 1 || entries[0].Name() != "journal.jsonl" {
			t.Fatalf("seed %d: state directory holds %v (%v), want journal.jsonl", i, entries, err)
		}
	}
}
