package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pabst/internal/exp"
)

// Journal operations. A job's durable history is its submit record and
// at most one terminal record. No record refers to a file.
const (
	opSubmit = "submit"
	opDone   = "done"
	opFail   = "fail"
	opCancel = "cancel"
)

// rec is one JSONL journal line. Fields are op-dependent; unknown ops
// and fields are ignored on load, so a journal an older build wrote
// (with its requeue records and attempt counts) replays too.
type rec struct {
	Op         string       `json:"op"`
	ID         string       `json:"id"`
	Spec       *exp.RunSpec `json:"spec,omitempty"`
	SpecFP     string       `json:"spec_fp,omitempty"`
	DeadlineMS int64        `json:"deadline_ms,omitempty"`
	ResultFP   string       `json:"result_fp,omitempty"`
	ShareHi    float64      `json:"share_hi,omitempty"`
	TotalBPC   float64      `json:"total_bpc,omitempty"`
	Err        string       `json:"err,omitempty"`
}

// journal is an append-only JSONL log with atomic compaction. It has
// its own lock so appends never contend with the service's state lock
// ordering (the service always takes its lock first).
type journal struct {
	path string
	f    *os.File
}

// openJournal opens (creating if absent) the journal for appending.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &journal{path: path, f: f}, nil
}

// append durably writes one record: marshal, write, fsync. An accepted
// job must survive a crash the moment Submit returns.
func (jl *journal) append(r rec) error {
	if jl.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	line = append(line, '\n')
	if _, err := jl.f.Write(line); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

// close releases the file; further appends error.
func (jl *journal) close() error {
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}

// loadJournal reads the journal at path (decodeJournal). A missing file
// is an empty journal.
func loadJournal(path string) ([]rec, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: load journal: %w", err)
	}
	defer f.Close()
	return decodeJournal(f)
}

// decodeJournal decodes JSONL journal records. A torn final line — the
// signature of a crash mid-append — is tolerated: every complete line
// before it is kept.
func decodeJournal(r io.Reader) ([]rec, error) {
	var recs []rec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			// Torn tail from a crash mid-write: stop here, keep the prefix.
			break
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("serve: scan journal: %w", err)
	}
	return recs, nil
}

// rewrite atomically replaces the journal contents with recs (write a
// temp file in the same directory, fsync, rename) and reopens the
// journal for appending. This is compaction: after a clean drain recs
// holds only live jobs, possibly none.
func (jl *journal) rewrite(recs []rec) error {
	dir := filepath.Dir(jl.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("serve: compact journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("serve: compact marshal: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("serve: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: compact close: %w", err)
	}
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	if err := os.Rename(tmp.Name(), jl.path); err != nil {
		return fmt.Errorf("serve: compact rename: %w", err)
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: reopen journal: %w", err)
	}
	jl.f = f
	return nil
}
