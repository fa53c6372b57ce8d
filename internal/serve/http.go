package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"pabst/internal/config"
	"pabst/internal/exp"
)

// maxSubmitBody caps a POST /jobs body; a real one is a few hundred bytes.
const maxSubmitBody = 1 << 20

// submitRequest is the POST /jobs body: the spec plus per-job options.
type submitRequest struct {
	Spec exp.RunSpec   `json:"spec"`
	Opts SubmitOptions `json:"opts"`
}

// Handler returns the service's REST surface on a fresh mux:
//
//	POST /jobs     submit a job       → 202 JobView | 400 invalid | 429 full | 503 draining | 500 journal
//	GET  /jobs     list all jobs      → 200 [JobView]
//	GET  /jobs/{id} one job           → 200 JobView | 404
//	POST /drain    begin graceful drain (returns when drained)
//	GET  /healthz  liveness           → 200 always
//	GET  /readyz   readiness          → 200 accepting | 503 draining/closed
//	GET  /metrics  Prometheus text    → 200
//
// A spec is invalid (400) when the service's Exec.Resolve refuses it
// (a bad field, a scale that does not resolve, a fault plan that is
// not a preset name, a machine that does not build at its own scale),
// or when the body is malformed, names a field the request does not
// have, carries data after the request object or is larger than
// 1 MiB. (A journal replays leniently instead: a field an older build
// wrote is ignored on load.) A job the
// service cannot journal is the server's fault (500), and is not
// admitted.
func (s *Service) Handler() http.Handler {
	reg := s.Registry()
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			httpError(w, http.StatusBadRequest, "bad request body: data after the request object")
			return
		}
		v, err := s.Submit(req.Spec, req.Opts)
		if err != nil {
			httpError(w, submitStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Drain(r.Context()); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "drained"})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WriteProm(w) // a failed write is the client hanging up
	})

	return mux
}

// submitStatus maps admission errors to HTTP status codes: a rejected
// spec is the client's fault, anything unrecognised (a failed journal
// append) the server's.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, config.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
