package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/drift"
)

// FuzzDecodeBatch feeds arbitrary /observe bodies to decodeBatch, the first
// code an untrusted producer reaches. Decoding must not panic, and a body
// either fails as a whole or yields observations that the daemon's window
// resolves or rejects as drift.ErrMalformed — never with any other error.
// Seed corpus: testdata/fuzz/FuzzDecodeBatch.
func FuzzDecodeBatch(f *testing.F) {
	w := drift.NewWindow(daemonSchema(f), drift.WindowConfig{})
	f.Add([]byte(`[{"table":"T01","attrs":["T01.A00","T01.A01"],"count":3}]`))
	f.Add([]byte("{\"table\":\"T02\",\"attrs\":[\"T02.A03\"],\"kind\":\"update\",\"count\":1}\nnot json\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body))
		batch, err := decodeBatch(req)
		if err != nil {
			if batch != nil {
				t.Fatalf("rejected body (%v) still yielded %d observations", err, len(batch))
			}
			return
		}
		for i, obs := range batch {
			if _, _, _, err := w.Resolve(obs); err != nil && !errors.Is(err, drift.ErrMalformed) {
				t.Fatalf("observation %d %+v: rejection %v is not ErrMalformed", i, obs, err)
			}
		}
	})
}
