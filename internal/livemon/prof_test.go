package livemon

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfEndpoints checks the provenance surface: 404 with nothing
// attached, then the trace download (flushed before serving) once
// SetProfSources wires it.
func TestProfEndpoints(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/api/prof/provenance"); code != http.StatusNotFound {
		t.Errorf("GET /api/prof/provenance with nothing attached: %d, want 404", code)
	}

	provPath := filepath.Join(t.TempDir(), "provenance.trace")
	if err := os.WriteFile(provPath, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	flushed := false
	s.SetProfSources(provPath, func() error {
		flushed = true
		return os.WriteFile(provPath, []byte("fresh-records"), 0o644)
	})

	code, body := get(t, ts, "/api/prof/provenance")
	if code != http.StatusOK {
		t.Fatalf("provenance download: %d", code)
	}
	if !flushed {
		t.Error("provenance served without flushing the writer first")
	}
	if !strings.Contains(body, "fresh-records") {
		t.Errorf("provenance body = %q, want the flushed bytes", body)
	}
}
