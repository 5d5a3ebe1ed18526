package livemon

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// newTestServer builds a memory-only server with a fixed-clock sim
// registry attached and no monitor.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Attach(obs.NewRegistry(nil), nil)
	return s
}

type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames parses n SSE frames off the stream, ignoring keepalive
// comments.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var out []sseFrame
	var cur sseFrame
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d/%d frames: %v", len(out), n, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event != "":
			out = append(out, cur)
			cur = sseFrame{}
		}
	}
	return out
}

func openStream(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*bufio.Reader, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return bufio.NewReader(resp.Body), func() { cancel(); resp.Body.Close() }
}

func TestSSEReplayFraming(t *testing.T) {
	s := newTestServer(t)
	for i := 1; i <= 3; i++ {
		s.PublishEvent(KindAlert, sim.Time(i*1000), []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// replay=all streams the whole backlog with ring seqs as event ids.
	r, done := openStream(t, ts, "/events?replay=all", nil)
	frames := readFrames(t, r, 3)
	done()
	for i, f := range frames {
		want := sseFrame{id: fmt.Sprint(i + 1), event: KindAlert, data: fmt.Sprintf(`{"n":%d}`, i+1)}
		if f != want {
			t.Fatalf("frame %d = %+v, want %+v", i, f, want)
		}
	}

	// A reconnect with Last-Event-ID resumes after that id.
	r, done = openStream(t, ts, "/events", map[string]string{"Last-Event-ID": "1"})
	frames = readFrames(t, r, 2)
	done()
	if frames[0].id != "2" || frames[1].id != "3" {
		t.Fatalf("Last-Event-ID replay ids = %s,%s, want 2,3", frames[0].id, frames[1].id)
	}

	// The query-parameter form works for curl-style clients.
	r, done = openStream(t, ts, "/events?last_event_id=2", nil)
	frames = readFrames(t, r, 1)
	done()
	if frames[0].id != "3" {
		t.Fatalf("last_event_id=2 replay id = %s, want 3", frames[0].id)
	}
}

func TestSSELiveBroadcast(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A fresh client (no Last-Event-ID) gets the live stream only.
	s.PublishEvent(KindAlert, 10, []byte(`{"old":true}`))
	r, done := openStream(t, ts, "/events", nil)
	defer done()

	// Wait for the subscriber to register, then publish.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	s.PublishEvent(KindProgress, 20, []byte(`{"live":true}`))
	frames := readFrames(t, r, 1)
	if frames[0].event != KindProgress || frames[0].data != `{"live":true}` {
		t.Fatalf("live frame = %+v", frames[0])
	}
}

func TestSSEBadLastEventID(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest("GET", ts.URL+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
