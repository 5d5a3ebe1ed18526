package frame

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storefault"
)

// TestAppendGolden pins the encoder to a line copied verbatim from a
// campaign WAL: a drifting encoder would silently orphan every artifact
// already on disk.
func TestAppendGolden(t *testing.T) {
	body := `{"seq":0,"sim_ns":0,"kind":"campaign-start","note":"seed=7 sites=2 mode=all"}`
	want := "19c8feef " + body + "\n"
	if got := string(Append(nil, []byte(body))); got != want {
		t.Fatalf("Append = %q, want %q", got, want)
	}
	if !intact([]byte(strings.TrimSuffix(want, "\n"))) {
		t.Fatal("golden line not intact")
	}
}

func TestAppendAllocFree(t *testing.T) {
	body := []byte(`{"k":"ev","s":1,"p":-1,"t":10,"f":0,"g":1}`)
	buf := Append(nil, body)
	if n := testing.AllocsPerRun(1000, func() { buf = Append(buf[:0], body) }); n != 0 {
		t.Fatalf("Append into a reused buffer: %v allocs, want 0", n)
	}
}

// line frames body and strips the newline, as the scanner hands lines
// to intact.
func line(body string) []byte {
	l := Append(nil, []byte(body))
	return l[:len(l)-1]
}

func TestBodyRejects(t *testing.T) {
	good := line(`{"a":1}`) // 561bacaf: no zero digit, see "bad crc"
	upper := []byte(strings.ToUpper(string(good[:8])) + string(good[8:]))
	if !intact(upper) {
		t.Error("upper-case checksum digits rejected")
	}
	for name, l := range map[string][]byte{
		"empty":      nil,
		"no body":    good[:9],
		"no space":   append([]byte("x"), good...),
		"bad hex":    append([]byte("g"), good[1:]...),
		"bad crc":    append([]byte("0"), good[1:]...),
		"not json":   line(`{"a":`),
		"short line": []byte("1234"),
	} {
		if intact(l) {
			t.Errorf("%s: %q accepted", name, l)
		}
	}
}

func frames(bodies ...string) []byte {
	var b []byte
	for _, body := range bodies {
		b = Append(b, []byte(body))
	}
	return b
}

func TestScanTornAndMidFile(t *testing.T) {
	clean := frames(`{"n":0}`, `{"n":1}`, `{"n":2}`)
	for _, tc := range []struct {
		name    string
		data    []byte
		frames  int
		good    int
		midFile bool
	}{
		{"clean", clean, 3, len(clean), false},
		{"empty", nil, 0, 0, false},
		{"unterminated final frame", clean[:len(clean)-1], 2, len(frames(`{"n":0}`, `{"n":1}`)), false},
		{"torn mid-line", clean[:len(clean)-4], 2, len(frames(`{"n":0}`, `{"n":1}`)), false},
		{"damage then intact", append(append(frames(`{"n":0}`), "garbage\n"...), frames(`{"n":2}`)...),
			1, len(frames(`{"n":0}`)), true},
	} {
		s, err := ScanFrames(bytes.NewReader(tc.data), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := Scan{Frames: tc.frames, Good: int64(tc.good), Size: int64(len(tc.data)), MidFile: tc.midFile}
		if s != want {
			t.Errorf("%s: %+v, want %+v", tc.name, s, want)
		}
	}
}

// TestScanCallbackEndsRun: a structural check failing inside fn ends the
// leading run, and later intact frames classify the damage mid-file.
func TestScanCallbackEndsRun(t *testing.T) {
	data := frames(`{"seq":0}`, `{"seq":1}`, `{"seq":3}`, `{"seq":4}`)
	var seen []string
	s, err := ScanFrames(bytes.NewReader(data), func(body []byte) bool {
		if bytes.Contains(body, []byte(`3`)) {
			return false
		}
		seen = append(seen, string(body))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 2 || !s.MidFile || s.Good != int64(len(frames(`{"seq":0}`, `{"seq":1}`))) {
		t.Fatalf("scan = %+v", s)
	}
	if len(seen) != 2 {
		t.Fatalf("fn saw %q, want only the leading run", seen)
	}
}

// TestScanLongLine: lines longer than the read buffer stream through
// intact — 16-site provenance traces carry no line-length cap.
func TestScanLongLine(t *testing.T) {
	big := `{"pad":"` + strings.Repeat("x", 200<<10) + `"}`
	data := frames(`{"n":0}`, big, `{"n":2}`)
	var got []int
	s, err := ScanFrames(bytes.NewReader(data), func(body []byte) bool {
		got = append(got, len(body))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 3 || s.Damaged() || len(got) != 3 || got[1] != len(big) {
		t.Fatalf("scan = %+v, body lengths %v", s, got)
	}
}

func TestScanLinesJSON(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"torn\n[2]\n{\"b\"")
	s, err := ScanLines(bytes.NewReader(data), json.Valid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Scan{Frames: 1, Good: 8, Size: int64(len(data)), MidFile: true}); s != want {
		t.Fatalf("scan = %+v, want %+v", s, want)
	}
}

// TestAppenderRetryAndLatch: a failed write latches until the retry
// callback clears it; the retry rewinds to the committed offset first,
// so the prefix a short write persisted never reaches the file.
func TestAppenderRetryAndLatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	plan, err := storefault.Parse([]byte(`{"short_writes": [{"rate": 1, "after_ops": 1, "max": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := storefault.NewChaos(nil, 3, plan)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppender(chaos, path, os.O_CREATE|os.O_EXCL, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, second := frames(`{"n":0}`), frames(`{"n":1}`)
	if err := a.Write(first, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(second, nil); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: err = %v", err)
	}
	if err := a.Write(second, func(error) bool { return false }); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("latched write: err = %v", err)
	}
	if err := a.Write(second, func(error) bool { return true }); err != nil {
		t.Fatalf("retried write: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(first) + string(second); string(got) != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestOpenAppenderCutsTornTail: reopening at a scan's committed offset
// drops the torn tail, and the next line lands cleanly after it.
func TestOpenAppenderCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.jsonl")
	clean := frames(`{"n":0}`, `{"n":1}`)
	if err := os.WriteFile(path, append(append([]byte{}, clean...), "deadbeef {\"n\""...), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScanFrames(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppender(nil, path, 0, s.Good)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Write(frames(`{"n":2}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := frames(`{"n":0}`, `{"n":1}`, `{"n":2}`); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// FuzzFrameScan writes bodies through Append, cuts the stream, appends
// arbitrary bytes and optionally flips one bit, then checks the torn-tail
// contract: Good is a frame boundary no later than Size, every frame
// written whole before the damage comes back in order, and rescanning
// the committed prefix is clean and idempotent.
func FuzzFrameScan(f *testing.F) {
	f.Add([]byte("alpha\nbeta\ngamma"), uint32(1<<20), []byte{}, uint32(0))
	f.Add([]byte("alpha\nbeta\ngamma"), uint32(40), []byte{}, uint32(0))
	f.Add([]byte("alpha\nbeta"), uint32(1<<20), []byte("garbage\n"), uint32(0))
	f.Add([]byte("alpha\nbeta\ngamma"), uint32(1<<20), []byte{}, uint32(77))
	f.Add([]byte("a\n\nb"), uint32(9), []byte("19c8feef {}\n"), uint32(5))
	f.Fuzz(func(t *testing.T, payload []byte, cut uint32, tail []byte, flip uint32) {
		var (
			clean []byte
			want  [][]byte
			ends  []int // end offset of each written frame
		)
		for _, chunk := range bytes.Split(payload, []byte("\n")) {
			body, _ := json.Marshal(string(chunk)) // a string cannot fail to marshal
			want = append(want, body)
			clean = Append(clean, body)
			ends = append(ends, len(clean))
		}
		n := int(cut % uint32(len(clean)+1))
		data := append(append([]byte{}, clean[:n]...), tail...)
		damageAt := n
		if flip > 0 && len(data) > 0 {
			bit := int((flip - 1) % uint32(len(data)*8))
			data[bit/8] ^= 1 << (bit % 8)
			damageAt = min(damageAt, bit/8)
		}

		var got [][]byte
		s, err := ScanFrames(bytes.NewReader(data), func(body []byte) bool {
			got = append(got, append([]byte{}, body...))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Size != int64(len(data)) || s.Good > s.Size || s.Good < 0 {
			t.Fatalf("scan %+v over %d bytes", s, len(data))
		}
		if s.Good > 0 && data[s.Good-1] != '\n' {
			t.Fatalf("Good %d is not a line boundary", s.Good)
		}
		if len(got) != s.Frames {
			t.Fatalf("fn saw %d frames, scan counted %d", len(got), s.Frames)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= damageAt {
			whole++
		}
		if s.Frames < whole {
			t.Fatalf("%d frames recovered, %d were written whole before the damage", s.Frames, whole)
		}
		for i := 0; i < whole; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d = %q, wrote %q", i, got[i], want[i])
			}
		}

		committed := data[:s.Good]
		again, err := ScanFrames(bytes.NewReader(committed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Scan{Frames: s.Frames, Good: s.Good, Size: s.Good}); again != want {
			t.Fatalf("rescan of committed prefix = %+v, want %+v", again, want)
		}
		if third, _ := ScanFrames(bytes.NewReader(committed), nil); third != again {
			t.Fatalf("rescan not idempotent: %+v then %+v", again, third)
		}
	})
}
