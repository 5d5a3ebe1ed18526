// Package frame owns the text framing of the platform's appended
// artifacts: the campaign journal WAL, the livemon ring segments and the
// provenance trace. Every record is one line,
//
//	%08x SP body LF
//
// the IEEE CRC-32 of body as eight lowercase hex digits, a space, the
// body (one JSON document), a newline. Append encodes a line, ScanFrames
// reads a file back under the torn-tail rule, and Appender writes lines
// to a file with a committed offset to rewind to.
//
// The torn-tail rule (DESIGN.md §15): the leading run of intact lines is
// committed, and the first damaged line ends it. A final line missing its
// newline is torn by definition, even when its checksum validates, so
// truncating to the committed offset never extends a file. Intact lines
// after the damage (MidFile) are never a crash's doing: the storage layer
// lost or flipped committed bytes.
package frame

import (
	"bufio"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/storefault"
)

// prefixLen is the checksum field plus its separating space.
const prefixLen = 9

// Append appends body framed as one line to dst and returns the extended
// slice. It allocates only when dst lacks capacity.
func Append(dst, body []byte) []byte {
	const hexdigits = "0123456789abcdef"
	crc := crc32.ChecksumIEEE(body)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(crc>>uint(shift))&0xf])
	}
	dst = append(dst, ' ')
	dst = append(dst, body...)
	return append(dst, '\n')
}

// intact reports whether one line (newline stripped) is a whole frame:
// its checksum field is eight hex digits equal to the CRC-32 of a body
// that is valid JSON. Digits match in either case: a flipped case bit
// changes no checksum value.
func intact(line []byte) bool {
	if len(line) <= prefixLen || line[prefixLen-1] != ' ' {
		return false
	}
	var want uint32
	for _, c := range line[:prefixLen-1] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return false
		}
		want = want<<4 | uint32(c)
	}
	body := line[prefixLen:]
	return crc32.ChecksumIEEE(body) == want && json.Valid(body)
}

// Scan is the damage geometry of one scanned file.
type Scan struct {
	Frames  int   // intact lines in the leading run
	Good    int64 // committed offset: where the leading intact run ends
	Size    int64 // bytes read
	MidFile bool  // intact lines found after the damage
}

// Damaged reports bytes past the committed offset.
func (s Scan) Damaged() bool { return s.Good < s.Size }

// ScanFrames reads framed lines from r to its end. fn, when non-nil, sees
// the body of every frame that would extend the leading intact run and
// ends the run by returning false (a structural check the framing cannot
// see, such as a sequence gap). fn's argument is only valid during the
// call.
func ScanFrames(r io.Reader, fn func(body []byte) bool) (Scan, error) {
	return ScanLines(r, intact, func(line []byte) bool { return fn == nil || fn(line[prefixLen:]) })
}

// ScanLines is ScanFrames for any line format: check decides whether a
// line (newline stripped) is intact, and fn runs on intact lines of the
// leading run as ScanFrames describes. Lines stream through a fixed
// buffer, and a line of any length is accepted.
func ScanLines(r io.Reader, check, fn func(line []byte) bool) (Scan, error) {
	var (
		s       Scan
		long    []byte // a line longer than the reader's buffer
		damaged bool
	)
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, line...)
			continue
		}
		if len(long) > 0 {
			long = append(long, line...)
			line, long = long, long[:0]
		}
		s.Size += int64(len(line))
		if err == io.EOF {
			return s, nil // an unterminated final line stays past Good
		}
		if err != nil {
			return s, err
		}
		line = line[:len(line)-1]
		ok := check(line)
		switch {
		case ok && !damaged && (fn == nil || fn(line)):
			s.Frames++
			s.Good = s.Size
		case ok && damaged:
			s.MidFile = true
		default:
			damaged = true
		}
	}
}

// Appender appends lines to one file, tracking the committed offset: the
// end of the last line written whole.
type Appender struct {
	f   storefault.File
	off int64
	err error // latched write failure
}

// OpenAppender opens path write-only (flag adds O_CREATE, O_EXCL, ...),
// cuts it to the committed offset off, dropping any torn tail, and
// positions there.
func OpenAppender(fsys storefault.FS, path string, flag int, off int64) (*Appender, error) {
	f, err := storefault.Or(fsys).OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Appender{f: f, off: off}, nil
}

// Write appends line with one Write call; a short count is an error.
// When it fails and retry (if non-nil) returns true for the error — after
// freeing space, say — the file is rewound to the committed offset, since
// a failed write may have persisted a prefix, and the line written once
// more. A failure that stands latches: the bytes past the committed
// offset are unknown, so later calls return the same error, offering it
// to retry again, without writing.
func (a *Appender) Write(line []byte, retry func(error) bool) error {
	err := a.err
	if err == nil {
		err = a.write(line)
	}
	if err != nil && retry != nil && retry(err) && a.rewind() == nil {
		err = a.write(line)
	}
	a.err = err
	if err == nil {
		a.off += int64(len(line))
	}
	return err
}

func (a *Appender) write(line []byte) error {
	n, err := a.f.Write(line)
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	return err
}

func (a *Appender) rewind() error {
	if err := a.f.Truncate(a.off); err != nil {
		return err
	}
	_, err := a.f.Seek(a.off, io.SeekStart)
	return err
}

// Close closes the file.
func (a *Appender) Close() error { return a.f.Close() }
