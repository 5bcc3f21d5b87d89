package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func ioTrace(t *testing.T) *Trace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 17
	cfg.Users = 300
	cfg.Channels = 60
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustJSON canonicalizes a trace as one JSON document: two traces with
// identical exported content render identically.
func mustJSON(t *testing.T, tr *Trace) string {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamRoundTrip pins the chunked codec against the in-memory
// trace: a seeded trace survives the encoding with byte-identical JSON
// content and identical deterministic accounting.
func TestStreamRoundTrip(t *testing.T) {
	tr := ioTrace(t)
	var stream bytes.Buffer
	if err := tr.SaveStream(&stream); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStream(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, loaded) != mustJSON(t, tr) {
		t.Error("stream round-trip changed the trace")
	}
	if got, want := loaded.Bytes(), tr.Bytes(); got != want {
		t.Errorf("accounting differs after the round-trip: loaded %d bytes, generated %d", got, want)
	}
}

// TestStreamDeterministic pins the encoding itself: one trace always
// streams to the same bytes.
func TestStreamDeterministic(t *testing.T) {
	tr := ioTrace(t)
	var a, b bytes.Buffer
	if err := tr.SaveStream(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveStream(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two SaveStream runs of one trace differ")
	}
}

// TestStreamTruncated covers the partial-file error paths: a missing
// eof trailer and a cut mid-chunk must both fail loudly, never return a
// silently smaller trace.
func TestStreamTruncated(t *testing.T) {
	tr := ioTrace(t)
	var buf bytes.Buffer
	if err := tr.SaveStream(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(full, "\n")
	if len(lines) < 3 {
		t.Fatalf("stream has %d lines, want header+chunks+trailer", len(lines))
	}

	noTrailer := strings.Join(lines[:len(lines)-2], "")
	if _, err := LoadStream(strings.NewReader(noTrailer)); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing trailer: err = %v, want ErrTruncated", err)
	}

	midChunk := full[:len(full)/2]
	if _, err := LoadStream(strings.NewReader(midChunk)); err == nil {
		t.Error("cut mid-chunk loaded without error")
	}

	if _, err := LoadStream(strings.NewReader(lines[0])); !errors.Is(err, ErrTruncated) {
		t.Errorf("header only: err = %v, want ErrTruncated", err)
	}
}

// TestStreamCorrupt covers malformed inputs: garbage chunk lines, a
// wrong format tag, and header/stream count mismatches.
func TestStreamCorrupt(t *testing.T) {
	tr := ioTrace(t)
	var buf bytes.Buffer
	if err := tr.SaveStream(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")

	corrupt := lines[0] + "{not json}\n"
	if _, err := LoadStream(strings.NewReader(corrupt)); err == nil {
		t.Error("garbage chunk line loaded without error")
	}

	badTag := strings.Replace(lines[0], StreamFormat, "socialtube-trace/v999", 1)
	if _, err := LoadStream(strings.NewReader(badTag + strings.Join(lines[1:], ""))); err == nil {
		t.Error("wrong format tag loaded without error")
	}

	// Understate the user count: the stream then carries more users
	// than promised, which must be reported, not absorbed.
	lied := strings.Replace(lines[0],
		`"users":`+itoa(len(tr.Users)), `"users":`+itoa(len(tr.Users)-1), 1)
	if lied == lines[0] {
		t.Fatal("test bug: header rewrite did not change the user count")
	}
	if _, err := LoadStream(strings.NewReader(lied + strings.Join(lines[1:], ""))); !errors.Is(err, ErrTruncated) {
		t.Errorf("count mismatch: err = %v, want ErrTruncated", err)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestLoadRejectsSingleDocument: a trace saved as one JSON document (the
// encoding before the stream format) is refused with an error that says
// what the file is and how to replace it, not decoded as an empty trace.
func TestLoadRejectsSingleDocument(t *testing.T) {
	_, err := LoadStream(strings.NewReader(mustJSON(t, ioTrace(t))))
	if err == nil {
		t.Fatal("single-document trace accepted")
	}
	for _, want := range []string{StreamFormat, "single-document", "socialtube -fig trace -save"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
