package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Kind discriminates trace events.
type Kind string

// Event kinds.
const (
	// KindFlood is one flood search at one hierarchy level.
	KindFlood Kind = "flood"
	// KindServe is the outcome of one video request.
	KindServe Kind = "serve"
	// KindPrefetch is one first-chunk prefix stored by prefetching.
	KindPrefetch Kind = "prefetch"
	// KindJoin / KindLeave / KindFail are session churn events.
	KindJoin  Kind = "join"
	KindLeave Kind = "leave"
	KindFail  Kind = "fail"
	// KindProbe is one maintenance round of a node.
	KindProbe Kind = "probe"
	// KindRepair is one active self-repair round after a detected
	// crash: the dead node's neighbors replace their lost links.
	KindRepair Kind = "repair"
	// KindQuery is a cross-community lookup forwarded to the video's
	// home cell (core.RemoteLookup across the sharded-engine mailbox) or
	// a tracker query on the emulated wire.
	KindQuery Kind = "query"
	// KindHandoff is a mid-stream provider handoff along the ranked
	// candidate list (emulation delivery path).
	KindHandoff Kind = "handoff"
	// KindRescue is the server rescuing the remainder of a delivery
	// after the candidate list is exhausted.
	KindRescue Kind = "rescue"
)

// Hierarchy levels for KindFlood events.
const (
	LevelChannel  = "channel"
	LevelCategory = "category"
	LevelServer   = "server"
)

// Event is one trace record. Every field is fixed-size or a constant string,
// so constructing and emitting an Event allocates nothing. T, Proto, Kind,
// Node, Video and Provider are always emitted (Video/Provider are -1 when
// not applicable, because 0 is a valid id); the rest are omitted when empty.
type Event struct {
	// T is the virtual time of the event in nanoseconds.
	T        int64  `json:"t"`
	Proto    string `json:"proto"`
	Kind     Kind   `json:"kind"`
	Node     int    `json:"node"`
	Video    int64  `json:"video"`    // -1 when not applicable
	Provider int    `json:"provider"` // -1 when none
	// Level is the hierarchy level of a flood (channel|category|server).
	Level string `json:"level,omitempty"`
	// Source is the serve outcome (cache|peer|server).
	Source string `json:"source,omitempty"`
	Hops   int    `json:"hops,omitempty"`
	Msgs   int    `json:"msgs,omitempty"`
	OK     bool   `json:"ok,omitempty"`
	// Span links every event in one request's causal chain (flood →
	// serve, query across a shard mailbox, handoff, server rescue). 0
	// means the event is not part of a request span (schema v1 traces
	// predate the field and decode with Span 0).
	Span uint64 `json:"span,omitempty"`
}

// String renders the event human-readably — the format `socialtube-sim
// -trace-print` and `make trace-demo` display.
func (e Event) String() string {
	at := time.Duration(e.T).Round(time.Millisecond)
	switch e.Kind {
	case KindFlood:
		return fmt.Sprintf("%-12v %-10s node %-5d flood %-8s video %-6d ok=%-5v hops=%d msgs=%d",
			at, e.Proto, e.Node, e.Level, e.Video, e.OK, e.Hops, e.Msgs)
	case KindServe:
		return fmt.Sprintf("%-12v %-10s node %-5d serve %-8s video %-6d provider=%-5d hops=%d msgs=%d",
			at, e.Proto, e.Node, e.Source, e.Video, e.Provider, e.Hops, e.Msgs)
	case KindPrefetch:
		return fmt.Sprintf("%-12v %-10s node %-5d prefetch video %d", at, e.Proto, e.Node, e.Video)
	case KindProbe:
		return fmt.Sprintf("%-12v %-10s node %-5d probe msgs=%d", at, e.Proto, e.Node, e.Msgs)
	case KindRepair:
		return fmt.Sprintf("%-12v %-10s node %-5d repair links=%d msgs=%d", at, e.Proto, e.Node, e.Hops, e.Msgs)
	case KindQuery:
		return fmt.Sprintf("%-12v %-10s node %-5d query video %-6d ok=%-5v hops=%d msgs=%d",
			at, e.Proto, e.Node, e.Video, e.OK, e.Hops, e.Msgs)
	case KindHandoff:
		return fmt.Sprintf("%-12v %-10s node %-5d handoff video %-6d provider=%-5d ok=%v",
			at, e.Proto, e.Node, e.Video, e.Provider, e.OK)
	case KindRescue:
		return fmt.Sprintf("%-12v %-10s node %-5d rescue video %-6d", at, e.Proto, e.Node, e.Video)
	default:
		return fmt.Sprintf("%-12v %-10s node %-5d %s", at, e.Proto, e.Node, e.Kind)
	}
}

// Tracer receives protocol events. Implementations must be safe for
// concurrent Emit calls: the parallel figure runner shares one tracer across
// simulations. A nil Tracer means tracing is disabled; call sites nil-check
// before constructing the event, which keeps disabled tracing free.
type Tracer interface {
	Emit(Event)
}

// Nop is the package-level no-op tracer: Emit discards the event. It exists
// for the hot-path guard benchmarks, which install it to prove that the
// tracing seam itself (nil check passed, event constructed, dynamic call
// made) does not allocate.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// JSONL is a tracer that appends one JSON object per line to a writer — the
// `-trace-out` format. Writes are buffered; call Close (or Flush) to ensure
// everything reaches the underlying writer. Write errors are sticky and
// reported by Err/Close rather than panicking mid-simulation.
type JSONL struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	c     io.Closer
	total uint64
	err   error
}

// NewJSONL returns a JSONL tracer writing to w. If w is an io.Closer, Close
// closes it.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	j := &JSONL{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// OpenJSONL creates (or truncates) the file at path and returns a JSONL
// tracer writing to it.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace out: %w", err)
	}
	return NewJSONL(f), nil
}

// Emit implements Tracer.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(e)
		j.total++
	}
	j.mu.Unlock()
}

// Total returns how many events were written.
func (j *JSONL) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Flush forces buffered events to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes and closes the underlying writer (when it is closeable). It
// returns the first error the tracer encountered.
func (j *JSONL) Close() error {
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Finish ends a CLI's -trace-out recording (deferred with the run's named
// error): it closes the tracer, makes a close failure the run's error if
// it had none, and on a clean run reports the event count on stdout.
func (j *JSONL) Finish(path string, runErr *error) {
	if err := j.Close(); *runErr == nil {
		*runErr = err
	}
	if *runErr == nil {
		fmt.Printf("\ntrace: %d events -> %s\n", j.Total(), path)
	}
}

// Pretty reads JSONL trace events from r and writes up to max (0 = all) of
// them human-readably to w, returning how many events it printed.
func Pretty(r io.Reader, w io.Writer, max int) (int, error) {
	dec := json.NewDecoder(r)
	n := 0
	for max <= 0 || n < max {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			return n, fmt.Errorf("trace event %d: %w", n+1, err)
		}
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// PrettySpans reads JSONL trace events from r, groups the span-stamped
// ones by (protocol, span id) — span sequences restart per engine, so a
// multi-protocol figure trace would alias ids across protocols — and
// writes up to max (0 = all) reconstructed request chains to w in
// first-appearance order — the `-trace-spans` view. Within a span,
// events keep their emission order, so the printed chain is the
// request's causal path (flood → query → serve → handoff → rescue).
// Events without a span (schema v1 traces, churn events) are skipped.
// It returns how many spans it printed.
func PrettySpans(r io.Reader, w io.Writer, max int) (int, error) {
	type spanKey struct {
		proto string
		id    uint64
	}
	dec := json.NewDecoder(r)
	spans := make(map[spanKey][]Event)
	var order []spanKey
	n := 0
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			return 0, fmt.Errorf("trace event %d: %w", n+1, err)
		}
		n++
		if e.Span == 0 {
			continue
		}
		k := spanKey{e.Proto, e.Span}
		if _, seen := spans[k]; !seen {
			order = append(order, k)
		}
		spans[k] = append(spans[k], e)
	}
	printed := 0
	for _, k := range order {
		if max > 0 && printed >= max {
			break
		}
		events := spans[k]
		if _, err := fmt.Fprintf(w, "span %s/%d (%d events)\n", k.proto, k.id, len(events)); err != nil {
			return printed, err
		}
		for _, e := range events {
			if _, err := fmt.Fprintf(w, "  %s\n", e.String()); err != nil {
				return printed, err
			}
		}
		printed++
	}
	return printed, nil
}
