package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// StreamFormat tags the first line of the chunked JSONL trace encoding.
const StreamFormat = "socialtube-trace/v2"

// streamChunkSize is how many objects each JSONL chunk line carries.
// Decoding buffers one chunk at a time, so this bounds the decoder's
// transient allocations independently of trace size.
const streamChunkSize = 4096

// streamHeader is the first line of the chunked encoding. The counts
// let the decoder preallocate every slice and arena exactly, so loading
// a 1M-user trace performs a handful of large allocations up front and
// only bounded chunk-sized ones after.
type streamHeader struct {
	Format     string    `json:"format"`
	Seed       int64     `json:"seed"`
	Categories int       `json:"categories"`
	Channels   int       `json:"channels"`
	Videos     int       `json:"videos"`
	Users      int       `json:"users"`
	CatArena   int       `json:"catArena"`
	VidArena   int       `json:"vidArena"`
	UserArena  int       `json:"userArena"`
	ChanArena  int       `json:"chanArena"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
}

// streamChunk is one JSONL body line: a batch of objects of a single
// kind, or the eof trailer that proves the file was written completely.
type streamChunk struct {
	Channels []Channel `json:"channels,omitempty"`
	Videos   []Video   `json:"videos,omitempty"`
	Users    []User    `json:"users,omitempty"`
	EOF      bool      `json:"eof,omitempty"`
}

// ErrTruncated reports a stream that ended before its eof trailer — a
// partial download or an interrupted writer.
var ErrTruncated = errors.New("trace stream truncated")

// SaveStream writes the trace in the chunked JSONL format: a header
// line with exact object and arena counts, batches of streamChunkSize
// objects per line (channels, then videos, then users), and an eof
// trailer. The writer never buffers more than one chunk beyond bufio,
// so encoding memory is flat in trace size.
func (t *Trace) SaveStream(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	var nCat, nVid, nUser, nChan int
	for i := range t.Channels {
		nCat += len(t.Channels[i].Categories)
		nVid += len(t.Channels[i].Videos)
		nUser += len(t.Channels[i].Subscribers)
	}
	for i := range t.Users {
		nCat += len(t.Users[i].Interests)
		nChan += len(t.Users[i].Subscriptions)
		nVid += len(t.Users[i].Favorites)
	}
	hdr := streamHeader{
		Format:     StreamFormat,
		Seed:       t.Seed,
		Categories: t.Categories,
		Channels:   len(t.Channels),
		Videos:     len(t.Videos),
		Users:      len(t.Users),
		CatArena:   nCat,
		VidArena:   nVid,
		UserArena:  nUser,
		ChanArena:  nChan,
		Start:      t.Start,
		End:        t.End,
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("encode trace header: %w", err)
	}
	for off := 0; off < len(t.Channels); off += streamChunkSize {
		end := min(off+streamChunkSize, len(t.Channels))
		if err := enc.Encode(streamChunk{Channels: t.Channels[off:end]}); err != nil {
			return fmt.Errorf("encode channel chunk at %d: %w", off, err)
		}
	}
	for off := 0; off < len(t.Videos); off += streamChunkSize {
		end := min(off+streamChunkSize, len(t.Videos))
		if err := enc.Encode(streamChunk{Videos: t.Videos[off:end]}); err != nil {
			return fmt.Errorf("encode video chunk at %d: %w", off, err)
		}
	}
	for off := 0; off < len(t.Users); off += streamChunkSize {
		end := min(off+streamChunkSize, len(t.Users))
		if err := enc.Encode(streamChunk{Users: t.Users[off:end]}); err != nil {
			return fmt.Errorf("encode user chunk at %d: %w", off, err)
		}
	}
	if err := enc.Encode(streamChunk{EOF: true}); err != nil {
		return fmt.Errorf("encode trace trailer: %w", err)
	}
	return bw.Flush()
}

// LoadStream reads the chunked JSONL format, packing each object's
// lists into the trace arenas as it goes: peak decoder memory is the
// final trace plus one chunk, regardless of trace size.
func LoadStream(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	var hdr streamHeader
	err := dec.Decode(&hdr) // a type error still fills the fields that fit
	if hdr.Format != StreamFormat {
		return nil, fmt.Errorf("not a %s trace stream (first line declares format %q): the single-document "+
			"encoding is no longer read, regenerate the file with socialtube-trace -save", StreamFormat, hdr.Format)
	}
	if err != nil {
		return nil, fmt.Errorf("decode trace header: %w", err)
	}
	if hdr.Channels < 0 || hdr.Videos < 0 || hdr.Users < 0 ||
		hdr.CatArena < 0 || hdr.VidArena < 0 || hdr.UserArena < 0 || hdr.ChanArena < 0 {
		return nil, fmt.Errorf("trace stream header has negative counts")
	}
	t := &Trace{
		Seed:       hdr.Seed,
		Categories: hdr.Categories,
		Start:      hdr.Start,
		End:        hdr.End,
		Channels:   make([]Channel, 0, hdr.Channels),
		Videos:     make([]Video, 0, hdr.Videos),
		Users:      make([]User, 0, hdr.Users),
		catArena:   make([]CategoryID, 0, hdr.CatArena),
		vidArena:   make([]VideoID, 0, hdr.VidArena),
		userArena:  make([]UserID, 0, hdr.UserArena),
		chanArena:  make([]ChannelID, 0, hdr.ChanArena),
	}
	sawEOF := false
	for !sawEOF {
		var chunk streamChunk
		if err := dec.Decode(&chunk); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("%w: no eof trailer (%d/%d channels, %d/%d videos, %d/%d users)",
					ErrTruncated, len(t.Channels), hdr.Channels, len(t.Videos), hdr.Videos, len(t.Users), hdr.Users)
			}
			return nil, fmt.Errorf("decode trace chunk: %w", err)
		}
		sawEOF = chunk.EOF
		for i := range chunk.Channels {
			ch := chunk.Channels[i]
			ch.Categories = pack(&t.catArena, ch.Categories)
			ch.Videos = pack(&t.vidArena, ch.Videos)
			ch.Subscribers = pack(&t.userArena, ch.Subscribers)
			t.Channels = append(t.Channels, ch)
		}
		for i := range chunk.Videos {
			t.Videos = append(t.Videos, chunk.Videos[i])
		}
		for i := range chunk.Users {
			u := chunk.Users[i]
			u.Interests = pack(&t.catArena, u.Interests)
			u.Subscriptions = pack(&t.chanArena, u.Subscriptions)
			u.Favorites = pack(&t.vidArena, u.Favorites)
			t.Users = append(t.Users, u)
		}
	}
	if len(t.Channels) != hdr.Channels || len(t.Videos) != hdr.Videos || len(t.Users) != hdr.Users {
		return nil, fmt.Errorf("%w: header promised %d/%d/%d channels/videos/users, stream carried %d/%d/%d",
			ErrTruncated, hdr.Channels, hdr.Videos, hdr.Users, len(t.Channels), len(t.Videos), len(t.Users))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate checks the dense layout (every id equals its index) and
// referential integrity: every channel's video and subscriber ids
// resolve, every video's channel resolves, and rank ordering within
// each channel is 1..n.
func (t *Trace) Validate() error {
	for i := range t.Videos {
		if t.Videos[i].ID != VideoID(i) {
			return fmt.Errorf("trace: video at index %d has id %d (dense layout violated)", i, t.Videos[i].ID)
		}
	}
	for i := range t.Channels {
		ch := &t.Channels[i]
		if ch.ID != ChannelID(i) {
			return fmt.Errorf("trace: channel at index %d has id %d (dense layout violated)", i, ch.ID)
		}
		for _, vid := range ch.Videos {
			v := t.Video(vid)
			if v == nil {
				return fmt.Errorf("trace: channel %d references missing video %d", ch.ID, vid)
			}
			if v.Channel != ch.ID {
				return fmt.Errorf("trace: video %d claims channel %d, listed under %d", vid, v.Channel, ch.ID)
			}
		}
		for i, vid := range ch.Videos {
			if want := i + 1; t.Videos[vid].Rank != want {
				return fmt.Errorf("trace: channel %d video %d has rank %d, want %d", ch.ID, vid, t.Videos[vid].Rank, want)
			}
		}
		for _, uid := range ch.Subscribers {
			if t.User(uid) == nil {
				return fmt.Errorf("trace: channel %d references missing user %d", ch.ID, uid)
			}
		}
	}
	for i := range t.Users {
		u := &t.Users[i]
		if u.ID != UserID(i) {
			return fmt.Errorf("trace: user at index %d has id %d (dense layout violated)", i, u.ID)
		}
		for _, cid := range u.Subscriptions {
			if t.Channel(cid) == nil {
				return fmt.Errorf("trace: user %d subscribed to missing channel %d", u.ID, cid)
			}
		}
		for _, vid := range u.Favorites {
			if t.Video(vid) == nil {
				return fmt.Errorf("trace: user %d favourites missing video %d", u.ID, vid)
			}
		}
		for _, c := range u.Interests {
			if int(c) < 0 || int(c) >= t.Categories {
				return fmt.Errorf("trace: user %d has out-of-range interest %d", u.ID, c)
			}
		}
	}
	return nil
}
