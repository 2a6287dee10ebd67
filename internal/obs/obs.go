// Package obs is the simulator's observability spine: a span-based
// tracer and a labeled metrics registry, both driven by the virtual sim
// clock. Because every timestamp is virtual time — never wall clock —
// same-seed runs emit byte-identical trace and registry documents, the
// same equivalence-pinning discipline the rest of the simulator follows.
//
// The tracer records into a chunked append-only buffer of pointer-free
// Event values: steady-state recording allocates nothing (a fresh chunk
// appears once per chunkSize events), names and tracks are interned to
// small integer IDs at setup time, and spans are plain stack values — no
// per-span heap object ever exists. Every recording method is nil-safe,
// so instrumented components pay a single predictable branch when
// tracing is disabled.
//
// Export: Chrome trace-event JSON (chrome.go, loadable in Perfetto /
// chrome://tracing). Span aggregation — the total/self-time tree per
// subsystem — lives in internal/traceview.
package obs

import (
	"sync"
	"time"
)

// chunkSize is the event-buffer chunk granularity. Recording is
// allocation-free while the current chunk has room; crossing a chunk
// boundary allocates the next chunk.
const chunkSize = 8192

// TrackID identifies one timeline (a chain, a relayer, the chaos
// injector) — one "thread" row in the Chrome trace viewer.
type TrackID int32

// NameID is an interned span/event name.
type NameID int32

// Event phases, matching the Chrome trace-event format.
const (
	PhaseComplete     = 'X' // a span with start + duration
	PhaseInstant      = 'i' // a point event
	PhaseAsyncBegin   = 'b' // async span start (id-matched, can cross tracks)
	PhaseAsyncInstant = 'n' // async point event within an async span
	PhaseAsyncEnd     = 'e' // async span end
)

// Event is one recorded trace event. The struct is pointer-free so the
// event buffer never contributes GC scan work.
type Event struct {
	TS     time.Duration // virtual start time
	Dur    time.Duration // duration (PhaseComplete only)
	ID     uint64        // async trace ID (async phases only)
	Arg    uint64        // optional numeric payload (height, batch size)
	Track  TrackID
	Name   NameID
	Phase  byte
	HasArg bool
}

// Tracer records events against the sim clock. The zero value is not
// usable; create one through New. A nil *Tracer is a valid no-op target
// for every recording method.
type Tracer struct {
	clock func() time.Duration

	// mu guards interning and the event buffer. Under parallel
	// simulation several partition workers record into one tracer;
	// serial runs pay one uncontended lock per event. Export-side
	// readers (Events, Len) run only while the simulation is quiesced
	// but take the lock anyway for -race cleanliness.
	mu sync.Mutex

	names    []string
	nameIDs  map[string]NameID
	tracks   []string
	trackIDs map[string]TrackID

	full [][]Event // sealed chunks, each exactly chunkSize long
	cur  []Event   // open chunk being filled
}

// NewTracer returns an empty tracer with an unbound (zero) clock; Bind
// attaches the scheduler clock once the deployment exists.
func NewTracer() *Tracer {
	return &Tracer{
		clock:    func() time.Duration { return 0 },
		nameIDs:  make(map[string]NameID),
		trackIDs: make(map[string]TrackID),
	}
}

// Bind attaches the virtual clock (typically sim.Scheduler.Now). Events
// recorded through Begin/End/Instant use it; explicit-timestamp methods
// (CompleteAt and friends) do not need it.
func (t *Tracer) Bind(clock func() time.Duration) {
	if t == nil || clock == nil {
		return
	}
	t.clock = clock
}

// Track interns a timeline name, returning a stable small ID. Repeated
// calls with the same name return the same ID. Returns 0 on a nil
// tracer (recording through a nil tracer is a no-op anyway).
func (t *Tracer) Track(name string) TrackID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.trackIDs[name]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.trackIDs[name] = id
	return id
}

// Name interns an event name. Interning happens at instrumentation
// setup, so the hot recording path never touches strings.
func (t *Tracer) Name(s string) NameID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.nameIDs[s]; ok {
		return id
	}
	id := NameID(len(t.names))
	t.names = append(t.names, s)
	t.nameIDs[s] = id
	return id
}

// TrackName resolves a track ID back to its registered name.
func (t *Tracer) TrackName(id TrackID) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.tracks) {
		return ""
	}
	return t.tracks[id]
}

// NameString resolves a name ID back to its registered string.
func (t *Tracer) NameString(id NameID) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// record appends one event, sealing the current chunk when full.
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cur) == chunkSize {
		t.full = append(t.full, t.cur)
		t.cur = make([]Event, 0, chunkSize)
	}
	if t.cur == nil {
		t.cur = make([]Event, 0, chunkSize)
	}
	t.cur = append(t.cur, ev)
}

// Span is an open complete-span handle — a stack value, never heap
// allocated. End it through Tracer.End.
type Span struct {
	track TrackID
	name  NameID
	start time.Duration
}

// Begin opens a span at the current virtual time.
func (t *Tracer) Begin(track TrackID, name NameID) Span {
	if t == nil {
		return Span{}
	}
	return Span{track: track, name: name, start: t.clock()}
}

// End records the span as a complete event ending now.
func (t *Tracer) End(sp Span) {
	if t == nil {
		return
	}
	now := t.clock()
	t.record(Event{TS: sp.start, Dur: now - sp.start, Track: sp.track, Name: sp.name, Phase: PhaseComplete})
}

// Complete records a complete span from start to the current time.
func (t *Tracer) Complete(track TrackID, name NameID, start time.Duration) {
	if t == nil {
		return
	}
	t.CompleteAt(track, name, start, t.clock())
}

// CompleteAt records a complete span with explicit bounds.
func (t *Tracer) CompleteAt(track TrackID, name NameID, start, end time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{TS: start, Dur: end - start, Track: track, Name: name, Phase: PhaseComplete})
}

// CompleteArg is CompleteAt with a numeric payload (block height, batch
// size) — numeric because formatting a per-event name would allocate.
func (t *Tracer) CompleteArg(track TrackID, name NameID, start, end time.Duration, arg uint64) {
	if t == nil {
		return
	}
	t.record(Event{TS: start, Dur: end - start, Track: track, Name: name, Phase: PhaseComplete, Arg: arg, HasArg: true})
}

// Instant records a point event at an explicit virtual time.
func (t *Tracer) Instant(track TrackID, name NameID, at time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{TS: at, Track: track, Name: name, Phase: PhaseInstant})
}

// InstantArg is Instant with a numeric payload.
func (t *Tracer) InstantArg(track TrackID, name NameID, at time.Duration, arg uint64) {
	if t == nil {
		return
	}
	t.record(Event{TS: at, Track: track, Name: name, Phase: PhaseInstant, Arg: arg, HasArg: true})
}

// AsyncBegin opens an id-matched async span: async events with the same
// ID form one logical flow that may hop across tracks (a packet's
// lifecycle spanning two chains).
func (t *Tracer) AsyncBegin(id uint64, track TrackID, name NameID, at time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{TS: at, ID: id, Track: track, Name: name, Phase: PhaseAsyncBegin})
}

// AsyncInstant records a point within an async flow (a lifecycle step).
func (t *Tracer) AsyncInstant(id uint64, track TrackID, name NameID, at time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{TS: at, ID: id, Track: track, Name: name, Phase: PhaseAsyncInstant})
}

// AsyncEnd closes an async flow.
func (t *Tracer) AsyncEnd(id uint64, track TrackID, name NameID, at time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{TS: at, ID: id, Track: track, Name: name, Phase: PhaseAsyncEnd})
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.full)*chunkSize + len(t.cur)
}

// Events visits every recorded event in recording order. The chunk
// list is snapshotted under the lock and walked outside it, so the
// callback may safely call back into the tracer (NameString etc.).
func (t *Tracer) Events(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	full := t.full
	cur := t.cur
	t.mu.Unlock()
	for _, chunk := range full {
		for _, ev := range chunk {
			fn(ev)
		}
	}
	for _, ev := range cur {
		fn(ev)
	}
}

// Obs bundles one run's tracer and registry. A nil *Obs (the default)
// disables all instrumentation; components hold nil inner pointers and
// every recording call no-ops.
type Obs struct {
	Tracer *Tracer
	Reg    *Registry
}

// New creates an observability bundle with an unbound clock.
func New() *Obs {
	return &Obs{Tracer: NewTracer(), Reg: NewRegistry()}
}

// Bind attaches the deployment's virtual clock to the tracer.
func (o *Obs) Bind(clock func() time.Duration) {
	if o == nil {
		return
	}
	o.Tracer.Bind(clock)
}
