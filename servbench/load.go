package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Op kinds, as the oracle and the metrics tell them apart.
type opKind int

const (
	opLocate     opKind = iota // POST /v1/locate
	opCreate                   // POST /v1/sessions
	opChunk                    // POST /v1/sessions/{id}/audio
	opIMU                      // POST /v1/sessions/{id}/imu
	opSessLocate               // POST /v1/sessions/{id}/locate
	opDelete                   // DELETE /v1/sessions/{id}
)

var opNames = [...]string{"locate", "create", "chunk", "imu", "session-locate", "delete"}

func (k opKind) String() string { return opNames[k] }

// call is one HTTP request of the generator: what to send, when it was
// due, and what came back.
type call struct {
	kind         opKind
	method, path string
	ctype        string
	body         []byte
	due          time.Time // zero: closed loop, timed from send
	sent, end    time.Time
	status       int
	resp         []byte
	err          error
	done         chan struct{}
}

// latency is the op's latency: from its due time in an open loop, from
// its send time in a closed one.
func (c *call) latency() time.Duration {
	if c.due.IsZero() {
		return c.end.Sub(c.sent)
	}
	return c.end.Sub(c.due)
}

// lag is how late the generator sent an open-loop op.
func (c *call) lag() time.Duration {
	if c.due.IsZero() {
		return 0
	}
	return c.sent.Sub(c.due)
}

// lanes are the generator's connections: one worker per lane, each
// sending one request at a time, so the open connections never exceed
// the lane count. Several lanes may share one queue.
type lanes struct {
	ctx    context.Context
	client *http.Client
	base   string
	wg     sync.WaitGroup
}

func newLanes(ctx context.Context, client *http.Client, base string) *lanes {
	return &lanes{ctx: ctx, client: client, base: base}
}

// serve starts one worker draining q; close q to stop it.
func (l *lanes) serve(q <-chan *call) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for c := range q {
			l.exec(c)
		}
	}()
}

// exec sends c now and records the outcome.
func (l *lanes) exec(c *call) {
	c.sent = time.Now()
	c.status, c.resp, c.err = do(l.ctx, l.client, c.method, l.base+c.path, c.ctype, c.body)
	c.end = time.Now()
	close(c.done)
}

// wait blocks until every worker has exited (after its queue closed).
func (l *lanes) wait() { l.wg.Wait() }

func newCall(kind opKind, method, path, ctype string, body []byte, due time.Time) *call {
	return &call{kind: kind, method: method, path: path, ctype: ctype, body: body, due: due, done: make(chan struct{})}
}

func locateCall(it *Item, due time.Time) *call {
	return newCall(opLocate, http.MethodPost, "/v1/locate?mode="+it.Mode, it.ContentType, it.Body, due)
}

// outcome is one checked op.
type outcome struct {
	c        *call
	item     *Item
	measured bool    // inside the measured window
	timed    bool    // contributes to the latency and accuracy metrics
	errM     float64 // floor-map error of a correct locate
	err      error   // oracle verdict; nil when the op is correct
}

// phase is what one workload run produced: every op with its verdict,
// and the start of the measured window.
type phase struct {
	start time.Time
	mu    sync.Mutex
	ops   []outcome
	// batch holds a correct batch locate body per item index; a session
	// locate on the item must return the same bytes. Filled before any
	// session it applies to starts.
	batch map[int][]byte
}

func (p *phase) add(o outcome) {
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

// checkedLocate applies the locate oracle to a finished call.
func checkedLocate(c *call, it *Item, measured bool) outcome {
	o := outcome{c: c, item: it, measured: measured, timed: measured}
	if o.err = c.err; o.err == nil {
		o.err = checkStatus(c.kind.String(), c.status, statusLocate, c.resp)
	}
	if o.err == nil {
		o.errM, o.err = checkLocate(it, c.resp)
	}
	return o
}

// order returns n items: seeded shuffles of the corpus, repeated, so every
// item recurs equally often whatever the seed.
func order(items []*Item, n int, rng *rand.Rand) []*Item {
	out := make([]*Item, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(items)) {
			if len(out) < n {
				out = append(out, items[i])
			}
		}
	}
	return out
}

// runLocateBatch is the open-loop batch workload: seeded Poisson arrivals
// of POST /v1/locate at a fixed rate, sent over nconn lanes sharing one
// queue, each timed from its due time.
func runLocateBatch(ctx context.Context, client *http.Client, base string, items []*Item, rng *rand.Rand, window time.Duration, rate float64, nconn int, mark func()) *phase {
	n := int(math.Round(rate * window.Seconds()))
	// A Poisson process conditioned on its count: n uniform arrival times.
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	seq := order(items, n, rng)

	l := newLanes(ctx, client, base)
	// Sized to the number of sends, so the dispatcher never blocks and a
	// slow daemon shows up as latency rather than as a late schedule.
	q := make(chan *call, n)
	for i := 0; i < nconn; i++ {
		l.serve(q)
	}
	mark()
	p := &phase{start: time.Now().Add(10 * time.Millisecond)}
	calls := make([]*call, n)
	for i, off := range offsets {
		due := p.start.Add(off)
		calls[i] = locateCall(seq[i], due)
		if !sleepUntil(ctx, due) {
			break
		}
		q <- calls[i]
	}
	close(q)
	l.wait()
	for i, c := range calls {
		if c == nil || c.sent.IsZero() {
			continue // canceled before it was due
		}
		p.add(checkedLocate(c, seq[i], true))
	}
	return p
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// session drives one streaming session through the daemon: create, the
// PCM chunks, the IMU trace, a session locate, and the delete.
type session struct {
	it    *Item
	id    string
	sent  int // frames the daemon has acknowledged
	dead  bool
	timed bool // locate counts toward the latency and accuracy metrics
}

// streamer issues session ops on a control lane and a locate lane, so
// feedback chunks never queue behind a locate in the generator.
type streamer struct {
	ctl, loc chan<- *call
	p        *phase
}

// send queues c on q, waits for the reply and applies the status oracle.
// It reports whether the op succeeded.
func (s *streamer) send(q chan<- *call, c *call, sess *session, want int, measured bool) bool {
	q <- c
	<-c.done
	o := outcome{c: c, item: sess.it, measured: measured, timed: measured}
	if o.err = c.err; o.err == nil {
		o.err = checkStatus(c.kind.String(), c.status, want, c.resp)
	}
	switch {
	case o.err != nil:
	case c.kind == opCreate:
		sess.id, o.err = parseCreated(c.resp)
	case c.kind == opChunk:
		sess.sent += len(c.body) / 4
		o.err = checkChunk(c.resp, sess.sent)
	case c.kind == opSessLocate:
		o.timed = measured && sess.timed
		o.errM, o.err = checkLocate(sess.it, c.resp)
		if batch, ok := s.p.batch[sess.it.Index]; ok && o.err == nil {
			o.err = checkStreamMatchesBatch(sess.it, c.resp, batch)
		}
	}
	if o.err != nil {
		sess.dead = true
	}
	s.p.add(o)
	return o.err == nil
}

func (s *streamer) create(sess *session, due time.Time, measured bool) bool {
	return s.send(s.ctl, newCall(opCreate, http.MethodPost, "/v1/sessions", "application/json", sess.it.Meta, due), sess, statusCreate, measured)
}

func (s *streamer) chunk(sess *session, pcm []byte, due time.Time, measured bool) bool {
	return s.send(s.ctl, newCall(opChunk, http.MethodPost, "/v1/sessions/"+sess.id+"/audio", "application/octet-stream", pcm, due), sess, statusChunk, measured)
}

// finish uploads the IMU trace, locates and deletes; the locate is due
// the moment the IMU upload is acknowledged.
func (s *streamer) finish(sess *session, due time.Time, measured bool) {
	if s.send(s.ctl, newCall(opIMU, http.MethodPost, "/v1/sessions/"+sess.id+"/imu", "text/csv", sess.it.IMU, due), sess, statusIMU, measured) {
		loc := newCall(opSessLocate, http.MethodPost, "/v1/sessions/"+sess.id+"/locate?mode="+sess.it.Mode, "", nil, time.Now())
		s.send(s.loc, loc, sess, statusLocate, measured)
	}
	s.remove(sess, time.Now(), measured)
}

func (s *streamer) remove(sess *session, due time.Time, measured bool) {
	if sess.id != "" {
		s.send(s.ctl, newCall(opDelete, http.MethodDelete, "/v1/sessions/"+sess.id, "", nil, due), sess, statusDelete, measured)
		sess.id = ""
	}
}

// runStreamSessions is the open-loop streaming workload. Each phone
// streams sessions back to back at real-time cadence. The first two
// sessions of the phones cover the corpus exactly once and are timed:
// before the window opens every phone has already streamed part of its
// first session (an untimed catch-up), so the window starts in steady
// state and both timed sessions end inside it. A phone's first session is
// one of the longer half of the corpus and its second one of the shorter
// half, so the pair fits the window. Sessions the phones begin after that
// keep the chunk load up until the window closes; their ops are checked
// and their chunks timed, but not their locates. Before any of this,
// every item is located once as a batch upload, untimed, so each session
// locate can be checked against the batch answer.
func runStreamSessions(ctx context.Context, client *http.Client, base string, items []*Item, rng *rand.Rand, window time.Duration, mark func()) (*phase, error) {
	if len(items) != 2*streamPhones {
		return nil, fmt.Errorf("stream-sessions needs %d corpus items (two per phone), have %d", 2*streamPhones, len(items))
	}
	byLen := append([]*Item(nil), items...)
	sort.SliceStable(byLen, func(i, j int) bool { return byLen[i].PCMLen < byLen[j].PCMLen })
	short, long := byLen[:streamPhones], byLen[streamPhones:]
	longPerm := rng.Perm(streamPhones)
	fillers := order(items, 64*streamPhones, rng)
	// Every corpus phone records at 44.1 kHz.
	period := time.Duration(chunkFrames) * time.Second / 44100

	p := &phase{}
	batchAnswers(ctx, client, base, items, 2, p)

	// One slot per phone: a phone has at most one op outstanding.
	ctl := make(chan *call, streamPhones)
	loc := make(chan *call, streamPhones)
	l := newLanes(ctx, client, base)
	l.serve(ctl)
	l.serve(loc)
	s := &streamer{ctl: ctl, loc: loc, p: p}

	// The schedule is fixed before the window opens. Phone k streams the
	// k-th shortest item as its second session and uploads its IMU trace at
	// window − tailRoom − k·step, so those locates end spread over the
	// window's tail. Its first session ends at least streamGap before the
	// second starts, earlier where that keeps its locate locateSep away
	// from every other, so session locates seldom queue behind one another
	// on their connection; the locate times are the same for every seed.
	// The seed picks each phone's first item, and so how much of it was
	// streamed before the window, and offsets each phone's chunk grid by a
	// fraction of a period.
	const tailRoom = 500 * time.Millisecond
	const locateSep = 400 * time.Millisecond
	chunksOf := func(it *Item) time.Duration { return time.Duration(len(it.Chunks())) }
	longest := chunksOf(short[len(short)-1])
	step := (window - tailRoom - streamGap - (longest+3)*period) / time.Duration(streamPhones-1)
	if step < period {
		return nil, fmt.Errorf("window %v too short for a %.1f s session", window, short[len(short)-1].AudioS)
	}
	locates := make([]time.Duration, 0, 2*streamPhones)
	for k := 0; k < streamPhones; k++ {
		locates = append(locates, window-tailRoom-time.Duration(k)*step)
	}
	clear := func(t time.Duration) bool {
		for _, u := range locates {
			if t > u-locateSep && t < u+locateSep {
				return false
			}
		}
		return true
	}
	type phone struct {
		first, second *session
		firstLeft     int           // chunks of the first session inside the window
		offset        time.Duration // the phone's chunk grid offset
		secondAt      time.Duration // the second session's create due time
	}
	ph := make([]phone, streamPhones)
	for k := range ph {
		a, b := long[longPerm[k]], short[k]
		secondAt := locates[k] - (chunksOf(b)+1)*period
		firstEnd := secondAt - streamGap
		for !clear(firstEnd) && firstEnd-100*time.Millisecond >= 2*period {
			firstEnd -= 100 * time.Millisecond
		}
		locates = append(locates, firstEnd)
		offset := time.Duration(rng.Float64() * float64(period))
		ph[k] = phone{
			first:     &session{it: a, timed: true},
			second:    &session{it: b, timed: true},
			firstLeft: min(int((firstEnd-offset)/period), len(a.Chunks())),
			offset:    offset,
			secondAt:  secondAt,
		}
	}

	// Untimed catch-up: create every first session and stream the part
	// that lies before the window, over both lanes.
	var wg sync.WaitGroup
	for k := range ph {
		wg.Add(1)
		go func(k int, p *phone) {
			defer wg.Done()
			s := s
			if k%2 == 1 {
				s = &streamer{ctl: loc, loc: loc, p: s.p}
			}
			sess := p.first
			if !s.create(sess, time.Time{}, false) {
				return
			}
			chunks := sess.it.Chunks()
			for _, c := range chunks[:max(0, len(chunks)-p.firstLeft)] {
				if !s.chunk(sess, c, time.Time{}, false) {
					return
				}
			}
		}(k, &ph[k])
	}
	wg.Wait()

	mark()
	s.p.start = time.Now().Add(20 * time.Millisecond)
	end := s.p.start.Add(window)
	for k := range ph {
		wg.Add(1)
		go func(k int, p *phone) {
			defer wg.Done()
			// due reports whether the window is still open at t, and
			// waits for t.
			due := func(t time.Time) bool { return t.Before(end) && sleepUntil(ctx, t) }
			// play streams chunks at real-time cadence after t, then
			// uploads the IMU trace, locates and deletes; false when the
			// window closed first or an op failed.
			play := func(sess *session, chunks [][]byte, t time.Time) bool {
				for i, c := range chunks {
					at := t.Add(time.Duration(i+1) * period)
					if !due(at) || !s.chunk(sess, c, at, true) {
						return false
					}
				}
				at := t.Add(time.Duration(len(chunks)+1) * period)
				if !due(at) {
					return false
				}
				s.finish(sess, at, true)
				return !sess.dead
			}
			// open creates sess at t and plays it whole.
			open := func(sess *session, t time.Time) bool {
				ok := due(t) && s.create(sess, t, true) && play(sess, sess.it.Chunks(), t)
				if sess.id != "" {
					// Cut off by the window: the phone gives up and
					// deletes, untimed.
					s.remove(sess, time.Time{}, false)
				}
				return ok
			}
			first := p.first.it.Chunks()
			if p.first.dead || !play(p.first, first[len(first)-p.firstLeft:], s.p.start.Add(p.offset-period)) {
				return
			}
			t := s.p.start.Add(p.secondAt)
			if !open(p.second, t) {
				return
			}
			// Fillers keep the phone streaming until the window closes.
			t = t.Add((chunksOf(p.second.it)+1)*period + streamGap)
			for i := 0; ; i++ {
				f := fillers[(k*64+i)%len(fillers)]
				if !open(&session{it: f}, t) {
					return
				}
				t = t.Add((chunksOf(f)+1)*period + streamGap)
			}
		}(k, &ph[k])
	}
	wg.Wait()
	for k := range ph {
		if sess := ph[k].first; sess.id != "" {
			s.remove(sess, time.Time{}, false)
		}
	}
	close(ctl)
	close(loc)
	l.wait()
	return s.p, nil
}

// runProbe streams items through sessions back to back on one idle
// connection: the feedback-path probe locate-batch reports chunk latency
// from.
func runProbe(ctx context.Context, client *http.Client, base string, items []*Item, p *phase) {
	ctl := make(chan *call)
	l := newLanes(ctx, client, base)
	l.serve(ctl)
	s := &streamer{ctl: ctl, loc: ctl, p: p}
	for _, it := range items {
		sess := &session{it: it}
		if !s.create(sess, time.Time{}, true) {
			continue
		}
		for _, c := range it.Chunks() {
			if !s.chunk(sess, c, time.Time{}, true) {
				break
			}
		}
		if sess.dead {
			s.remove(sess, time.Time{}, true)
			continue
		}
		s.finish(sess, time.Time{}, true)
	}
	close(ctl)
	l.wait()
}

// batchAnswers posts every item once as a batch locate over nconn lanes,
// untimed, and keeps each correct answer for the session oracle.
func batchAnswers(ctx context.Context, client *http.Client, base string, items []*Item, nconn int, p *phase) {
	q := make(chan *call, len(items))
	l := newLanes(ctx, client, base)
	for i := 0; i < nconn; i++ {
		l.serve(q)
	}
	calls := make([]*call, len(items))
	for i, it := range items {
		calls[i] = locateCall(it, time.Time{})
		q <- calls[i]
	}
	close(q)
	l.wait()
	p.batch = map[int][]byte{}
	for i, c := range calls {
		o := checkedLocate(c, items[i], false)
		p.add(o)
		if o.err == nil {
			p.batch[items[i].Index] = c.resp
		}
	}
}

// parseCreated reads the session id from a create response.
func parseCreated(body []byte) (string, error) {
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
		return "", fmt.Errorf("create: no session id in %.200q (%v)", body, err)
	}
	return r.ID, nil
}
