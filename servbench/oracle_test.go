package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperear"
	"hyperear/internal/core"
	"hyperear/internal/server"
)

// The tests drive the daemon's own handler in-process with the
// generator's code and check its answers with the oracle. A
// response-rewriting middleware plants one wrong answer per case, and
// each must be counted as a failed op.

var fixtureOnce struct {
	sync.Once
	it  *Item
	err error
}

// fixture renders one short 2D session and its reference fix.
func fixture(t *testing.T) *Item {
	t.Helper()
	f := &fixtureOnce
	f.Do(func() {
		pipes := newPipelines(runtime.GOMAXPROCS(0))
		sp := spec{phone: "s4", noise: "quiet", motion: "ruler", mode: "2d", slides: 3, dist: 2.5}
		for seed := int64(1); seed <= maxRedraws; seed++ {
			it, err := renderItem(sp, 0, rand.New(rand.NewSource(seed)))
			if err != nil {
				f.err = err
				return
			}
			if it.checkRef(context.Background(), pipes); it.refErr == nil {
				f.it = it
				return
			}
			f.err = it.refErr
		}
	})
	if f.it == nil {
		t.Fatalf("rendering the fixture session: %v", f.err)
	}
	return f.it
}

// planter passes requests to the daemon's handler and lets rewrite
// replace the body of the nth response of each op kind (n counts from 1).
type planter struct {
	h       http.Handler
	rewrite func(kind string, n int, body []byte) []byte
	mu      sync.Mutex
	seen    map[string]int
}

func (p *planter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	kind := kindOf(r)
	p.mu.Lock()
	p.seen[kind]++
	n := p.seen[kind]
	p.mu.Unlock()
	body := rec.Body.Bytes()
	if p.rewrite != nil {
		body = p.rewrite(kind, n, body)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// kindOf names a request by the op kind the generator sends it as.
func kindOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/locate":
		return opLocate.String()
	case p == "/v1/sessions":
		return opCreate.String()
	case r.Method == http.MethodDelete:
		return opDelete.String()
	case strings.HasSuffix(p, "/audio"):
		return opChunk.String()
	case strings.HasSuffix(p, "/imu"):
		return opIMU.String()
	case strings.HasSuffix(p, "/locate"):
		return opSessLocate.String()
	}
	return p
}

// editJSON decodes a JSON object, applies edit and re-encodes it.
func editJSON(t *testing.T, body []byte, edit func(m map[string]any)) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Errorf("planting into %.200q: %v", body, err)
		return body
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Errorf("planting: %v", err)
		return body
	}
	return out
}

// drive sends the item once as a batch locate and once as a streamed
// session through the planted daemon, as the workloads do, and returns
// the checked ops.
func drive(t *testing.T, it *Item, rewrite func(kind string, n int, body []byte) []byte) *phase {
	s4 := hyperear.GalaxyS4()
	srv := server.New(server.Config{Pipeline: core.DefaultConfig(hyperear.DefaultBeacon(), s4.SampleRate, s4.MicSeparation)})
	ts := httptest.NewServer(&planter{h: srv.Handler(), rewrite: rewrite, seen: map[string]int{}})
	defer ts.Close()
	defer srv.FinishShutdown()
	client := ts.Client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p := &phase{start: time.Now(), batch: map[int][]byte{}}
	c := locateCall(it, time.Time{})
	newLanes(ctx, client, ts.URL).exec(c)
	o := checkedLocate(c, it, true)
	p.add(o)
	if o.err == nil {
		p.batch[it.Index] = c.resp
	}
	runProbe(ctx, client, ts.URL, []*Item{it}, p)
	return p
}

// resultLine emits r and decodes the verdict from the last line.
func resultLine(t *testing.T, r *result) (correct bool, attempted, failed int) {
	t.Helper()
	var out bytes.Buffer
	if err := emit(&out, map[string]any{}, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res.Correct, res.Attempted, res.Failed
}

func TestOracleAcceptsTheDaemon(t *testing.T) {
	it := fixture(t)
	r := summarize(drive(t, it, nil))
	if r.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.errs)
	}
	// One batch locate, then create, every chunk, IMU, locate and delete.
	if want := 1 + 4 + len(it.Chunks()); r.attempted != want {
		t.Errorf("attempted %d ops, want %d", r.attempted, want)
	}
	if correct, _, _ := resultLine(t, r); !correct {
		t.Errorf("result is not correct")
	}
}

func TestPlantedFaultsCountAsFailed(t *testing.T) {
	it := fixture(t)
	cases := []struct {
		name    string
		rewrite func(t *testing.T, kind string, n int, body []byte) []byte
		want    string
	}{{
		name: "perturbed fix",
		rewrite: func(t *testing.T, kind string, n int, body []byte) []byte {
			if kind != opLocate.String() {
				return body
			}
			return editJSON(t, body, func(m map[string]any) {
				pos := m["pos"].(map[string]any)
				pos["X"] = math.Nextafter(pos["X"].(float64), math.Inf(1))
			})
		},
		want: "not bit-identical",
	}, {
		name: "mis-accounted chunk",
		rewrite: func(t *testing.T, kind string, n int, body []byte) []byte {
			if kind != opChunk.String() || n != 2 {
				return body
			}
			return editJSON(t, body, func(m map[string]any) { m["consumed"] = m["consumed"].(float64) - 1 })
		},
		want: "consumed",
	}, {
		// A field the fix oracle does not read, so only the comparison
		// with the batch answer can catch it.
		name: "stream/batch mismatch",
		rewrite: func(t *testing.T, kind string, n int, body []byte) []byte {
			if kind != opSessLocate.String() {
				return body
			}
			return editJSON(t, body, func(m map[string]any) {
				m["diagnostics"] = append(m["diagnostics"].([]any), map[string]any{"index": 0, "reason": "planted"})
			})
		},
		want: "differs from the batch answer",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := drive(t, it, func(kind string, n int, body []byte) []byte { return tc.rewrite(t, kind, n, body) })
			r := summarize(p)
			if r.failed != 1 {
				t.Fatalf("%d ops failed, want 1 (the planted one): %v", r.failed, r.errs)
			}
			if !strings.Contains(r.errs[0], tc.want) {
				t.Errorf("failure %q does not mention %q", r.errs[0], tc.want)
			}
			if correct, attempted, failed := resultLine(t, r); correct || failed != 1 || attempted != r.attempted {
				t.Errorf("result says correct %v with %d of %d failed, want false with 1 of %d", correct, failed, attempted, r.attempted)
			}
		})
	}
}
