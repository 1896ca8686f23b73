package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"mime/multipart"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperear"
	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sessionio"
	"hyperear/internal/sim"
)

// The corpus is a fixed pool of simulated sessions. Rendering one costs
// about a CPU-second (room acoustics for every path and sample), far too
// much to redo per run, and the accuracy metrics are only steady over the
// same sessions; so the pool is rendered once per source tree from
// corpusSeed and cached, and a run's --seed drives everything the
// generator does with it (item order, arrival times, phone staggering).
const (
	corpusSeed = 20190707
	corpusSize = 32
	// corpusVersion names the pool layout; bump it when the rendering
	// below changes (the cache key covers the program's sources, not the
	// benchmark's).
	corpusVersion = "servbench-corpus-v2"
	// benchDir is the benchmark's directory under the repository root.
	benchDir = "servbench"
)

// chunkFrames is the streaming chunk size: 4096 stereo frames, 92.9 ms of
// audio at 44.1 kHz, the cadence a phone streams at.
const chunkFrames = 4096

// maxErrM is the oracle's accuracy bound: a fix farther than this from
// ground truth is a failed op.
const maxErrM = 1.0

// Item is one corpus entry: every byte the load generator sends for one
// simulated session, the ground truth, and the in-process reference fix.
type Item struct {
	Index   int
	Phone   string // "s4" or "note3"
	Noise   string // "quiet", "chatting" or "mall"
	Motion  string // "ruler" or "hand"
	Mode    string // "2d" or "3d"
	Slides  int
	DistM   float64
	SkewPPM float64
	// AudioS is the recording length in seconds.
	AudioS float64

	// Body is the multipart bundle (audio WAV, IMU CSV, meta JSON) for
	// POST /v1/locate; ContentType carries its boundary.
	Body        []byte
	ContentType string
	// IMU and Meta are the bundle's other two parts, which streaming
	// sessions send on their own.
	IMU  []byte
	Meta []byte
	// PCMAt and PCMLen locate the WAV data section inside Body.
	PCMAt, PCMLen int
	Truth         Truth
	// Redraws counts the draws of this slot the pipeline could not
	// localize (see maxRedraws).
	Redraws int

	// ref is the reference fix: the bundle decoded by
	// sessionio.ReadBundleMultipart and localized in-process with the
	// daemon's pipeline config. refErr is set when that failed, and every
	// op on the item then fails.
	ref    Fix
	refErr error
}

// Truth is the simulator ground truth a fix is scored against.
type Truth struct {
	PhoneStart, Speaker geom.Vec3
	YawErrDeg, TrueYaw  float64
}

// PCM is the item's audio as interleaved stereo int16 LE, aliasing the
// bundle's WAV data so stream and batch carry the same samples.
func (it *Item) PCM() []byte { return it.Body[it.PCMAt : it.PCMAt+it.PCMLen] }

// Chunks cuts the PCM into chunkFrames-frame chunks.
func (it *Item) Chunks() [][]byte {
	const step = chunkFrames * 4
	pcm := it.PCM()
	var out [][]byte
	for at := 0; at < len(pcm); at += step {
		out = append(out, pcm[at:min(at+step, len(pcm))])
	}
	return out
}

// errM is the 2D floor-map error of a fix against ground truth, the
// paper's metric: the body-frame estimate mapped through the session's
// start pose by hyperear.BodyToWorld.
func (it *Item) errM(f Fix) float64 {
	s := &sim.Session{
		Scenario: sim.Scenario{
			PhoneStart: it.Truth.PhoneStart, SpeakerPos: it.Truth.Speaker,
			Protocol: sim.Protocol{YawErrDeg: it.Truth.YawErrDeg},
		},
		TrueYaw: it.Truth.TrueYaw,
	}
	return hyperear.Error2D(hyperear.BodyToWorld(f.FloorPos(), s), s)
}

// noiseRegimes are the paper's evaluation noise conditions the corpus
// spans, each in the room it was measured in.
var noiseRegimes = []struct {
	name   string
	env    func() room.Environment
	regime room.Regime
}{
	{"quiet", room.MeetingRoom, room.RegimeQuietRoom},
	{"chatting", room.MeetingRoom, room.RegimeChatting},
	{"mall", room.MallCorridor, room.RegimeMallOffPeak},
}

var phones = map[string]func() mic.Phone{"s4": mic.GalaxyS4, "note3": mic.GalaxyNote3}

// spec is one corpus slot's grid cell.
type spec struct {
	phone, noise, motion, mode string
	slides                     int
	dist                       float64
}

// corpusSpecs lays n slots over the evaluation grid: the categorical axes
// (mode, phone, noise, motion) cycle with the slot index, and distance
// (1–7 m) and slide count (3–12) are stratified over their ranges and
// shuffled so they pair differently with the categories.
func corpusSpecs(n int, rng *rand.Rand) []spec {
	distPerm, slidePerm := rng.Perm(n), rng.Perm(n)
	out := make([]spec, n)
	for i := range out {
		s := spec{
			mode:   [...]string{"2d", "3d"}[i%2],
			phone:  [...]string{"s4", "note3"}[(i/2)%2],
			noise:  noiseRegimes[(i/4)%3].name,
			motion: [...]string{"ruler", "hand"}[(i/12)%2],
		}
		s.dist = 1 + 6*(float64(distPerm[i])+rng.Float64())/float64(n)
		frac := (float64(slidePerm[i]) + 0.5) / float64(n)
		if s.mode == "3d" {
			// Two statures need an even count, at least two per stature.
			s.slides = 4 + 2*int(frac*5)
		} else {
			s.slides = 3 + int(frac*10)
		}
		out[i] = s
	}
	return out
}

// LoadCorpus returns the pool, rendering it with up to workers goroutines
// on a cache miss. cacheDir holds one file per source-tree digest.
func LoadCorpus(ctx context.Context, p *pipelines, digest, cacheDir string, workers int) ([]*Item, bool, error) {
	key := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d/%s", corpusVersion, corpusSeed, corpusSize, digest)))
	path := filepath.Join(cacheDir, "corpus-"+hex.EncodeToString(key[:8])+".gob")
	if items, err := readCorpus(path); err == nil {
		return items, true, nil
	}
	items, err := renderCorpus(ctx, p, workers)
	if err != nil {
		return nil, false, err
	}
	if err := writeCorpus(path, items); err != nil {
		return nil, false, err
	}
	return items, false, nil
}

func readCorpus(path string) ([]*Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var items []*Item
	if err := gob.NewDecoder(f).Decode(&items); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(items) != corpusSize {
		return nil, fmt.Errorf("%s holds %d items, want %d", path, len(items), corpusSize)
	}
	return items, nil
}

func writeCorpus(path string, items []*Item) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(items); err != nil {
		f.Close()
		return fmt.Errorf("encoding corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// maxRedraws bounds how often one corpus slot is re-drawn because the
// pipeline could not localize the session within maxErrM, or the daemon
// could not encode the answer (a 3D fix whose stature angle is undefined
// comes back as an empty 200).
const maxRedraws = 8

// renderCorpus renders every slot, re-drawing a slot from its next
// sub-seed while the reference pipeline cannot localize it.
func renderCorpus(ctx context.Context, p *pipelines, workers int) ([]*Item, error) {
	specs := corpusSpecs(corpusSize, rand.New(rand.NewSource(corpusSeed)))
	items := make([]*Item, len(specs))
	errs := make([]error, len(specs))
	parallel(len(specs), workers, func(i int) {
		for attempt := 0; attempt <= maxRedraws; attempt++ {
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			rng := rand.New(rand.NewSource(corpusSeed*1_000_003 + int64(i)*7919 + int64(attempt)*104_729))
			it, err := renderItem(specs[i], i, rng)
			if err != nil {
				errs[i] = err
				return
			}
			if it.checkRef(ctx, p); it.refErr == nil {
				it.Redraws = attempt
				items[i] = it
				return
			}
			errs[i] = fmt.Errorf("slot %d: %w", i, it.refErr)
		}
	})
	if err := errors.Join(errs...); err != nil {
		for _, it := range items {
			if it == nil {
				return nil, fmt.Errorf("rendering corpus: %w", err)
			}
		}
	}
	return items, nil
}

// parallel runs fn(0..n-1) on up to workers goroutines and waits.
func parallel(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// renderItem simulates one session for a slot and encodes its wire
// artifacts.
func renderItem(sp spec, index int, rng *rand.Rand) (*Item, error) {
	var env room.Environment
	var regime room.Regime
	for _, nr := range noiseRegimes {
		if nr.name == sp.noise {
			env, regime = nr.env(), nr.regime
		}
	}
	mode := sim.ModeRuler
	if sp.motion == "hand" {
		mode = sim.ModeHand
	}
	phoneZ, speakerZ := 1.2, 1.2
	proto := sim.Protocol{SlideDist: 0.50 + 0.10*rng.Float64(), SlideDur: 1.0, HoldDur: 0.45, Slides: sp.slides, Mode: mode}
	if sp.mode == "3d" {
		// The paper's two-stature protocol: a volunteer's stature spread
		// and a tripod speaker (§VII-D).
		phoneZ = 1.0 + 0.4*rng.Float64()
		speakerZ = 0.5
		proto.StatureChange = 0.35 + 0.15*rng.Float64()
	}
	phonePos, spkPos := placeInRoom(env, sp.dist, phoneZ, speakerZ, rng)
	skew := -30 + 60*rng.Float64()
	sc := sim.Scenario{
		Env:            env,
		Phone:          phones[sp.phone](),
		Source:         chirp.Default(),
		SpeakerPos:     spkPos,
		SpeakerSkewPPM: skew,
		PhoneStart:     phonePos,
		Protocol:       proto,
		IMU:            imu.DefaultConfig(),
		Noise:          regime.Source(),
		SNRdB:          regime.SNRdB(),
		Seed:           rng.Int63(),
	}
	s, err := sim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("slot %d: simulate: %w", index, err)
	}
	it := &Item{
		Index: index, Phone: sp.phone, Noise: sp.noise, Motion: sp.motion, Mode: sp.mode,
		Slides: sp.slides, DistM: sp.dist, SkewPPM: skew,
		AudioS: float64(len(s.Recording.Mic1)) / s.Recording.Fs,
		Truth:  Truth{PhoneStart: phonePos, Speaker: spkPos, YawErrDeg: proto.YawErrDeg, TrueYaw: s.TrueYaw},
	}
	if err := it.encode(s, rng); err != nil {
		return nil, fmt.Errorf("slot %d: %w", index, err)
	}
	return it, nil
}

// placeInRoom draws a phone and a speaker position dist apart
// horizontally, both at least a meter inside the walls.
func placeInRoom(env room.Environment, dist, phoneZ, speakerZ float64, rng *rand.Rand) (phonePos, spkPos geom.Vec3) {
	const margin = 1.0
	for attempt := 0; attempt < 1000; attempt++ {
		px := margin + rng.Float64()*(env.Size.X-2*margin)
		py := margin + rng.Float64()*(env.Size.Y-2*margin)
		theta := rng.Float64() * 2 * math.Pi
		sx, sy := px+dist*math.Cos(theta), py+dist*math.Sin(theta)
		if sx < margin || sx > env.Size.X-margin || sy < margin || sy > env.Size.Y-margin {
			continue
		}
		return geom.Vec3{X: px, Y: py, Z: phoneZ}, geom.Vec3{X: sx, Y: sy, Z: speakerZ}
	}
	cy := env.Size.Y / 2
	return geom.Vec3{X: margin, Y: cy, Z: phoneZ}, geom.Vec3{X: margin + dist, Y: cy, Z: speakerZ}
}

// wireMeta is the meta part: the phone geometry that selects the daemon's
// per-phone localizer.
type wireMeta struct {
	PhoneName     string  `json:"phoneName"`
	MicSeparation float64 `json:"micSeparationM"`
	SampleRate    float64 `json:"sampleRateHz"`
}

// encode writes the session's wire artifacts with the daemon's own codecs
// (sessionio WAV and IMU CSV) and wraps them in a multipart bundle whose
// boundary is drawn from rng, so the bytes are a function of the seed.
func (it *Item) encode(s *sim.Session, rng *rand.Rand) error {
	var wav, csv bytes.Buffer
	if err := sessionio.WriteRecording(&wav, s.Recording); err != nil {
		return err
	}
	if err := sessionio.WriteIMU(&csv, s.IMU); err != nil {
		return err
	}
	p := s.Scenario.Phone
	meta, err := json.Marshal(wireMeta{PhoneName: p.Name, MicSeparation: p.MicSeparation, SampleRate: p.SampleRate})
	if err != nil {
		return err
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.SetBoundary(fmt.Sprintf("servbench%016x", rng.Uint64())); err != nil {
		return err
	}
	audioAt := -1
	for _, part := range []struct {
		name, file string
		data       []byte
	}{
		{sessionio.PartAudio, "audio.wav", wav.Bytes()},
		{sessionio.PartIMU, "imu.csv", csv.Bytes()},
		{sessionio.PartMeta, "meta.json", meta},
	} {
		w, err := mw.CreateFormFile(part.name, part.file)
		if err != nil {
			return err
		}
		if part.name == sessionio.PartAudio {
			audioAt = body.Len()
		}
		if _, err := w.Write(part.data); err != nil {
			return err
		}
	}
	if err := mw.Close(); err != nil {
		return err
	}
	at, n, err := wavData(wav.Bytes())
	if err != nil {
		return err
	}
	it.Body, it.ContentType = body.Bytes(), mw.FormDataContentType()
	it.IMU, it.Meta = csv.Bytes(), meta
	it.PCMAt, it.PCMLen = audioAt+at, n
	return nil
}

// wavData locates the data chunk of a 16-bit stereo PCM WAV.
func wavData(wav []byte) (at, n int, err error) {
	for at := 12; at+8 <= len(wav); {
		id := string(wav[at : at+4])
		size := int(binary.LittleEndian.Uint32(wav[at+4 : at+8]))
		if id == "data" {
			if at+8+size > len(wav) || size%4 != 0 {
				return 0, 0, fmt.Errorf("wav data chunk of %d bytes is truncated or not stereo int16", size)
			}
			return at + 8, size, nil
		}
		at += 8 + size + size%2
	}
	return 0, 0, fmt.Errorf("wav has no data chunk")
}

// sourceDigest hashes the program's Go sources and module files under
// root: everything but the benchmark's own directory and hidden
// directories such as its build output. It keys the corpus cache and
// identifies the code under test when the checkout carries no
// version-control metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, benchDir)) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if (strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")) || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// daemonWorkers is the server's admission worker count at the daemon's
// default flags (-workers 0 resolves to 2 when the pipeline leaves
// Parallelism unset).
const daemonWorkers = 2

// daemonPipeline is the localization config hyperearservd builds for a
// request with this meta at the compose flags: the Galaxy S4 defaults
// (-phone s4), the meta's geometry overrides, the server's per-locate
// share of the box (GOMAXPROCS / Workers), and its 200 µs batch window
// with two lanes per worker.
func daemonPipeline(meta sessionio.Meta, gomaxprocs int) core.Config {
	s4 := hyperear.GalaxyS4()
	cfg := core.DefaultConfig(hyperear.DefaultBeacon(), s4.SampleRate, s4.MicSeparation)
	if meta.SampleRate > 0 {
		cfg.SampleRate = meta.SampleRate
	}
	if meta.MicSeparation > 0 {
		cfg.MicSeparation = meta.MicSeparation
	}
	cfg.Parallelism = max(1, gomaxprocs/daemonWorkers)
	cfg.ASP.BatchWindow = 200 * time.Microsecond
	cfg.ASP.MaxBatch = 2 * daemonWorkers
	return cfg
}

// pipelines caches one in-process localizer per phone geometry, as the
// daemon's localizer cache does.
type pipelines struct {
	gomaxprocs int
	mu         sync.Mutex
	locs       map[float64]*core.Localizer
}

func newPipelines(gomaxprocs int) *pipelines {
	return &pipelines{gomaxprocs: gomaxprocs, locs: make(map[float64]*core.Localizer)}
}

func (p *pipelines) localizer(meta sessionio.Meta) (*core.Localizer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.locs[meta.MicSeparation]; ok {
		return l, nil
	}
	l, err := core.NewLocalizer(daemonPipeline(meta, p.gomaxprocs))
	if err != nil {
		return nil, err
	}
	p.locs[meta.MicSeparation] = l
	return l, nil
}

// computeRefs fills every item's reference fix.
func computeRefs(ctx context.Context, items []*Item, p *pipelines, workers int) {
	parallel(len(items), workers, func(i int) { items[i].checkRef(ctx, p) })
}

// checkRef computes the item's reference fix, decoding the bundle the way
// the daemon does and localizing it in-process, and checks it against
// ground truth.
func (it *Item) checkRef(ctx context.Context, p *pipelines) {
	it.ref, it.refErr = p.reference(ctx, it)
	if it.refErr == nil {
		if e := it.errM(it.ref); !(e <= maxErrM) {
			it.refErr = fmt.Errorf("reference fix is %.1f cm from ground truth", 100*e)
		}
	}
}

func (p *pipelines) reference(ctx context.Context, it *Item) (Fix, error) {
	b, err := decodeBundle(it)
	if err != nil {
		return Fix{}, err
	}
	defer sessionio.RecycleBundle(b)
	loc, err := p.localizer(b.Meta)
	if err != nil {
		return Fix{}, err
	}
	return locateWith(ctx, loc, b, it.Mode)
}

// decodeBundle runs sessionio.ReadBundleMultipart over the item's body.
func decodeBundle(it *Item) (*sessionio.Bundle, error) {
	boundary, ok := cutBoundary(it.ContentType)
	if !ok {
		return nil, fmt.Errorf("content type %q has no boundary", it.ContentType)
	}
	return sessionio.ReadBundleMultipart(multipart.NewReader(bytes.NewReader(it.Body), boundary))
}

// locateWith runs one 2D or 3D localization and returns its fix as the
// daemon reports it.
func locateWith(ctx context.Context, loc *core.Localizer, b *sessionio.Bundle, mode string) (Fix, error) {
	if mode == "3d" {
		res, err := loc.Locate3DContext(ctx, b.Recording, b.IMU)
		if err != nil {
			return Fix{}, err
		}
		return fix3D(res)
	}
	res, err := loc.Locate2DContext(ctx, b.Recording, b.IMU)
	if err != nil {
		return Fix{}, err
	}
	return fix2D(res), nil
}
