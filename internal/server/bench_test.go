package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"hyperear/internal/core"
)

// BenchmarkServerThroughput drives concurrent multipart /v1/locate
// requests through the full service stack — admission pool, localizer
// cache, pipeline — and reports locates/sec. Run with -cpu 1,2 to see
// throughput scale with cores: the default worker pool admits GOMAXPROCS
// localizations at once, each detecting its two channels concurrently.
func BenchmarkServerThroughput(b *testing.B) {
	bd, err := testBundle()
	if err != nil {
		b.Fatal(err)
	}
	sess, err := testSession()
	if err != nil {
		b.Fatal(err)
	}
	pipe := core.DefaultConfig(sess.Scenario.Source, sess.Scenario.Phone.SampleRate, sess.Scenario.Phone.MicSeparation)
	srv := New(Config{
		// Queue past the bench's in-flight request count so nothing is
		// shed with 429 — this benchmark measures throughput, not
		// admission control.
		Queue:    256,
		Pipeline: pipe,
	})
	defer srv.FinishShutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// One warm-up request so template rendering, FFT plans, and scratch
	// pools are paid before the timer starts.
	doLocate(b, client, ts.URL, bd.body, bd.contentType)

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			doLocate(b, client, ts.URL, bd.body, bd.contentType)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "locates/s")
}

func doLocate(b *testing.B, client *http.Client, base string, body []byte, contentType string) {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/locate?mode=2d", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("locate returned %d", resp.StatusCode)
	}
}
