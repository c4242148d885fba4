package telemetry_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	a := loadedAggregator()
	srv, err := telemetry.NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, ctype := get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content-type %q", ctype)
	}
	fams := mustParseProm(t, []byte(body))
	if fams["chkptsim_events_total"] == nil {
		t.Error("/metrics payload missing event totals")
	}

	code, body, ctype = get(t, srv.URL()+"/snapshot.json")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/snapshot.json status %d ctype %q", code, ctype)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot.json does not parse: %v", err)
	}
	if snap.Total == 0 || len(snap.Procs) == 0 {
		t.Errorf("snapshot.json empty: %+v", snap)
	}

	// loadedAggregator leaves procs stalled: /healthz must say so.
	code, body, _ = get(t, srv.URL()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "unhealthy") {
		t.Errorf("/healthz on a stalled run: status %d body %q", code, body)
	}

	code, body, _ = get(t, srv.URL()+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status %d body %q", code, body)
	}
	if code, _, _ = get(t, srv.URL()+"/nope"); code != 404 {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

func TestServerHealthzHealthy(t *testing.T) {
	a := telemetry.New(telemetry.Config{Window: time.Hour})
	a.OnEvent(obs.Event{Kind: obs.KindCompute, Proc: 0})
	a.Tick()
	srv, err := telemetry.NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, _ := get(t, srv.URL()+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: status %d body %q", code, body)
	}
}

func TestServerBadAddr(t *testing.T) {
	if _, err := telemetry.NewServer("256.0.0.1:http-nope", telemetry.New(telemetry.Config{})); err == nil {
		t.Fatal("NewServer accepted a garbage address")
	}
}

// TestServerScrapeDuringIngest: scraping while events pour in must stay
// consistent (run with -race for the real assertion).
func TestServerScrapeDuringIngest(t *testing.T) {
	a := telemetry.New(telemetry.Config{Nproc: 4, Window: time.Millisecond})
	stop := a.Start()
	defer stop()
	srv, err := telemetry.NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			a.OnEvent(obs.Event{Kind: obs.KindChkpt, Proc: i % 4, VTime: float64(i), DurNS: 1e6})
		}
	}()
	for i := 0; i < 5; i++ {
		if code, body, _ := get(t, srv.URL()+"/metrics"); code != 200 {
			t.Fatalf("scrape %d failed: %d", i, code)
		} else {
			mustParseProm(t, []byte(body))
		}
	}
	<-done
}

// TestSnapshotJSONEncodableWhenEmpty: a fresh aggregator's /snapshot.json
// encodes, and a distribution the tap has not recorded yet summarizes as
// all zeros.
func TestSnapshotJSONEncodableWhenEmpty(t *testing.T) {
	a := telemetry.New(telemetry.Config{Window: time.Hour, Counters: &metrics.Counters{}})
	a.Tick() // sample the (empty) counters tap, histograms included
	raw, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatalf("empty snapshot not encodable: %v", err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SaveMS != (telemetry.Quantiles{}) {
		t.Errorf("quantiles of an unrecorded distribution: %+v", back.SaveMS)
	}
}
