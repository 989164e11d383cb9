package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/mddsm/mddsm/internal/api"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/serve"
)

// stack is the program as a user runs it, in this process: the tenant
// host, its REST/SSE front end and the newline-JSON wire router, both on
// loopback listeners.
type stack struct {
	serve *serve.Server
	api   *api.Server
	hs    *http.Server
	hdone chan struct{}
	wire  *remote.Server
	base  string // http://127.0.0.1:port
	http  *http.Client
	tr    *http.Transport
}

// startStack starts a tenant host holding at most maxResident live
// platforms, with the HTTP API and the wire router in front of it.
func startStack(maxResident int) (*stack, error) {
	s := serve.NewServer(serve.Config{MaxResident: maxResident})
	a, err := api.New(api.Config{Serve: s})
	if err != nil {
		s.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		s.Close()
		return nil, err
	}
	wire, err := remote.NewRouterServer(s, "127.0.0.1:0")
	if err != nil {
		ln.Close()
		a.Close()
		s.Close()
		return nil, err
	}
	st := &stack{
		serve: s, api: a, wire: wire, hdone: make(chan struct{}),
		hs:   &http.Server{Handler: a},
		base: "http://" + ln.Addr().String(),
	}
	st.tr = &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	st.http = &http.Client{Transport: st.tr}
	go func() {
		defer close(st.hdone)
		_ = st.hs.Serve(ln)
	}()
	return st, nil
}

// close stops every listener and drains every resident platform.
func (st *stack) close() {
	st.api.Close()
	_ = st.hs.Close()
	<-st.hdone
	st.tr.CloseIdleConnections()
	st.wire.Close()
	st.serve.Close()
}

// do performs one HTTP request with a JSON body (nil for none) and returns
// the status and the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// mustJSON marshals a value the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal: %v", err))
	}
	return b
}

// createTenant provisions a tenant over HTTP and submits its seed model
// over the wire, the two ways users provision and load a tenant.
func (st *stack) createTenant(wire *remote.Client, name, bundle string, seed modelDoc) error {
	code, body, err := do(st.http, "POST", st.base+"/tenants/"+name, mustJSON(map[string]any{"bundle": bundle}))
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("create %s: %d %s %v", name, code, body, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(mustJSON(seed), &doc); err != nil {
		return err
	}
	if _, err := wire.Control("submit", name, map[string]any{"model": doc}); err != nil {
		return fmt.Errorf("seed %s: %w", name, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// SSE watch
// ---------------------------------------------------------------------------

// delta is one SSE delta frame as the watcher saw it.
type delta struct {
	Seq     uint64
	At      time.Time
	Objects []string // object ids the changes name, in order
}

// watcher reads one tenant's /watch stream on its own connection.
type watcher struct {
	resp    *http.Response
	tr      *http.Transport
	mu      sync.Mutex
	snapSeq uint64
	deltas  []delta
	done    chan struct{}
}

// watch opens the SSE stream and waits for its snapshot frame.
func (st *stack) watch(tenant string) (*watcher, error) {
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Get(st.base + "/tenants/" + tenant + "/watch")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("watch %s: status %d", tenant, resp.StatusCode)
	}
	w := &watcher{resp: resp, tr: tr, done: make(chan struct{})}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	ev, data, err := readSSE(br)
	if err != nil || ev != "snapshot" {
		resp.Body.Close()
		return nil, fmt.Errorf("watch %s: no snapshot frame: %q %v", tenant, ev, err)
	}
	var snap struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("watch %s: snapshot: %w", tenant, err)
	}
	w.snapSeq = snap.Seq
	go w.loop(br)
	return w, nil
}

// loop records every delta frame until the stream ends. A stream that
// breaks early leaves deltas missing, which checkWatch reports.
func (w *watcher) loop(br *bufio.Reader) {
	defer close(w.done)
	for {
		ev, data, err := readSSE(br)
		if err != nil {
			return
		}
		at := time.Now()
		if ev != "delta" {
			continue
		}
		var doc struct {
			Seq     uint64 `json:"seq"`
			Changes []struct {
				Object string `json:"object"`
			} `json:"changes"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return
		}
		d := delta{Seq: doc.Seq, At: at, Objects: make([]string, len(doc.Changes))}
		for i, c := range doc.Changes {
			d.Objects[i] = c.Object
		}
		w.mu.Lock()
		w.deltas = append(w.deltas, d)
		w.mu.Unlock()
	}
}

// count returns how many deltas have arrived.
func (w *watcher) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deltas)
}

// waitFor waits until n deltas have arrived or the deadline passes.
func (w *watcher) waitFor(n int, d time.Duration) {
	end := time.Now().Add(d)
	for w.count() < n && time.Now().Before(end) {
		time.Sleep(time.Millisecond)
	}
}

// stop closes the stream and waits for the reader to exit.
func (w *watcher) stop() []delta {
	w.resp.Body.Close()
	<-w.done
	w.tr.CloseIdleConnections()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deltas
}

// readSSE reads one server-sent event: its event name and data payload.
// Comment lines are skipped.
func readSSE(br *bufio.Reader) (string, []byte, error) {
	var ev string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return "", nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev != "" || data != nil {
				return ev, data, nil
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile 0.5 of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// probe samples the process's resource counters across a timed phase.
type probe struct {
	mem runtime.MemStats
	cpu time.Duration
}

// startProbe forces a GC, so the timed phase starts from a settled heap,
// and samples the counters.
func startProbe() *probe {
	runtime.GC()
	p := &probe{cpu: cpuTime()}
	runtime.ReadMemStats(&p.mem)
	return p
}

// stop records into ph the CPU time, the KB allocated and the GC cycles
// since startProbe.
func (p *probe) stop(ph *phase) {
	ph.cpuUS = us(cpuTime() - p.cpu)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.allocKB = float64(m.TotalAlloc-p.mem.TotalAlloc) / 1024
	ph.gcs = m.NumGC - p.mem.NumGC
}

// addHeap reports heap_mb, the live heap in MB after a forced GC. Each
// workload reads it after set-up plus a fixed count of operations, before
// its timed phase: the heap grows with the work done (a tenant's comm
// trace, the span rings), so a reading taken after a fixed time would show
// a faster program as a larger heap.
func addHeap(res *result) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.add("heap_mb", "MB", float64(m.HeapAlloc)/(1<<20))
}

// cpuTime is the user and system CPU time the process has used. The
// kernel does not charge it for time the hypervisor steals, so it is the
// steady measure of the work a phase cost on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rateWindow is the slice of the timed phase a throughput sample covers.
const rateWindow = 500 * time.Millisecond

// rateLog records when each operation of a timed phase completed.
type rateLog struct {
	start time.Time
	ends  []time.Duration
}

func newRateLog(start time.Time) *rateLog { return &rateLog{start: start} }

func (r *rateLog) done(at time.Time) { r.ends = append(r.ends, at.Sub(r.start)) }

// rate returns the median, over the whole windows of the phase, of the
// operations completed per second. A window's rate is immune to a stall
// in another window, so the median is steadier than total/elapsed.
func (r *rateLog) rate(elapsed time.Duration) float64 {
	n := int(elapsed / rateWindow)
	if n < 1 {
		return float64(len(r.ends)) / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, e := range r.ends {
		if w := int(e / rateWindow); w < n {
			counts[w]++
		}
	}
	return median(counts) / rateWindow.Seconds()
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fmtFloat renders a metric value with all its digits.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// tenantName is the name of the i-th benchmark tenant.
func tenantName(prefix string, i int) string { return fmt.Sprintf("%s%03d", prefix, i) }
